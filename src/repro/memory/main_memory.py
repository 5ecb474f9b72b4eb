"""Functional main-memory data storage.

All architectural memory traffic in this model is 64-bit-word granular
(Section 5.3 stores eight registers per 64-byte line), so the functional
image is a sparse word store.  Values are Python objects — unsigned 64-bit
ints for integer data, floats for FP data — which keeps the golden model
exact without bit-pattern conversions.  Timing is handled separately by the
cache/DRAM models; this class is purely the *contents*.
"""

from __future__ import annotations

from typing import Dict, Iterable, Union

import numpy as np

Word = Union[int, float]

LINE_BYTES = 64
WORD_BYTES = 8
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES


class AlignmentError(ValueError):
    """Raised when an access is not 8-byte aligned."""


class MainMemory:
    """Sparse, word-addressable functional memory image."""

    def __init__(self) -> None:
        self._words: Dict[int, Word] = {}

    @staticmethod
    def _index(addr: int) -> int:
        if addr % WORD_BYTES:
            raise AlignmentError(f"unaligned 8-byte access at {addr:#x}")
        return addr // WORD_BYTES

    # load/store run once per ldr/str, so they test alignment inline rather
    # than through :meth:`_index`
    def load(self, addr: int) -> Word:
        """Read the 64-bit word at byte address ``addr`` (0 if untouched)."""
        if addr & 7:
            raise AlignmentError(f"unaligned 8-byte access at {addr:#x}")
        return self._words.get(addr >> 3, 0)

    def store(self, addr: int, value: Word) -> None:
        """Write the 64-bit word at byte address ``addr``."""
        if addr & 7:
            raise AlignmentError(f"unaligned 8-byte access at {addr:#x}")
        self._words[addr >> 3] = value

    def write_array(self, addr: int, values: Iterable[Word]) -> int:
        """Bulk-write ``values`` starting at ``addr``; returns end address.

        A 1-D integer or float array is stored in one dict update:
        ``tolist()`` yields the same Python ints and floats the element
        loop makes of numpy scalars, without one conversion call per word.
        """
        idx = self._index(addr)
        if (isinstance(values, np.ndarray) and values.ndim == 1
                and values.dtype.kind in "iuf"):
            n = len(values)
            self._words.update(zip(range(idx, idx + n), values.tolist()))
            return addr + WORD_BYTES * n
        count = 0
        for offset, value in enumerate(values):
            v = value
            if isinstance(v, (np.integer,)):
                v = int(v)
            elif isinstance(v, (np.floating,)):
                v = float(v)
            self._words[idx + offset] = v
            count = offset + 1
        return addr + WORD_BYTES * count

    def read_array(self, addr: int, count: int) -> list:
        """Bulk-read ``count`` words starting at ``addr``."""
        idx = self._index(addr)
        return [self._words.get(idx + i, 0) for i in range(count)]

    def footprint_words(self) -> int:
        """Number of words ever touched (for tests/diagnostics)."""
        return len(self._words)

    def copy(self) -> "MainMemory":
        """Independent snapshot of the current contents.

        Used by golden-model checkers that must replay a program against
        the *pristine* pre-run image while the simulator mutates the
        original (e.g. the race-aware fuzz checker).
        """
        new = MainMemory()
        new._words = dict(self._words)
        return new


def line_address(addr: int) -> int:
    """Byte address of the 64-byte line containing ``addr``."""
    return addr & ~(LINE_BYTES - 1)
