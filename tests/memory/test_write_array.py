"""``MainMemory.write_array``: the bulk path for 1-D numeric arrays stores
exactly what the element loop stores for the same values as numpy scalars
(Python ints and floats, never numpy scalars), and every other input still
takes the element loop."""

import numpy as np
import pytest

from repro.memory import MainMemory

BASE = 0x0100_0000

ARRAYS = {
    "int64": np.array([0, 1, -1, 2**62, -(2**63)], dtype=np.int64),
    "uint64-high": np.array([0, 2**63, 2**64 - 1, 12345], dtype=np.uint64),
    "int32": np.arange(-3, 4, dtype=np.int32),
    "float32": np.array([0.1, -2.5, 3.25e7, np.inf], dtype=np.float32),
    "float64": np.array([0.1, -0.0, 1e300, np.pi], dtype=np.float64),
    "empty-int": np.array([], dtype=np.int64),
    "empty-float": np.array([], dtype=np.float64),
}


def _image(mem: MainMemory) -> list:
    """Stored words with their Python types, in address order."""
    return [(i, v, type(v)) for i, v in sorted(mem._words.items())]


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_array_path_matches_element_loop(name):
    arr = ARRAYS[name]
    fast, loop = MainMemory(), MainMemory()
    end_fast = fast.write_array(BASE, arr)
    # the element loop: the same values as numpy scalars, not an ndarray
    end_loop = loop.write_array(BASE, list(arr))
    assert end_fast == end_loop == BASE + 8 * len(arr)
    assert _image(fast) == _image(loop)
    for _, value, kind in _image(fast):
        assert kind in (int, float)
    if arr.dtype.kind == "u" and len(arr):
        assert fast.load(BASE + 8) == 2**63


def test_plain_list_keeps_values():
    mem = MainMemory()
    values = [1, 2.5, 2**64 - 1, -7]
    assert mem.write_array(BASE, values) == BASE + 32
    assert mem.read_array(BASE, 4) == values
    assert [type(v) for v in mem.read_array(BASE, 4)] == [int, float, int, int]


def test_two_dimensional_array_takes_the_loop():
    """A 2-D array iterates by rows; the loop stores each row object as is,
    and the bulk path must not flatten it."""
    arr = np.arange(6, dtype=np.int64).reshape(3, 2)
    mem = MainMemory()
    assert mem.write_array(BASE, arr) == BASE + 24
    rows = mem.read_array(BASE, 3)
    assert all(isinstance(r, np.ndarray) for r in rows)
    assert [r.tolist() for r in rows] == arr.tolist()


def test_unaligned_base_raises_on_both_paths():
    from repro.memory.main_memory import AlignmentError
    with pytest.raises(AlignmentError):
        MainMemory().write_array(BASE + 4, np.arange(3))
    with pytest.raises(AlignmentError):
        MainMemory().write_array(BASE + 4, [1, 2, 3])
