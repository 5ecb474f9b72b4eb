"""Hierarchical statistics counters used across the simulator.

Every architectural component owns a :class:`Stats` namespace. Counters are
created on first use, so components can record events without pre-declaring
them.  Scalar counters, ratios, and simple histograms are supported; the whole
tree can be flattened into a ``dict`` for reporting from experiment drivers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple


class Stats:
    """A named bag of counters, optionally containing child namespaces.

    >>> s = Stats("core0")
    >>> s.inc("instructions", 5)
    >>> s["instructions"]
    5
    >>> s.child("dcache").inc("misses")
    >>> dict(s.flat())["core0.dcache.misses"]
    1

    A component whose counters are too hot for one :meth:`inc` per event
    (the VRMU counts every register operand) asks for a :meth:`batch`: a
    list of plain ints it adds to by index.  The namespace folds the
    pending amounts into the counters before every read (:meth:`_sync`),
    so every observer — a ``stats["hits"]`` probe, the interval sampler's
    walk, a result digest — sees exactly the values per-event
    ``inc`` calls would have produced, at every observation point.
    """

    #: ``(keys, pending)`` of :meth:`batch`; a class-level ``None`` so that
    #: unbatched namespaces carry no per-instance state
    _batched: Optional[Tuple[Tuple[str, ...], List[int]]] = None

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._counters: Dict[str, float] = defaultdict(float)
        self._children: Dict[str, "Stats"] = {}

    # -- batched counters -------------------------------------------------
    def batch(self, *keys: str) -> List[int]:
        """Pending counts for ``keys``, one int cell each, all zero.

        The caller does ``pending[i] += n`` where it would have called
        ``inc(keys[i], n)``; a key first appears among the counters when
        its cell is non-zero at a read, as with ``inc``.  The list is owned
        here, not by the caller, so a result's ``Stats`` tree never keeps
        the simulated core alive.  One batch per namespace; its keys must
        not also be written through :meth:`set` or :meth:`max`.
        """
        if self._batched is not None:
            raise ValueError(f"namespace {self.name!r} already has a batch")
        pending = [0] * len(keys)
        self._batched = (keys, pending)
        return pending

    def _sync(self) -> None:
        """The pre-read hook: fold the batch's pending counts in."""
        if self._batched is None:
            return
        keys, pending = self._batched
        for i, amount in enumerate(pending):
            if amount:
                self._counters[keys[i]] += amount
                pending[i] = 0

    def __getstate__(self) -> Dict:
        # results cross process pools and live in the ledger as pickles: a
        # pickled tree is a plain record with nothing pending
        self._sync()
        return {k: v for k, v in self.__dict__.items() if k != "_batched"}

    # -- counters ---------------------------------------------------------
    def inc(self, key: str, amount: float = 1) -> None:
        """Increment counter ``key`` by ``amount`` (creating it at 0)."""
        self._counters[key] += amount

    def set(self, key: str, value: float) -> None:
        """Set counter ``key`` to an absolute value."""
        self._counters[key] = value

    def max(self, key: str, value: float) -> None:
        """Record the running maximum of ``key``."""
        if value > self._counters.get(key, float("-inf")):
            self._counters[key] = value

    def __getitem__(self, key: str) -> float:
        self._sync()
        return self._counters.get(key, 0.0)

    def __contains__(self, key: str) -> bool:
        self._sync()
        return key in self._counters

    def ratio(self, num: str, den: str) -> float:
        """Return counter ``num`` / counter ``den`` (0 if denominator is 0)."""
        self._sync()
        d = self._counters.get(den, 0.0)
        return self._counters.get(num, 0.0) / d if d else 0.0

    # -- hierarchy --------------------------------------------------------
    def child(self, name: str) -> "Stats":
        """Return (creating if needed) the child namespace ``name``."""
        if name not in self._children:
            self._children[name] = Stats(name)
        return self._children[name]

    def children(self) -> Dict[str, "Stats"]:
        return dict(self._children)

    def flat(self, prefix: str | None = None) -> Iterator[Tuple[str, float]]:
        """Yield ``(dotted.path, value)`` for every counter in the tree."""
        self._sync()
        base = self.name if prefix is None else prefix
        for key, value in sorted(self._counters.items()):
            yield (f"{base}.{key}" if base else key, value)
        for child in self._children.values():
            yield from child.flat(f"{base}.{child.name}" if base else child.name)

    def nodes(self) -> Iterator[Tuple[Optional[str], Dict[str, float]]]:
        """Yield ``(name, counters)`` for every namespace, depth first.

        ``name`` is the namespace's own name, and ``None`` at the root the
        walk was called on (its name is not part of a key relative to it).
        Each namespace is synced as it is reached; ``counters`` is its live
        mapping — read it, do not keep or write it.
        """
        stack: List[Tuple[Optional[str], Stats]] = [(None, self)]
        while stack:
            name, node = stack.pop()
            node._sync()
            yield name, node._counters
            if node._children:  # keyed by the child's own name
                stack.extend(reversed(node._children.items()))

    def as_dict(self) -> Dict[str, float]:
        """Flatten the entire tree into a plain dictionary."""
        return dict(self.flat())

    def merge(self, other: "Stats") -> "Stats":
        """Add every counter of ``other``'s tree into this one (recursively).

        Children are matched by name; missing namespaces are created.  Lets
        aggregation sites (multi-core sweeps, the interval sampler) combine
        per-core trees structurally instead of hand-flattening dicts.
        Returns ``self`` for chaining.
        """
        other._sync()
        for key, value in other._counters.items():
            self._counters[key] += value
        for name, child in other._children.items():
            self.child(name).merge(child)
        return self

    def reset(self) -> None:
        """Zero every counter in this namespace and all children."""
        self._sync()  # pending counts go with the rest
        self._counters.clear()
        for child in self._children.values():
            child.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._sync()
        return f"Stats({self.name!r}, {dict(self._counters)!r}, children={list(self._children)})"
