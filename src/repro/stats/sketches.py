"""Deterministic streaming sketches backing table/column statistics.

Two sketches, both chosen for properties the optimizer tests pin down:

* :class:`KMVSketch` — k-minimum-values distinct counting.  The state is
  the ``k`` smallest 64-bit hashes seen, so merging is *exactly*
  associative and commutative (the k smallest of a union is the k
  smallest of the per-block k-smallest sets) and the estimate is exact
  while fewer than ``k`` distinct values were observed.  Beyond that the
  standard estimator ``(k-1) / R_k`` applies, with relative standard
  error ``~ 1/sqrt(k-2)`` (about 6% at the default k=256).

* :class:`SpaceSavingSketch` — Metwally et al.'s heavy-hitter summary.
  Worst-case guarantees (not probabilistic): estimates never
  undercount, overcount by at most ``N / capacity`` observations, and
  any value with true frequency above ``N / capacity`` is present in
  the summary.  Merging sums matching counters and charges each side's
  minimum counter for values the other side dropped, preserving both
  bounds; merge results are bit-identical regardless of association
  order while no summary has hit capacity.

Hashing goes through BLAKE2b over the shuffle serde's canonical byte
encoding — Python's builtin ``hash`` is salted per process, which would
make stats (and every plan decision derived from them) differ between
runs.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.kv import serialize_fields

HASH_SPACE = float(2**64)

DEFAULT_NDV_K = 256
DEFAULT_HEAVY_CAPACITY = 64


def value_hash64(value: object) -> int:
    """Deterministic 64-bit hash of one column value.

    The value is encoded with the shuffle serde (type-tagged, so ``1``
    and ``1.0`` hash differently) and digested with BLAKE2b; stable
    across processes, platforms and PYTHONHASHSEED.
    """
    digest = hashlib.blake2b(
        serialize_fields((value,)), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def value_order_key(value: object) -> bytes:
    """Canonical byte key used for deterministic tie-breaking."""
    return serialize_fields((value,))


class KMVSketch:
    """K-minimum-values NDV sketch over 64-bit hashes."""

    __slots__ = ("k", "_heap", "_members")

    def __init__(self, k: int = DEFAULT_NDV_K):
        if k < 2:
            raise ValueError("KMV sketch needs k >= 2")
        self.k = k
        self._heap: List[int] = []  # max-heap of kept hashes (negated)
        self._members: set = set()

    def add(self, value: object) -> None:
        self.add_hash(value_hash64(value))

    def add_hash(self, hashed: int) -> None:
        members = self._members
        if hashed in members:
            return
        heap = self._heap
        if len(heap) < self.k:
            heapq.heappush(heap, -hashed)
            members.add(hashed)
        elif hashed < -heap[0]:
            evicted = -heapq.heapreplace(heap, -hashed)
            members.discard(evicted)
            members.add(hashed)

    def merge(self, other: "KMVSketch") -> "KMVSketch":
        """New sketch over the union of both inputs (exactly associative)."""
        if self.k != other.k:
            raise ValueError(
                f"cannot merge KMV sketches of different k ({self.k} vs {other.k})"
            )
        merged = KMVSketch(self.k)
        for hashed in self._members:
            merged.add_hash(hashed)
        for hashed in other._members:
            merged.add_hash(hashed)
        return merged

    def estimate(self) -> float:
        """Estimated number of distinct values (exact below capacity)."""
        kept = len(self._members)
        if kept < self.k:
            return float(kept)
        kth = -self._heap[0]  # k-th smallest hash seen
        if kth <= 0:
            return float(kept)
        return (self.k - 1) * HASH_SPACE / kth

    def state(self) -> Tuple[int, Tuple[int, ...]]:
        """Canonical state for equality/round-trip checks."""
        return (self.k, tuple(sorted(self._members)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KMVSketch) and self.state() == other.state()

    def __hash__(self):
        return hash(self.state())

    def __repr__(self) -> str:
        return f"KMVSketch(k={self.k}, kept={len(self._members)})"


class SpaceSavingSketch:
    """Space-Saving heavy-hitter summary with deterministic eviction.

    The eviction victim is the counter with the smallest
    ``(count, canonical value bytes)``; among distinct values with equal
    bytes (two NaN objects) the earliest admitted goes first.  A lazy
    min-heap finds it in ``O(log capacity)`` amortized: each tracked
    value has one entry ``(count lower bound, order key, admission seq,
    value)``, increments touch only ``_counts``, and an eviction
    refreshes stale bounds at the top until the top entry is current.
    The order key is computed once, when the value is admitted.
    """

    __slots__ = ("capacity", "total", "_counts", "_errors", "_keys", "_heap", "_seq")

    def __init__(self, capacity: int = DEFAULT_HEAVY_CAPACITY):
        if capacity < 1:
            raise ValueError("Space-Saving sketch needs capacity >= 1")
        self.capacity = capacity
        self.total = 0  # observations seen (sum of add counts)
        self._counts: Dict[object, int] = {}
        self._errors: Dict[object, int] = {}
        self._keys: Dict[object, bytes] = {}  # cached value_order_key
        # one (count lower bound, order key, admission seq, value) per
        # tracked value; the unique seq means values are never compared
        self._heap: List[Tuple[int, bytes, int, object]] = []
        self._seq = 0  # admissions so far

    def add(self, value: object, count: int = 1) -> None:
        if count <= 0:
            return
        self.total += count
        counts = self._counts
        if value in counts:
            counts[value] += count
            return
        key = value_order_key(value)
        seq = self._seq
        self._seq = seq + 1
        if len(counts) < self.capacity:
            counts[value] = count
            self._errors[value] = 0
            self._keys[value] = key
            heapq.heappush(self._heap, (count, key, seq, value))
            return
        victim = self._min_item()
        floor = counts.pop(victim)
        self._errors.pop(victim)
        self._keys.pop(victim)
        counts[value] = floor + count
        self._errors[value] = floor
        self._keys[value] = key
        heapq.heapreplace(self._heap, (floor + count, key, seq, value))

    def _min_item(self) -> object:
        """Counter with the smallest ``(count, order key, seq)``, left at
        the top of the heap.  Bounds only lag behind counts, so once the
        top entry's bound is current no other entry can be smaller."""
        heap = self._heap
        counts = self._counts
        while True:
            bound, key, seq, value = heap[0]
            current = counts[value]
            if bound == current:
                return value
            heapq.heapreplace(heap, (current, key, seq, value))

    # -- queries ------------------------------------------------------------
    def estimate(self, value: object) -> int:
        """Estimated observation count (0 ≤ overcount ≤ total/capacity)."""
        return self._counts.get(value, 0)

    def error(self, value: object) -> int:
        """Upper bound on how much :meth:`estimate` overcounts *value*."""
        return self._errors.get(value, 0)

    def share(self, value: object) -> Optional[float]:
        """Observed share of *value*, or ``None`` when it is not tracked
        (its true share is then at most ``1/capacity``)."""
        if self.total <= 0:
            return None
        count = self._counts.get(value)
        if count is None:
            return None
        return count / self.total

    def heavy_hitters(self, min_share: float) -> List[Tuple[object, float]]:
        """``(value, observed share)`` for every tracked value whose share
        reaches *min_share*, heaviest first (deterministic order)."""
        if self.total <= 0:
            return []
        out = [
            (value, count / self.total)
            for value, count in self._counts.items()
            if count / self.total >= min_share
        ]
        keys = self._keys
        out.sort(key=lambda item: (-item[1], keys[item[0]]))
        return out

    def items(self) -> List[Tuple[object, int, int]]:
        """All tracked ``(value, count, error)`` triples, heaviest first."""
        keys = self._keys
        return sorted(
            (
                (value, count, self._errors[value])
                for value, count in self._counts.items()
            ),
            key=lambda item: (-item[1], keys[item[0]]),
        )

    def merge(self, other: "SpaceSavingSketch") -> "SpaceSavingSketch":
        """Combined summary preserving the no-undercount / N/capacity
        overcount bounds.  A value one side dropped is charged that
        side's minimum counter (its count there cannot exceed it)."""
        if self.capacity != other.capacity:
            raise ValueError(
                "cannot merge Space-Saving sketches of different capacity "
                f"({self.capacity} vs {other.capacity})"
            )
        floor_self = (
            min(self._counts.values())
            if len(self._counts) >= self.capacity else 0
        )
        floor_other = (
            min(other._counts.values())
            if len(other._counts) >= other.capacity else 0
        )
        # the union in a fixed order; of two equal values (1 and 1.0)
        # this side's object, and its order key, represent both
        keys = dict(self._keys)
        for value, key in other._keys.items():
            keys.setdefault(value, key)
        combined: Dict[object, Tuple[int, int]] = {}
        for value in keys:
            count = error = 0
            if value in self._counts:
                count += self._counts[value]
                error += self._errors[value]
            else:
                count += floor_self
                error += floor_self
            if value in other._counts:
                count += other._counts[value]
                error += other._errors[value]
            else:
                count += floor_other
                error += floor_other
            combined[value] = (count, error)
        merged = SpaceSavingSketch(self.capacity)
        merged.total = self.total + other.total
        survivors = sorted(
            combined.items(),
            key=lambda item: (-item[1][0], keys[item[0]]),
        )[: self.capacity]
        # the survivors' sorted order is their admission order
        for seq, (value, (count, error)) in enumerate(survivors):
            merged._counts[value] = count
            merged._errors[value] = error
            merged._keys[value] = keys[value]
            merged._heap.append((count, keys[value], seq, value))
        merged._seq = len(survivors)
        heapq.heapify(merged._heap)
        return merged

    def state(self) -> tuple:
        return (
            self.capacity,
            self.total,
            tuple(
                sorted(
                    ((self._keys[v], c, self._errors[v])
                     for v, c in self._counts.items())
                )
            ),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpaceSavingSketch) and self.state() == other.state()
        )

    def __hash__(self):
        return hash(self.state())

    def __repr__(self) -> str:
        return (
            f"SpaceSavingSketch(capacity={self.capacity}, "
            f"tracked={len(self._counts)}, total={self.total})"
        )


def kmv_from_values(values: Iterable[object], k: int = DEFAULT_NDV_K) -> KMVSketch:
    sketch = KMVSketch(k)
    for value in values:
        sketch.add(value)
    return sketch


def spacesaving_from_values(
    values: Iterable[object], capacity: int = DEFAULT_HEAVY_CAPACITY
) -> SpaceSavingSketch:
    sketch = SpaceSavingSketch(capacity)
    for value in values:
        sketch.add(value)
    return sketch
