"""Timestamped interaction data: ingestion, partitioning, counting and splits.

An event list is an ordered sequence of ``(source, dest, time)`` interactions
with times normalized to [0, 1]. The observation window is chopped into K
intervals by an :class:`IntervalPartition`; per-pair per-interval event counts
live in a sparse :class:`CountTensor`. Everything here is pure given its
inputs and a seed.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

Pair = tuple[int, int]


class EventParseError(ValueError):
    """Raised on malformed input rows; carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def canonical_pair(i: int, j: int, directed: bool) -> Pair:
    """Return the stored orientation of a pair: sorted unless directed."""
    if directed or i < j:
        return (i, j)
    return (j, i)


@dataclass(eq=False)
class EventList:
    """Normalized interaction history over nodes 0..n-1.

    Invariants (checked in ``validate``): times sorted and inside [0, 1],
    no self-loops, node ids contiguous, and ``src < dst`` whenever the data
    is undirected.
    """

    src: np.ndarray
    dst: np.ndarray
    time: np.ndarray
    n: int
    directed: bool = False
    node_labels: Optional[list[str]] = None
    time_range: Optional[tuple[float, float]] = None
    dropped_self_loops: int = 0
    _pair_index: Optional[dict[Pair, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.time = np.asarray(self.time, dtype=np.float64)
        if self.node_labels is None:
            self.node_labels = [str(i) for i in range(self.n)]
        self.validate()

    def validate(self) -> None:
        if not (self.src.shape == self.dst.shape == self.time.shape):
            raise ValueError("src, dst and time must have identical shapes")
        if self.time.size and (self.time.min() < 0.0 or self.time.max() > 1.0):
            raise ValueError("event times must lie in [0, 1]")
        if np.any(np.diff(self.time) < 0):
            raise ValueError("event times must be sorted non-decreasing")
        if np.any(self.src == self.dst):
            raise ValueError("self-loops are not allowed")
        if self.time.size:
            ids = np.concatenate([self.src, self.dst])
            if ids.min() < 0 or ids.max() >= self.n:
                raise ValueError("node ids must lie in 0..n-1")
        if not self.directed and np.any(self.src > self.dst):
            raise ValueError("undirected events must be stored with src < dst")
        if len(self.node_labels) != self.n:
            raise ValueError("node_labels must have length n")

    @property
    def m(self) -> int:
        """Number of events."""
        return int(self.time.size)

    def unique_pairs(self) -> set[Pair]:
        return set(zip(self.src.tolist(), self.dst.tolist()))

    def partners(self, i: int) -> set[int]:
        """Nodes that interact with i at least once (either orientation)."""
        out = set(self.dst[self.src == i].tolist())
        out |= set(self.src[self.dst == i].tolist())
        return out

    def pair_times(self, i: int, j: int) -> np.ndarray:
        """Event times of the pair (i, j), in stored orientation."""
        if self._pair_index is None:
            index: dict[Pair, list[int]] = {}
            for m, (a, b) in enumerate(zip(self.src.tolist(), self.dst.tolist())):
                index.setdefault((a, b), []).append(m)
            self._pair_index = {
                p: self.time[np.asarray(idx)] for p, idx in index.items()
            }
        key = canonical_pair(i, j, self.directed)
        return self._pair_index.get(key, np.empty(0, dtype=np.float64))


def normalize_times(ev: EventList) -> EventList:
    """Min-max rescale event times onto [0, 1].

    Idempotent: an already-normalized list (spanning [0, 1]) is returned
    unchanged up to floating point identity. A degenerate span (all times
    equal) maps every time to 0.0.
    """
    if ev.m == 0:
        return ev
    t_min = float(ev.time.min())
    t_max = float(ev.time.max())
    if t_max > t_min:
        times = (ev.time - t_min) / (t_max - t_min)
    else:
        times = np.zeros_like(ev.time)
    return EventList(
        src=ev.src.copy(),
        dst=ev.dst.copy(),
        time=times,
        n=ev.n,
        directed=ev.directed,
        node_labels=list(ev.node_labels),
        time_range=(t_min, t_max),
        dropped_self_loops=ev.dropped_self_loops,
    )


def parse_events(source: TextIO | str | Path, directed: bool = False) -> EventList:
    """Read a `source,dest,timestamp` CSV (one header row) into an EventList.

    Node labels are arbitrary strings, mapped to ids 0..n-1 in order of first
    appearance; the mapping is kept on ``node_labels``. Self-loops are dropped
    (count reported on the result), times are min-max normalized to [0, 1]
    and events sorted by time. Raises :class:`EventParseError` with a line
    number on malformed rows and on empty input.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return parse_events(handle, directed=directed)

    reader = csv.reader(source)
    labels: dict[str, int] = {}
    srcs: list[int] = []
    dsts: list[int] = []
    times: list[float] = []
    dropped = 0
    saw_header = False
    for line_no, row in enumerate(reader, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if not saw_header:
            saw_header = True
            continue
        if len(row) != 3:
            raise EventParseError(f"expected 3 fields, got {len(row)}", line_no)
        a, b, t_raw = (f.strip() for f in row)
        if not a or not b:
            raise EventParseError("empty node label", line_no)
        try:
            t = float(t_raw)
        except ValueError:
            raise EventParseError(f"non-numeric timestamp {t_raw!r}", line_no) from None
        if not np.isfinite(t) or t < 0:
            raise EventParseError(f"timestamp must be a finite non-negative real, got {t_raw!r}", line_no)
        if a == b:
            dropped += 1
            continue
        for label in (a, b):
            if label not in labels:
                labels[label] = len(labels)
        srcs.append(labels[a])
        dsts.append(labels[b])
        times.append(t)

    if not saw_header:
        raise EventParseError("empty input")
    if not times:
        if dropped:
            raise EventParseError("no events left after dropping self-loops")
        raise EventParseError("no event rows found")

    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    t_arr = np.asarray(times, dtype=np.float64)
    if not directed:
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        src, dst = lo, hi
    t_min = float(t_arr.min())
    t_max = float(t_arr.max())
    if t_max > t_min:
        t_arr = (t_arr - t_min) / (t_max - t_min)
    else:
        t_arr = np.zeros_like(t_arr)
    order = np.argsort(t_arr, kind="stable")
    label_list = [None] * len(labels)
    for label, idx in labels.items():
        label_list[idx] = label
    return EventList(
        src=src[order],
        dst=dst[order],
        time=t_arr[order],
        n=len(labels),
        directed=directed,
        node_labels=label_list,
        time_range=(t_min, t_max),
        dropped_self_loops=dropped,
    )


def write_events_csv(ev: EventList, path: str | Path) -> None:
    """Write events in the same `source,dest,timestamp` format parse_events reads."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["source", "dest", "timestamp"])
        for a, b, t in zip(ev.src.tolist(), ev.dst.tolist(), ev.time.tolist()):
            writer.writerow([ev.node_labels[a], ev.node_labels[b], repr(t)])


def write_nodes_csv(ev: EventList, path: str | Path) -> None:
    """Export the label -> id map as `label,id`."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["label", "id"])
        for idx, label in enumerate(ev.node_labels):
            writer.writerow([label, idx])


@dataclass(frozen=True, eq=False)
class IntervalPartition:
    """Cut-points 0 = eta_0 < eta_1 < ... < eta_K = 1 defining intervals I_1..I_K.

    Intervals are left-closed right-open, except I_K which is closed at 1.
    Interval indices are 1-based throughout the public API.
    """

    cut_points: np.ndarray

    def __post_init__(self):
        cuts = np.asarray(self.cut_points, dtype=np.float64)
        object.__setattr__(self, "cut_points", cuts)
        if cuts.ndim != 1 or cuts.size < 2:
            raise ValueError("need at least two cut-points")
        if cuts[0] != 0.0 or cuts[-1] != 1.0:
            raise ValueError("cut-points must start at 0 and end at 1")
        if np.any(np.diff(cuts) <= 0):
            raise ValueError("cut-points must be strictly increasing")

    @classmethod
    def uniform(cls, K: int) -> "IntervalPartition":
        """Uniform partition with eta_k = k/K."""
        if K < 1:
            raise ValueError("K must be >= 1")
        return cls(np.arange(K + 1, dtype=np.float64) / K)

    @property
    def K(self) -> int:
        return int(self.cut_points.size - 1)

    @property
    def lengths(self) -> np.ndarray:
        """Interval lengths |I_k| for k = 1..K (index k-1)."""
        return np.diff(self.cut_points)

    def bounds(self, k: int) -> tuple[float, float]:
        """(eta_{k-1}, eta_k) for interval k (1-based)."""
        if not 1 <= k <= self.K:
            raise ValueError(f"interval index must be in 1..{self.K}, got {k}")
        return float(self.cut_points[k - 1]), float(self.cut_points[k])

    def midpoint(self, k: int) -> float:
        a, b = self.bounds(k)
        return 0.5 * (a + b)

    def interval_of(self, t):
        """1-based interval containing t; t = 1 maps to interval K."""
        t_arr = np.asarray(t, dtype=np.float64)
        if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
            raise ValueError("times must lie in [0, 1]")
        k = np.searchsorted(self.cut_points, t_arr, side="right")
        k = np.minimum(k, self.K)
        return int(k) if np.isscalar(t) or t_arr.ndim == 0 else k.astype(np.int64)

    def local_coord(self, t):
        """(k, s) with t = (1-s) * eta_{k-1} + s * eta_k, k 1-based."""
        k = self.interval_of(t)
        k_arr = np.asarray(k)
        a = self.cut_points[k_arr - 1]
        b = self.cut_points[k_arr]
        s = (np.asarray(t, dtype=np.float64) - a) / (b - a)
        if np.isscalar(t):
            return int(k_arr), float(s)
        return k_arr, s


@dataclass(eq=False)
class CountTensor:
    """Sparse per-pair per-interval event counts N_ij(I_k), k 1-based.

    ``counts`` maps stored-orientation keys (i, j, k) to counts and must not
    change after construction: the array indexes behind ``counts_of``,
    ``degrees`` and ``neighbors`` are built from it on first use.
    """

    n: int
    K: int
    directed: bool
    counts: dict[tuple[int, int, int], int]
    _sorted: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False
    )
    _degrees: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _adjacency: Optional[tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False
    )

    def _code(self, i, j, k):
        return (i * self.n + j) * self.K + (k - 1)

    def _index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(keys (nnz, 3), codes, values), sorted by the int64 key code."""
        if self._sorted is None:
            nnz = len(self.counts)
            keys = np.fromiter(
                itertools.chain.from_iterable(self.counts), dtype=np.int64, count=3 * nnz
            ).reshape(nnz, 3)
            values = np.fromiter(self.counts.values(), dtype=np.int64, count=nnz)
            codes = self._code(keys[:, 0], keys[:, 1], keys[:, 2])
            order = np.argsort(codes, kind="stable")
            self._sorted = (keys[order], codes[order], values[order])
        return self._sorted

    def count(self, i: int, j: int, k: int) -> int:
        a, b = canonical_pair(i, j, self.directed)
        return self.counts.get((a, b, k), 0)

    def counts_of(self, i, j, k) -> np.ndarray:
        """Vectorized ``count``: int64 counts for broadcast triplet arrays."""
        i, j, k = np.broadcast_arrays(
            np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64),
            np.asarray(k, dtype=np.int64),
        )
        if not self.directed:
            i, j = np.minimum(i, j), np.maximum(i, j)
        _keys, codes, values = self._index()
        out = np.zeros(i.shape, dtype=np.int64)
        if codes.size == 0:
            return out
        query = self._code(i, j, k)
        pos = np.minimum(np.searchsorted(codes, query), codes.size - 1)
        # out-of-range ids would alias another key's code
        valid = (i >= 0) & (i < self.n) & (j >= 0) & (j < self.n) & (k >= 1) & (k <= self.K)
        hit = valid & (codes[pos] == query)
        out[hit] = values[pos[hit]]
        return out

    def total(self) -> int:
        return sum(self.counts.values())

    def pairs_active_in(self, k: int) -> set[Pair]:
        return {(i, j) for (i, j, kk) in self.counts if kk == k}

    def active_pairs(self) -> set[Pair]:
        return {(i, j) for (i, j, _k) in self.counts}

    @property
    def degrees(self) -> np.ndarray:
        """(n, K) int64 table of deg(i, k), column k-1 for interval k."""
        if self._degrees is None:
            keys, _codes, values = self._index()
            k0 = keys[:, 2] - 1
            slots = np.concatenate([keys[:, 0] * self.K + k0, keys[:, 1] * self.K + k0])
            weights = np.tile(values, 2).astype(np.float64)  # exact below 2**53
            deg = np.bincount(slots, weights=weights, minlength=self.n * self.K)
            self._degrees = deg.astype(np.int64).reshape(self.n, self.K)
        return self._degrees

    def degree(self, i: int, k: int) -> int:
        return int(self.degrees[i, k - 1])

    def node_event_count(self, i: int, k: int) -> int:
        """N_i(I_k): interactions of node i in interval k (= degree)."""
        return self.degree(i, k)

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Per (node, interval) neighbor lists in CSR form ``(indptr, nbr)``.

        The neighbors of node i in interval k are ``nbr[indptr[s]:indptr[s+1]]``
        with ``s = i * K + k - 1``, ascending: every j with N_ij(I_k) >= 1,
        where a directed tensor counts only the stored (i, j) orientation.
        """
        if self._adjacency is None:
            keys, _codes, values = self._index()
            keys = keys[values >= 1]
            a, b, k0 = keys[:, 0], keys[:, 1], keys[:, 2] - 1
            if not self.directed:
                a, b, k0 = np.concatenate([a, b]), np.concatenate([b, a]), np.tile(k0, 2)
            slots = a * self.K + k0
            order = np.lexsort((b, slots))
            indptr = np.zeros(self.n * self.K + 1, dtype=np.int64)
            np.cumsum(np.bincount(slots, minlength=self.n * self.K), out=indptr[1:])
            self._adjacency = (indptr, b[order])
        return self._adjacency

    def neighbors(self, i: int, k: int) -> np.ndarray:
        """Ascending neighbors of node i in interval k; see ``adjacency``."""
        if not 0 <= i < self.n:
            raise ValueError(f"node id must be in 0..{self.n - 1}, got {i}")
        if not 1 <= k <= self.K:
            raise ValueError(f"interval index must be in 1..{self.K}, got {k}")
        indptr, nbr = self.adjacency()
        s = i * self.K + k - 1
        return nbr[indptr[s] : indptr[s + 1]]


def interval_counts(ev: EventList, part: IntervalPartition) -> CountTensor:
    """Count events per pair and interval; t = 1 lands in interval K."""
    ks = part.interval_of(ev.time) if ev.m else np.empty(0, dtype=np.int64)
    counts: dict[tuple[int, int, int], int] = {}
    for a, b, k in zip(ev.src.tolist(), ev.dst.tolist(), np.atleast_1d(ks).tolist()):
        key = (a, b, int(k))
        counts[key] = counts.get(key, 0) + 1
    return CountTensor(n=ev.n, K=part.K, directed=ev.directed, counts=counts)


def node_degree(counts: CountTensor, i: int, k: int) -> int:
    """deg(i, k): total interactions of node i in interval k, all partners."""
    return counts.degree(i, k)


@dataclass(frozen=True)
class EdgeSplit:
    """Disjoint train/validation/test sets of unique interacting pairs."""

    train: frozenset[Pair]
    val: frozenset[Pair]
    test: frozenset[Pair]
    seed: int

    def all_pairs(self) -> frozenset[Pair]:
        return self.train | self.val | self.test

    def held_out(self) -> frozenset[Pair]:
        return self.val | self.test


def split_edges(
    ev: EventList, test_frac: float, val_frac: float = 0.0, seed: int = 0
) -> EdgeSplit:
    """Shuffle the unique interacting pairs and cut them by fraction.

    Set sizes are floors of the requested fractions; the split is a
    deterministic function of (pair set, fractions, seed).
    """
    if test_frac < 0 or val_frac < 0 or test_frac + val_frac >= 1:
        raise ValueError("need 0 <= test_frac + val_frac < 1")
    pairs = sorted(ev.unique_pairs())
    if len(pairs) < 3:
        raise ValueError(f"need at least 3 unique pairs to split, got {len(pairs)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    shuffled = [pairs[i] for i in order]
    n_test = int(len(pairs) * test_frac)
    n_val = int(len(pairs) * val_frac)
    test = frozenset(shuffled[:n_test])
    val = frozenset(shuffled[n_test : n_test + n_val])
    train = frozenset(shuffled[n_test + n_val :])
    return EdgeSplit(train=train, val=val, test=test, seed=seed)


def sample_negative_pairs(
    ev: EventList,
    i: int,
    count: int,
    excluded: Iterable[Pair] = (),
    seed: int = 0,
) -> tuple[set[Pair], int]:
    """Sample up to `count` never-interacting partners for node i.

    Returns (pairs, pool_size) where pairs are (i, j) with no event between
    i and j and (i, j) not excluded, and pool_size is the exact number of
    such candidates (used to reweight subsampled survival terms). An empty
    pool yields (set(), 0).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    blocked = set(ev.partners(i))
    blocked.add(i)
    for a, b in excluded:
        if a == i:
            blocked.add(b)
        elif b == i:
            blocked.add(a)
    candidates = [j for j in range(ev.n) if j not in blocked]
    pool_size = len(candidates)
    if pool_size == 0:
        return set(), 0
    rng = np.random.default_rng(seed)
    take = min(count, pool_size)
    chosen = rng.choice(pool_size, size=take, replace=False)
    return {(i, candidates[c]) for c in chosen.tolist()}, pool_size
