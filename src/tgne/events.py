"""Timestamped interaction data: ingestion, partitioning, counting and splits.

An event list is an ordered sequence of ``(source, dest, time)`` interactions
with times normalized to [0, 1]. The observation window is chopped into K
intervals by an :class:`IntervalPartition`; per-pair per-interval event counts
live in a sparse :class:`CountTensor`. Everything here is pure given its
inputs and a seed.
"""

from __future__ import annotations

import collections
import csv
import functools
import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np
import orjson

Pair = tuple[int, int]


class EventParseError(ValueError):
    """Raised on malformed input rows; carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def distinct_sorted(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending 1-d array, by a neighbour mask."""
    keep = np.ones(ascending.size, dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=keep[1:])
    return ascending[keep]


def unique_codes(codes: np.ndarray) -> np.ndarray:
    """``np.unique(codes)`` of a 1-d integer array, by sort and neighbour mask.

    numpy 2's values-only ``np.unique`` hashes its input, which costs several
    times a sort on int64 pair codes; the result is the same array.
    """
    return distinct_sorted(np.sort(codes))


def in_sorted(values: np.ndarray, ascending: np.ndarray) -> np.ndarray:
    """``np.isin(values, ascending)`` for an ascending array, by one ``searchsorted``."""
    if ascending.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(ascending, values), ascending.size - 1)
    return ascending[pos] == values


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

def parse_events(source: TextIO | str | Path, directed: bool = False) -> EventList:
    """Read a `source,dest,timestamp` CSV (one header row) into an EventList.

    Node labels are arbitrary strings, mapped to ids 0..n-1 in order of first
    appearance; the mapping is kept on ``node_labels``. Self-loops are dropped
    (count reported on the result), times are min-max normalized to [0, 1]
    and events sorted by time. Raises :class:`EventParseError` with a line
    number on malformed rows and on empty input.

    Plain input (unquoted fields, see ``_fast_columns``) is split into columns
    in one pass; anything else goes through the row-by-row ``_loop_columns``,
    which reads it the same way and raises the errors.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    else:
        text = source.read()
    columns = _fast_columns(text)
    if columns is None:
        columns = _loop_columns(io.StringIO(text, newline=""))
    return _event_list(*columns, directed=directed)


def _loop_columns(handle: TextIO):
    """(src ids, dst ids, times, labels, dropped self-loops), row by row with csv."""
    reader = csv.reader(handle)
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
    return (
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(times, dtype=np.float64),
        list(labels),
        dropped,
    )


def _fast_columns(text: str):
    """``_loop_columns`` of ``text`` split in one pass, or None if unsure.

    Takes only text that csv.reader splits into plain lines of three unquoted
    fields: no quote or NUL, no lone carriage return, exactly two commas on
    every line (so no blank line, and the header too), and no line past csv's
    field size limit. It then gives up on anything the loop would reject or
    read differently: a timestamp ``float`` refuses or that is not finite and
    non-negative, an empty label, a label with surrounding whitespace, or no
    event left. The timestamps read as ``float`` reads them (``_timestamps``).
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    if text.endswith("\n"):
        text = text[:-1]
    if "\n" not in text or not _three_fields_per_line(text):
        return None
    fields = text.replace("\n", ",").split(",")
    times = _timestamps(fields[5::3])  # past the header
    if times is None or not (np.isfinite(times).all() and (times >= 0).all()):
        return None
    del fields[5::3]
    del fields[:3]  # now src, dst of each row in turn
    # first-appearance ids, src before dst, as the loop gives them
    ids = collections.defaultdict(itertools.count().__next__)
    codes = np.fromiter(map(ids.__getitem__, fields), dtype=np.int64, count=len(fields))
    if "" in ids or any(label != label.strip() for label in ids):
        return None
    labels = list(ids)
    pairs = codes.reshape(-1, 2)
    loops = pairs[:, 0] == pairs[:, 1]
    dropped = int(loops.sum())
    if dropped:
        keep = ~loops
        if not keep.any():
            return None
        times, pairs = times[keep], pairs[keep]
        # ids again, in first appearance among the kept rows
        kept, first = np.unique(pairs.ravel(), return_index=True)
        kept = kept[np.argsort(first)]
        relabel = np.empty(len(labels), dtype=np.int64)
        relabel[kept] = np.arange(kept.size)
        pairs = relabel[pairs]
        labels = [labels[c] for c in kept.tolist()]
    return pairs[:, 0], pairs[:, 1], times, labels, dropped


# the characters of a JSON number: fields of only these that orjson reads, none
# starting with "-", read as ``float`` reads them (JSON reads "-0" as the
# integer 0, where ``float`` keeps the sign)
_JSON_NUMBER_BYTES = b"0123456789.eE+-,"


def _timestamps(t_raw: list[str]) -> Optional[np.ndarray]:
    """``float`` of each field as a float64 array, or None if one is not a float.

    Fields that are all JSON numbers are read by one ``orjson.loads``, whose
    doubles are the correctly rounded ones ``float`` gives; any other
    spelling (``.5``, ``1.``, ``01``, ``+1``, ``1_0``, `` 3``, non-ASCII
    digits, or a leading ``-``) makes the whole column go through ``float``.
    """
    joined = ",".join(t_raw)
    if (
        joined.isascii()
        and not joined.startswith("-")
        and ",-" not in joined
        and not joined.encode("ascii").translate(None, _JSON_NUMBER_BYTES)
    ):
        try:
            values = orjson.loads("[" + joined + "]")
        except orjson.JSONDecodeError:
            pass
        else:
            if len(values) == len(t_raw):
                return np.fromiter(values, dtype=np.float64, count=len(values))
    try:
        return np.fromiter(map(float, t_raw), dtype=np.float64, count=len(t_raw))
    except ValueError:
        return None


def _three_fields_per_line(text: str) -> bool:
    """Every "\\n"-separated line has two commas and fits csv's field size limit."""
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    commas = np.flatnonzero(data == ord(","))
    # line l's commas are 2l and 2l + 1, and lie after its start and before its end
    if commas.size != 2 * (ends.size + 1):
        return False
    if not ((commas[2::2] > ends).all() and (commas[1:-1:2] < ends).all()):
        return False
    return bool(np.diff(ends, prepend=-1, append=data.size).max() <= csv.field_size_limit())


def _event_list(src, dst, times, labels, dropped, directed: bool) -> EventList:
    """Parsed columns to an EventList: stored orientation, normalized, time-sorted."""
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    t_min = float(times.min())
    t_max = float(times.max())
    if t_max > t_min:
        times = (times - t_min) / (t_max - t_min)
    else:
        times = np.zeros_like(times)
    order = np.argsort(times, kind="stable")
    return EventList(
        src=src[order],
        dst=dst[order],
        time=times[order],
        n=len(labels),
        directed=directed,
        node_labels=labels,
        time_range=(t_min, t_max),
        dropped_self_loops=dropped,
    )


CSV_CHUNK_ROWS = 8192


def csv_field(text: str) -> str:
    """``text`` as csv.writer writes it in a row of two or more fields."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def float_text(values) -> list[str]:
    """``repr`` of each value of a 1-D array, as a float64.

    orjson writes the same shortest round-trip digits as ``repr``, several
    times faster, and in the same notation except for 0 < |x| < 1e-4 and
    |x| >= 1e16 (``1e-5`` against ``1e-05``, ``1e16`` against ``1e+16``) and
    nan and +-inf (``null``); those values alone are rendered by ``repr``.
    The cast comes first because orjson reads a float32 as float32 (``0.1``
    where ``repr`` of the double gives ``0.10000000149011612``) and takes
    only contiguous native-order arrays.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.size == 0:
        return []
    text = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(x)
    other = np.flatnonzero(~(mag >= 1e-4) & (mag != 0) | (mag >= 1e16))  # nan fails >=
    for at, value in zip(other.tolist(), x[other].tolist()):
        text[at] = repr(value)
    return text


def _renderer(column):
    """A function from a slice of ``column`` to the list of its fields as text.

    An integer column whose values span no more distinct integers than it has
    rows renders each value of that span once and looks the slices up in it.
    """
    if not isinstance(column, np.ndarray):
        return lambda chunk: chunk
    kind = column.dtype.kind
    if kind == "f":
        return float_text
    if kind in "iu" and column.size:
        lo, hi = column.min(), column.max()
        span = int(hi) - int(lo)
        # chunk - lo lies in 0..span, which must not wrap in the column's dtype
        if span < column.size and span <= np.iinfo(column.dtype).max:
            table = np.array(list(map(str, range(int(lo), int(hi) + 1))), dtype=object)
            return lambda chunk: table.take(chunk - lo).tolist()
    if kind in "biu":
        return lambda chunk: list(map(str, chunk.tolist()))
    return lambda chunk: chunk.tolist()


def write_csv_chunks(path: str | Path, header: Sequence[str], chunks: Iterable[Sequence]) -> None:
    """Write a CSV whose rows arrive as chunks of equal-length columns, with
    the bytes of csv.writer.

    Each chunk is a sequence of columns, and its rows follow the previous
    chunk's; an empty chunk writes nothing. A float array is written as
    ``repr`` of each value (by ``float_text``) and a bool or integer array as
    ``str``, which is what csv.writer writes for Python floats and ints; any
    other column holds fields already rendered as text (see ``csv_field``).
    Fields are joined by "," and rows end in "\\r\\n". Rows are rendered
    ``CSV_CHUNK_ROWS`` at a time, so only one slice of strings is alive, and
    only one chunk's columns when ``chunks`` is a generator.

    Each chunk picks its columns' renderers on its own. An integer (not bool)
    array whose range hi - lo + 1 is no larger than its length has ``str`` of
    each of lo..hi rendered once, as an object array, and each slice becomes
    ``table.take(slice - lo)``: about a tenth of the time of ``str`` per value
    on a 214k-row column. Either renderer writes the same text.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(map(csv_field, header)) + "\r\n")
        for columns in chunks:
            rows = len(columns[0]) if columns else 0
            renderers = [_renderer(col) for col in columns]
            for start in range(0, rows, CSV_CHUNK_ROWS):
                stop = start + CSV_CHUNK_ROWS
                fields = [render(col[start:stop]) for render, col in zip(renderers, columns)]
                handle.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def write_csv_columns(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns as CSV: ``write_csv_chunks`` with one chunk."""
    write_csv_chunks(path, header, [columns])


def write_events_csv(ev: EventList, path: str | Path) -> None:
    """Write events in the same `source,dest,timestamp` format parse_events reads."""
    labels = np.asarray([csv_field(label) for label in ev.node_labels], dtype=object)
    columns = [labels[ev.src], labels[ev.dst], ev.time]
    write_csv_columns(path, ["source", "dest", "timestamp"], columns)


def write_nodes_csv(ev: EventList, path: str | Path) -> None:
    """Export the label -> id map as `label,id`."""
    labels = [csv_field(label) for label in ev.node_labels]
    write_csv_columns(path, ["label", "id"], [labels, np.arange(len(labels))])


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

    The storage is ``codes``, the ascending unique int64 key codes
    ``(i * n + j) * K + k - 1`` of the stored-orientation keys (i, j, k), and
    ``values``, their counts (each >= 1). Both must not change after
    construction: the indexes behind ``degrees`` and ``neighbors`` are built
    from them on first use.
    """

    n: int
    K: int
    directed: bool
    codes: np.ndarray
    values: np.ndarray
    _degrees: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _adjacency: Optional[tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False
    )

    def _code(self, i, j, k):
        return (i * self.n + j) * self.K + (k - 1)

    def _triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, k0) of every stored key, in code order (k0 0-based)."""
        pair, k0 = np.divmod(self.codes, self.K)
        return *np.divmod(pair, self.n), k0

    def counts_of(self, i, j, k) -> np.ndarray:
        """Int64 counts N_ij(I_k) for broadcast (i, j, k) arrays, k 1-based;
        0 for a triplet with no events or out of range."""
        i, j, k = np.broadcast_arrays(
            np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64),
            np.asarray(k, dtype=np.int64),
        )
        if not self.directed:
            i, j = np.minimum(i, j), np.maximum(i, j)
        codes, values = self.codes, self.values
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

    def active_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) arrays of the pairs active in some interval, ascending (i, j)."""
        # codes ascend, so their pair codes do too
        return np.divmod(distinct_sorted(self.codes // self.K), self.n)

    def pairs_active_in(self, k: int) -> set[Pair]:
        i, j, k0 = self._triplets()
        sel = k0 == k - 1
        return set(zip(i[sel].tolist(), j[sel].tolist()))

    @property
    def degrees(self) -> np.ndarray:
        """(n, K) int64 table of deg(i, k), column k-1 for interval k."""
        if self._degrees is None:
            i, j, k0 = self._triplets()
            slots = np.concatenate([i * self.K + k0, j * self.K + k0])
            weights = np.tile(self.values, 2).astype(np.float64)  # exact below 2**53
            deg = np.bincount(slots, weights=weights, minlength=self.n * self.K)
            self._degrees = deg.astype(np.int64).reshape(self.n, self.K)
        return self._degrees

    def degree(self, i: int, k: int) -> int:
        return int(self.degrees[i, k - 1])

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Per (node, interval) neighbor lists in CSR form ``(indptr, nbr)``.

        The neighbors of node i in interval k are ``nbr[indptr[s]:indptr[s+1]]``
        with ``s = i * K + k - 1``, ascending: every j with N_ij(I_k) >= 1,
        where a directed tensor counts only the stored (i, j) orientation.
        """
        if self._adjacency is None:
            a, b, k0 = self._triplets()
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
    codes = (ev.src * ev.n + ev.dst) * part.K + (np.atleast_1d(ks) - 1)
    codes, values = np.unique(codes, return_counts=True)
    return CountTensor(n=ev.n, K=part.K, directed=ev.directed, codes=codes, values=values)


def pair_rows(codes: np.ndarray, n: int) -> np.ndarray:
    """Pair codes i * n + j as an (m, 2) int64 array of (i, j) rows, in code order."""
    return np.stack(np.divmod(codes, n), axis=1)


def pair_codes(pairs: Iterable[Pair] | np.ndarray, n: int, directed: bool) -> np.ndarray:
    """The ascending distinct int64 codes i * n + j of a pair set.

    ``pairs`` is any iterable of (i, j) pairs or an (m, 2) integer array; an
    undirected pair is coded in the stored orientation i < j. Raises
    ValueError at the first pair, in iteration order, that names a node
    outside 0..n-1: its code would alias another pair's.
    """
    if isinstance(pairs, np.ndarray) and pairs.dtype.kind in "iu" and pairs.shape[1:] == (2,):
        arr = pairs.astype(np.int64, copy=False)
    else:
        arr = np.fromiter(itertools.chain.from_iterable(pairs), np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((arr < 0) | (arr >= n)).any(axis=1))
    if bad.size:
        a, b = arr[bad[0]].tolist()
        raise ValueError(f"pair ({a}, {b}) names a node outside 0..{n - 1}")
    i, j = arr[:, 0], arr[:, 1]
    if not directed:
        i, j = np.minimum(i, j), np.maximum(i, j)
    return unique_codes(i * n + j)


@dataclass(frozen=True, eq=False)
class EdgeSplit:
    """Disjoint train/validation/test sets of unique interacting pairs.

    Each part is stored as the ascending int64 codes i * n + j of its
    stored-orientation pairs (``train_codes``, ``val_codes``,
    ``test_codes``); ``pair_rows`` turns them into (m, 2) arrays. ``train``,
    ``val``, ``test`` and ``held_out()`` are frozenset views of (i, j)
    tuples, built on first use and kept. The code arrays must not change.
    """

    n: int
    train_codes: np.ndarray
    val_codes: np.ndarray
    test_codes: np.ndarray
    seed: int

    def _key(self):
        return (self.n, self.seed, self.train_codes.tobytes(), self.val_codes.tobytes(),
                self.test_codes.tobytes())

    def __eq__(self, other):
        if not isinstance(other, EdgeSplit):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _view(self, codes: np.ndarray) -> frozenset[Pair]:
        i, j = np.divmod(codes, self.n)
        return frozenset(zip(i.tolist(), j.tolist()))

    @functools.cached_property
    def train(self) -> frozenset[Pair]:
        return self._view(self.train_codes)

    @functools.cached_property
    def val(self) -> frozenset[Pair]:
        return self._view(self.val_codes)

    @functools.cached_property
    def test(self) -> frozenset[Pair]:
        return self._view(self.test_codes)

    @functools.cached_property
    def held_out_codes(self) -> np.ndarray:
        """Ascending codes of the validation and test pairs together."""
        return np.sort(np.concatenate([self.val_codes, self.test_codes]))

    def held_out(self) -> frozenset[Pair]:
        return self._held_out

    @functools.cached_property
    def _held_out(self) -> frozenset[Pair]:
        return self._view(self.held_out_codes)


def split_edges(
    ev: EventList, test_frac: float, val_frac: float = 0.0, seed: int = 0
) -> EdgeSplit:
    """Shuffle the unique interacting pairs and cut them by fraction.

    Set sizes are floors of the requested fractions; the split is a
    deterministic function of (pair set, fractions, seed). The pairs are
    shuffled in ascending code order, test first, then validation, then
    train; each part keeps its codes sorted.
    """
    if not (test_frac >= 0 and val_frac >= 0 and test_frac + val_frac < 1):  # NaN fails too
        raise ValueError("need 0 <= test_frac + val_frac < 1")
    # ascending pair codes are the pairs in sorted (i, j) order
    codes = unique_codes(ev.src * ev.n + ev.dst)
    if codes.size < 3:
        raise ValueError(f"need at least 3 unique pairs to split, got {codes.size}")
    shuffled = codes[np.random.default_rng(seed).permutation(codes.size)]
    n_test = int(codes.size * test_frac)
    n_val = int(codes.size * val_frac)
    return EdgeSplit(
        n=ev.n,
        train_codes=np.sort(shuffled[n_test + n_val :]),
        val_codes=np.sort(shuffled[n_test : n_test + n_val]),
        test_codes=np.sort(shuffled[:n_test]),
        seed=seed,
    )
