"""Synthetic continuous-time networks from a piecewise-constant block model.

Time is cut into segments; each node has a cluster per segment, and every
unordered pair draws a Poisson number of events per segment at a rate set by
the two clusters, with timestamps uniform inside the segment. The default
scenario has 60 nodes in two communities and one switcher: node 0 leaves the
first community for a singleton cluster in the middle segment and joins the
second community in the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .events import EventList, write_csv_columns


@dataclass
class SbmSpec:
    """Block-model scenario: segment layout, memberships, rates, seed.

    ``membership(node, segment)`` gives the cluster of a node in a 0-based
    segment; ``rate(c1, c2)`` the expected events per pair per segment.
    """

    n: int
    segments: tuple[tuple[float, float], ...]
    membership: Callable[[int, int], int]
    rate: Callable[[int, int], float]
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two nodes")
        prev_end = 0.0
        for start, end in self.segments:
            if start != prev_end or end <= start:
                raise ValueError("segments must partition [0, 1] in order")
            prev_end = end
        if prev_end != 1.0:
            raise ValueError("segments must end at 1")

    @property
    def n_segments(self) -> int:
        return len(self.segments)


def default_sbm_spec(
    n: int = 60, intra_rate: float = 8.0, inter_rate: float = 0.3, seed: int = 0
) -> SbmSpec:
    """Two communities over three equal segments with node 0 switching.

    Node 0's labels across segments are (C0, C2, C1): it starts in the first
    community, spends the middle segment alone in cluster 2, then joins the
    second community.
    """
    if not (0 <= intra_rate < np.inf and 0 <= inter_rate < np.inf):
        raise ValueError(f"rates must be finite and >= 0, got {intra_rate} and {inter_rate}")
    half = n // 2

    def membership(node: int, segment: int) -> int:
        if node == 0:
            return (0, 2, 1)[segment]
        return 0 if node < half else 1

    def rate(c1: int, c2: int) -> float:
        return intra_rate if c1 == c2 else inter_rate

    segments = ((0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0))
    return SbmSpec(n=n, segments=segments, membership=membership, rate=rate, seed=seed)


@dataclass(eq=False)
class SbmSample:
    """Generated events plus the ground truth behind them."""

    events: EventList
    labels: np.ndarray  # (n, n_segments) cluster ids
    segment_counts: dict[tuple[int, int, int], int]  # (i, j, segment) -> count


def sbm_generate(spec: SbmSpec) -> SbmSample:
    """Draw a network from the block model; deterministic under spec.seed.

    Counts are Poisson with the pair's segment rate, timestamps uniform and
    strictly inside the segment. The exact per-pair per-segment counts are
    returned for downstream consistency checks.
    """
    rng = np.random.default_rng(spec.seed)
    labels = np.asarray(
        [[spec.membership(i, s) for s in range(spec.n_segments)] for i in range(spec.n)],
        dtype=np.int64,
    )
    iu, ju = np.triu_indices(spec.n, k=1)
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    times: list[np.ndarray] = []
    segment_counts: dict[tuple[int, int, int], int] = {}
    for s, (start, end) in enumerate(spec.segments):
        lab = labels[:, s]
        rate_of: dict[tuple[int, int], float] = {}
        for c1 in np.unique(lab).tolist():
            for c2 in np.unique(lab).tolist():
                r = spec.rate(c1, c2)
                if r < 0:
                    raise ValueError(f"negative rate for clusters ({c1}, {c2}) in segment {s}")
                rate_of[(c1, c2)] = r
        rates = np.asarray([rate_of[(int(lab[a]), int(lab[b]))] for a, b in zip(iu, ju)])
        counts = rng.poisson(rates)
        for a, b, c in zip(iu.tolist(), ju.tolist(), counts.tolist()):
            if c:
                segment_counts[(a, b, s)] = c
        total = int(counts.sum())
        if total == 0:
            continue
        u = rng.random(total)
        # u = 0 would land exactly on the segment start; redraw
        while np.any(u == 0.0):
            u[u == 0.0] = rng.random(int((u == 0.0).sum()))
        srcs.append(np.repeat(iu, counts))
        dsts.append(np.repeat(ju, counts))
        times.append(start + u * (end - start))

    if times:
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        t = np.concatenate(times)
        order = np.argsort(t, kind="stable")
        src, dst, t = src[order], dst[order], t[order]
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        t = np.empty(0, dtype=np.float64)

    events = EventList(src=src, dst=dst, time=t, n=spec.n, directed=False)
    return SbmSample(events=events, labels=labels, segment_counts=segment_counts)


def write_labels_csv(sample: SbmSample, path) -> None:
    """Ground-truth memberships as `node,segment,cluster` (segment 1-based)."""
    n, n_seg = sample.labels.shape
    write_csv_columns(
        path, ["node", "segment", "cluster"],
        [np.repeat(np.arange(n), n_seg), np.tile(np.arange(1, n_seg + 1), n),
         sample.labels.ravel()],
    )
