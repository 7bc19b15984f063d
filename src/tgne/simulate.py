"""Synthetic continuous-time networks: the paper's switching-community scenario.

[0, 1] is cut into three equal segments. ``n`` nodes form two communities,
the first ``n // 2`` and the rest, except node 0: it starts in the first
community, spends the middle segment alone in cluster 2, and joins the second
community in the last. Every unordered pair draws a Poisson number of events
per segment, at ``intra_rate`` when the two nodes share a cluster and
``inter_rate`` otherwise, with timestamps uniform inside the segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EventList, write_csv_columns

_CUTS = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)  # segment boundaries
_SWITCHER_CLUSTERS = (0, 2, 1)  # node 0's cluster in each segment


@dataclass(frozen=True)
class SbmSpec:
    """Size, expected events per pair per segment, and seed of the scenario."""

    n: int = 60
    intra_rate: float = 8.0
    inter_rate: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two nodes")
        if not (0 <= self.intra_rate < np.inf and 0 <= self.inter_rate < np.inf):
            raise ValueError(
                f"rates must be finite and >= 0, got {self.intra_rate} and {self.inter_rate}"
            )


@dataclass(eq=False)
class SbmSample:
    """Generated events plus the ground truth behind them."""

    events: EventList
    labels: np.ndarray  # (n, 3) cluster ids, one column per segment
    segment_counts: dict[tuple[int, int, int], int]  # (i, j, segment) -> count, nonzero only


def sbm_generate(spec: SbmSpec) -> SbmSample:
    """Draw a network from the scenario; deterministic under spec.seed.

    Each segment draws its pair counts with one ``rng.poisson`` call over the
    pairs in ``np.triu_indices`` order, then their timestamps with
    ``rng.random``, strictly inside the segment. The exact per-pair
    per-segment counts are returned for downstream consistency checks.
    """
    rng = np.random.default_rng(spec.seed)
    labels = np.repeat((np.arange(spec.n) >= spec.n // 2)[:, None], 3, axis=1).astype(np.int64)
    labels[0] = _SWITCHER_CLUSTERS
    iu, ju = np.triu_indices(spec.n, k=1)
    srcs, dsts, times = [], [], []
    segment_counts: dict[tuple[int, int, int], int] = {}
    for s, (start, end) in enumerate(zip(_CUTS[:-1], _CUTS[1:])):
        lab = labels[:, s]
        counts = rng.poisson(np.where(lab[iu] == lab[ju], spec.intra_rate, spec.inter_rate))
        nz = np.flatnonzero(counts)
        for a, b, c in zip(iu[nz].tolist(), ju[nz].tolist(), counts[nz].tolist()):
            segment_counts[(a, b, s)] = c
        u = rng.random(int(counts.sum()))  # a draw of no values leaves the stream as it is
        # u = 0 would land exactly on the segment start; redraw
        while np.any(u == 0.0):
            u[u == 0.0] = rng.random(int((u == 0.0).sum()))
        srcs.append(np.repeat(iu, counts))
        dsts.append(np.repeat(ju, counts))
        times.append(start + u * (end - start))

    t = np.concatenate(times)
    order = np.argsort(t, kind="stable")
    src, dst = np.concatenate(srcs)[order], np.concatenate(dsts)[order]
    events = EventList(src=src, dst=dst, time=t[order], n=spec.n, directed=False)
    return SbmSample(events=events, labels=labels, segment_counts=segment_counts)


def write_labels_csv(sample: SbmSample, path) -> None:
    """Ground-truth memberships as `node,segment,cluster` (segment 1-based)."""
    n, n_seg = sample.labels.shape
    write_csv_columns(
        path, ["node", "segment", "cluster"],
        [np.repeat(np.arange(n), n_seg), np.tile(np.arange(1, n_seg + 1), n),
         sample.labels.ravel()],
    )
