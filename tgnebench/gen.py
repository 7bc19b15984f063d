"""Seeded block-model event generator for the benchmark's inputs.

Numpy only, and independent of ``tgne.simulate`` on purpose: a change to the
package's own simulator must not change what the benchmark reads. The
scenario is the paper's fixture shape: two equal communities over three equal
segments of [0, 1], with node 0 in community 0, then alone, then in
community 1. Every unordered pair draws a Poisson number of events per
segment (``intra`` inside a community, ``inter`` across), with timestamps
uniform inside the segment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_SEGMENTS = 3
HEADER = "source,dest,timestamp\n"


@dataclass(frozen=True)
class Sbm:
    n: int
    intra: float
    inter: float


def memberships(n: int) -> np.ndarray:
    """(n, 3) cluster ids: halves 0 / 1, node 0 switching 0 -> 2 -> 1."""
    lab = np.where(np.arange(n) < n // 2, 0, 1)
    out = np.repeat(lab[:, None], N_SEGMENTS, axis=1)
    out[0] = (0, 2, 1)
    return out


def generate(spec: Sbm, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Events (src, dst, time) sorted by time; a pure function of (spec, seed)."""
    rng = np.random.default_rng(seed)
    lab = memberships(spec.n)
    iu, ju = np.triu_indices(spec.n, k=1)
    src, dst, t = [], [], []
    for s in range(N_SEGMENTS):
        rate = np.where(lab[iu, s] == lab[ju, s], spec.intra, spec.inter)
        counts = rng.poisson(rate)
        total = int(counts.sum())
        # (0, 1] avoids a timestamp exactly on a segment boundary
        u = 1.0 - rng.random(total)
        src.append(np.repeat(iu, counts))
        dst.append(np.repeat(ju, counts))
        t.append((s + u) / N_SEGMENTS)
    src, dst, t = np.concatenate(src), np.concatenate(dst), np.concatenate(t)
    order = np.argsort(t, kind="stable")
    return src[order], dst[order], t[order]


def to_csv(src: np.ndarray, dst: np.ndarray, t: np.ndarray) -> bytes:
    """Events as `source,dest,timestamp` CSV bytes, times in shortest repr."""
    rows = [f"{a},{b},{x!r}" for a, b, x in zip(src.tolist(), dst.tolist(), t.tolist())]
    return (HEADER + "\n".join(rows) + "\n").encode("ascii")


def write_events(spec: Sbm, seed: int, path: Path) -> dict:
    """Write the events CSV; return its sha256 and its event and node counts."""
    src, dst, t = generate(spec, seed)
    data = to_csv(src, dst, t)
    Path(path).write_bytes(data)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "events": int(src.size),
        "nodes": int(np.union1d(src, dst).size),
    }
