import dataclasses

import numpy as np
import pytest

from tgne import inference
from tgne.events import EventList
from tgne.model import cumulative_rate_closed, log_rate
from tgne.simulate import default_sbm_spec, sbm_generate


@pytest.fixture(scope="session")
def sbm_sample():
    """Default 60-node, 3-segment block-model fixture."""
    return sbm_generate(default_sbm_spec(seed=1))


@pytest.fixture(scope="session")
def ten_node_events():
    """Small deterministic history on 10 nodes for sampling tests."""
    return random_events(n=10, m=40, seed=7)


def random_events(n: int, m: int, seed: int, directed: bool = False) -> EventList:
    """Uniform random event history (helper shared across test modules)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=3 * m)
    dst = rng.integers(0, n, size=3 * m)
    keep = src != dst
    src, dst = src[keep][:m], dst[keep][:m]
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    t = np.sort(rng.random(src.size))
    return EventList(src=src, dst=dst, time=t, n=n, directed=directed)


def realize_each_plan(monkeypatch, realize):
    """Make inference.fit realize every plan, the static one and each epoch's,
    through ``realize(ev, part, plan)`` instead of building a plan's fixed
    part once and drawing from it."""
    monkeypatch.setattr(inference, "realize_plan", realize)
    monkeypatch.setattr(inference, "fixed_terms", lambda ev, part, plan: (ev, part, plan))
    monkeypatch.setattr(inference, "draw_terms", lambda fixed, seed: realize(
        fixed[0], fixed[1], dataclasses.replace(fixed[2], seed=seed)))


def cumulative_rate_riemann(cfg, rm, i, j, k, R):
    """Oracle: left-Riemann Lambda_ij(I_k) with R equal sub-steps (k 1-based)."""
    a, b = cfg.part.bounds(k)
    s = np.arange(R) / R
    zi = (1.0 - s)[:, None] * cfg.z[i, k - 1] + s[:, None] * cfg.z[i, k]
    zj = (1.0 - s)[:, None] * cfg.z[j, k - 1] + s[:, None] * cfg.z[j, k]
    if rm.kind == "euclidean":
        log_rate = rm.beta - ((zi - zj) ** 2).sum(axis=1)
    else:
        log_rate = rm.beta + (zi * zj).sum(axis=1)
    return float((b - a) * np.exp(log_rate).mean())


def posterior_draws(vs, rng, B, size, values_at):
    """Oracle: mean and population std of ``values_at(z)`` over B draws
    z = mu + sigma * eps of the mean-field posterior, eps from ``rng``;
    ``values_at`` maps a configuration to ``size`` values."""
    sigma3 = vs.sigma[:, :, None]
    total = np.zeros(size)
    total_sq = np.zeros(size)
    for _ in range(B):
        values = values_at(vs.mu + sigma3 * rng.standard_normal(vs.mu.shape))
        total += values
        total_sq += values * values
    mean = total / B
    return mean, np.sqrt(np.maximum(total_sq / B - mean * mean, 0.0))


def canonical_pair(i: int, j: int, directed: bool) -> tuple[int, int]:
    """The stored orientation of a pair: sorted unless directed."""
    if directed or i < j:
        return (i, j)
    return (j, i)


def pair_times(ev, i: int, j: int) -> np.ndarray:
    """Oracle: event times of the pair (i, j), in stored orientation."""
    a, b = canonical_pair(i, j, ev.directed)
    return ev.time[(ev.src == a) & (ev.dst == b)]


def counts_dict(counts) -> dict:
    """Oracle: a CountTensor as a dict from stored-orientation keys (i, j, k) to counts."""
    pair, k0 = np.divmod(counts.codes, counts.K)
    i, j = np.divmod(pair, counts.n)
    return dict(zip(zip(i.tolist(), j.tolist(), (k0 + 1).tolist()), counts.values.tolist()))


def pair_interval_nll(cfg, rm, i, j, k, times):
    """Oracle: Lambda_ij(I_k) - sum_t log lambda_ij(t) for the pair's events in I_k."""
    a, b = cfg.part.bounds(k)
    times = np.asarray(times, dtype=np.float64)
    if times.size and (times.min() < a or times.max() > b):
        raise ValueError(f"event times must lie in interval {k} = [{a}, {b}]")
    lam = cumulative_rate_closed(cfg, rm, i, j, k)
    return lam - sum(log_rate(cfg, rm, i, j, float(t)) for t in times)
