import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from tgne import evaluation, inference
from tgne.events import EventList
from tgne.model import (
    EUCLIDEAN,
    SURVIVAL_BLOCK,
    _closed_coeffs,
    _dot_coeffs,
    cumulative_rate_closed,
    log_rate,
)
from tgne.simulate import SbmSpec, sbm_generate


def load_script(name: str):
    """Import ``scripts/<name>.py`` of this checkout as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def sbm_sample():
    """Default 60-node, 3-segment block-model fixture."""
    return sbm_generate(SbmSpec(seed=1))


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


def tuple_list_split(ev: EventList, test_frac: float, val_frac: float, seed: int):
    """Oracle: ``split_edges`` as a shuffled list of (i, j) tuples cut into
    frozensets. Returns (train, val, test, the generator's state after it)."""
    pi, pj = np.divmod(np.unique(ev.src * ev.n + ev.dst), ev.n)
    rng = np.random.default_rng(seed)
    order = rng.permutation(pi.size)
    shuffled = list(zip(pi[order].tolist(), pj[order].tolist()))
    n_test = int(pi.size * test_frac)
    n_val = int(pi.size * val_frac)
    return (
        frozenset(shuffled[n_test + n_val :]),
        frozenset(shuffled[n_test : n_test + n_val]),
        frozenset(shuffled[:n_test]),
        rng.bit_generator.state,
    )


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


def lsdm_nll_grad(z: np.ndarray, beta: float, ii, jj, y):
    """``evaluation._lsdm_objective`` unpacked: the Bernoulli NLL of
    p = logistic(beta - |z_i - z_j|^2) over the pairs (ii, jj) with labels y,
    and its gradients in z (n, d) and beta."""
    n, d = z.shape
    index = np.concatenate([ii, jj]) + n * np.arange(d)[:, None]
    nll, grad = evaluation._lsdm_objective(np.append(z.T, beta), index, 1.0 - 2.0 * y)
    return nll, grad[:-1].reshape(d, n).T, float(grad[-1])


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


def _pair_major_cut_gradient(G, sl, c, p, q, r, xa, xb):
    """Per-cut gradient of coordinate c: interval k's a-end and interval k-1's b-end."""
    Gc = G[sl, c]
    Gc[:, :-1] = p * xa + q * xb
    Gc[:, -1] = 0.0
    Gc[:, 1:] += q * xa + r * xb


def pair_major_kernel(z, beta, kind, lengths, terms, want_grad):
    """Oracle: ``model._kernel`` in its pair-major layout, bit for bit.

    Each block gathers a latent coordinate as a (pairs, K+1) array, so an
    interval's ends are the strided columns x[:, :-1] and x[:, 1:]; events
    are placed with ``np.add.at`` on the block's (pairs, K) cells. The
    package's cut-major kernel must reproduce its value, Q and dz exactly.
    """
    n, kp1, d = z.shape
    K = kp1 - 1
    P = terms.pair_i.size
    zc = z.transpose(2, 0, 1).copy()  # (d, n, K+1)
    euclid = kind == EUCLIDEAN
    W, S1, S2 = terms.ev_w0, terms.ev_w1, terms.ev_w2
    abc = (W - 2.0 * S1 + S2, S1 - S2, S2)
    grad_abc = [(2.0 if euclid else -1.0) * x for x in abc] if want_grad else None
    bounds = np.searchsorted(terms.ev_cell, np.arange(0, P + SURVIVAL_BLOCK, SURVIVAL_BLOCK) * K)
    if want_grad:
        G_i = np.empty((P, d, kp1))
        G_j = None if euclid else np.empty((P, d, kp1))
    lam_sum = quad = 0.0
    for b, a in enumerate(range(0, P, SURVIVAL_BLOCK)):
        sl = slice(a, a + SURVIVAL_BLOCK)
        pi = terms.pair_i[sl]
        pj = terms.pair_j[sl]
        wlen = terms.pair_w[sl, None] * lengths
        if euclid:
            D = [x.take(pi, axis=0) - x.take(pj, axis=0) for x in zc]
            c0 = dav = w2 = 0.0
            for x in D:
                xa, xb = x[:, :-1], x[:, 1:]
                v = xa - xb
                c0 = c0 + xa * xa
                dav = dav + xa * v
                w2 = w2 + v * v
            lam, p, q, r = _closed_coeffs(c0, dav, w2, c0 - dav, wlen, beta, want_grad)
        else:
            Zi = [x.take(pi, axis=0) for x in zc]
            Zj = [x.take(pj, axis=0) for x in zc]
            caa = cbb = cab = 0.0
            for xi, xj in zip(Zi, Zj):
                prod = xi * xj
                caa = caa + prod[:, :-1]
                cbb = cbb + prod[:, 1:]
                cab = cab + (xi[:, :-1] * xj[:, 1:] + xi[:, 1:] * xj[:, :-1])
            lam, p, q, r = _dot_coeffs(caa, 0.5 * cab, cbb, beta, wlen, want_grad)
        lam_sum += float(lam.sum())
        g = slice(bounds[b], bounds[b + 1])
        if g.stop > g.start:
            cells = terms.ev_cell[g] - a * K  # flat indices into the block's (rows, K)
            if euclid:
                quad += float(W[g] @ c0.take(cells) - 2.0 * (S1[g] @ dav.take(cells))
                              + S2[g] @ w2.take(cells))
            else:
                quad -= float(abc[0][g] @ caa.take(cells) + abc[1][g] @ cab.take(cells)
                              + abc[2][g] @ cbb.take(cells))
            if want_grad:
                for x, y in zip((p, q, r), grad_abc):
                    np.add.at(x.reshape(-1), cells, y[g])
        if want_grad:
            if euclid:
                for c, x in enumerate(D):
                    _pair_major_cut_gradient(G_i, sl, c, p, q, r, x[:, :-1], x[:, 1:])
            else:
                for c, (xi, xj) in enumerate(zip(Zi, Zj)):
                    _pair_major_cut_gradient(G_i, sl, c, p, q, r, xj[:, :-1], xj[:, 1:])
                    _pair_major_cut_gradient(G_j, sl, c, p, q, r, xi[:, :-1], xi[:, 1:])
    if not want_grad:
        return lam_sum, quad, None
    inc = terms.pair_incidence
    if euclid:
        dz = inc @ G_i.reshape(P, d * kp1)
    else:
        i_end, j_end = inc.copy(), inc.copy()
        i_end.data = np.maximum(inc.data, 0.0)
        j_end.data = np.maximum(-inc.data, 0.0)
        dz = i_end @ G_i.reshape(P, d * kp1) + j_end @ G_j.reshape(P, d * kp1)
    return lam_sum, quad, np.ascontiguousarray(dz.reshape(n, d, kp1).transpose(0, 2, 1))
