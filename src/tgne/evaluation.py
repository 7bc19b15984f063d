"""Reconstruction benchmark (scorers + AUC) and uncertainty analytics.

The reconstruction task asks, for every pair in a split and every interval,
whether the pair interacts inside that interval. Each active (pair, interval)
triplet becomes a positive instance and draws one matched negative uniformly
from the node pairs inactive in that interval; scorers then rank the
instances and are compared by AUC.

Uncertainty analytics summarize the fitted posterior: per-node scales u(i,k),
posterior-predictive spread of cumulative rates across configuration draws,
and its regression against interaction counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Callable, ClassVar, Iterable, Optional, Sequence

import numpy as np
from scipy.special import expit
from scipy.stats import rankdata

from .events import (
    CountTensor,
    EventList,
    IntervalPartition,
    Pair,
    canonical_pair,
    restrict_counts,  # part of this module's API; it works on the code storage
)
from .inference import FittedModel, VariationalState
from .model import (
    EUCLIDEAN,
    _all_pair_arrays,
    _closed_rate_batch,
    _endpoints,
    _riemann_rate_batch,
)


@dataclass
class ScoredInstance:
    """One (pair, interval) classification instance; label 1 iff active."""

    i: int
    j: int
    k: int
    score: float = float("nan")
    label: int = 0


class _Rows:
    """Row access to a dataclass whose fields are equal-length column arrays.

    ``len`` is the row count. Iterating, or indexing with an int, gives rows
    of ``_row``, a class whose fields are the columns in the same order; a
    slice gives the table of the sliced columns.
    """

    _row: ClassVar[type]

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(self._columns()[0])

    def __iter__(self):
        return map(self._row, *(col.tolist() for col in self._columns()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(*(col[index] for col in self._columns()))
        return self._row(*(col[index].item() for col in self._columns()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(self._columns(), other._columns())
        )


@dataclass(eq=False)
class InstanceTable(_Rows):
    """Classification instances as columns; its rows are ``ScoredInstance``s.

    ``score`` is NaN until ``score_instances`` fills it in.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    score: np.ndarray
    label: np.ndarray
    _row: ClassVar[type] = ScoredInstance


def _sorted_pairs(pairs: Iterable[Pair], directed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Stored-orientation pairs as (i, j) arrays in ascending (i, j) order."""
    arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    if not directed:
        arr = np.sort(arr, axis=1)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    return arr[order, 0], arr[order, 1]


def build_instances(
    counts: CountTensor,
    pairs: Iterable[Pair],
    part: IntervalPartition,
    seed: int = 0,
) -> tuple[InstanceTable, dict[int, int]]:
    """Positives from one split, with 1:1 matched negatives per interval.

    Every pair of the split that is active in interval k yields a positive;
    each positive draws one negative uniformly (without replacement within
    the interval) from the node-pair universe restricted to pairs with no
    event in that interval. Returns the instances (per interval, positives
    then negatives, each in ascending (i, j) order) plus a per-interval
    shortfall count for intervals whose negatives ran out.
    """
    pair_i, pair_j = _sorted_pairs(pairs, counts.directed)
    n = counts.n
    universe = n * (n - 1) if counts.directed else n * (n - 1) // 2

    rng = np.random.default_rng(seed)
    blocks: list[tuple[np.ndarray, np.ndarray, int, int]] = []  # (i, j, k, label)
    shortfall: dict[int, int] = {}
    for k in range(1, part.K + 1):
        hit = counts.counts_of(pair_i, pair_j, k) >= 1
        blocks.append((pair_i[hit], pair_j[hit], k, 1))
        n_pos = int(hit.sum())
        active = counts.pairs_active_in(k)
        n_inactive = universe - len(active)
        take = min(n_pos, n_inactive)
        if take < n_pos:
            shortfall[k] = n_pos - take
        if take and n_inactive <= 4 * take:
            # dense interval: enumerate the inactive pairs in (i, j) order and
            # sample directly; sorted picks give the chosen pairs in order
            all_i, all_j = _all_pair_arrays(n, counts.directed)
            free = counts.counts_of(all_i, all_j, k) == 0
            picks = np.sort(rng.choice(n_inactive, size=take, replace=False))
            blocks.append((all_i[free][picks], all_j[free][picks], k, 0))
            continue
        # sparse interval: rejection-sample uniform inactive pairs
        chosen: set[Pair] = set()
        while len(chosen) < take:
            i = int(rng.integers(n))
            j = int(rng.integers(n))
            if i == j:
                continue
            p = canonical_pair(i, j, counts.directed)
            if p in active or p in chosen:
                continue
            chosen.add(p)
        neg = np.asarray(sorted(chosen), dtype=np.int64).reshape(-1, 2)
        blocks.append((neg[:, 0], neg[:, 1], k, 0))

    bi, bj, bk, blabel = zip(*blocks)
    sizes = [b.size for b in bi]
    table = InstanceTable(
        i=np.concatenate(bi), j=np.concatenate(bj), k=np.repeat(bk, sizes),
        score=np.full(sum(sizes), np.nan), label=np.repeat(blabel, sizes),
    )
    return table, shortfall


def auc_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    ranks = rankdata(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(instances: InstanceTable | Sequence[ScoredInstance]) -> float:
    if isinstance(instances, InstanceTable):
        return auc_from_scores(instances.score, instances.label)
    scores = np.asarray([inst.score for inst in instances])
    labels = np.asarray([inst.label for inst in instances])
    return auc_from_scores(scores, labels)


def _lambda_batch(z, beta, kind, part, ii, jj, kk0, riemann_r=10):
    """Cumulative rates for triplet arrays (0-based interval index)."""
    lengths = part.lengths[kk0]
    zi_a, zi_b = _endpoints(z, ii, kk0)
    zj_a, zj_b = _endpoints(z, jj, kk0)
    if kind == EUCLIDEAN:
        lam, _, _ = _closed_rate_batch(zi_a - zj_a, zi_b - zj_b, beta, lengths)
    else:
        lam, _ = _riemann_rate_batch(zi_a, zi_b, zj_a, zj_b, beta, lengths, riemann_r, kind)
    return lam


def check_triplets(fm: FittedModel, ii, jj, kk, lines=None) -> None:
    """Raise ValueError at the first (i, j, k) outside the model's range.

    Node ids must lie in 0..n-1 and k in 1..K. The message names the
    triplet's position, or its entry of ``lines`` (file line numbers).
    """
    n, K = fm.state.n, fm.part.K
    ii, jj, kk = np.asarray(ii), np.asarray(jj), np.asarray(kk)
    bad = np.flatnonzero((ii < 0) | (ii >= n) | (jj < 0) | (jj >= n) | (kk < 1) | (kk > K))
    if bad.size:
        b = int(bad[0])
        where = f"triplet {b}" if lines is None else f"line {lines[b]}"
        raise ValueError(
            f"{where}: (i, j, k) = ({ii[b]}, {jj[b]}, {kk[b]}) is out of range; "
            f"node ids must be in 0..{n - 1} and k in 1..{K}"
        )


def score_tgne(fm: FittedModel, i: int, j: int, k: int) -> float:
    """Expected interactions Lambda_ij(I_k) at the posterior-mean trajectories."""
    return float(score_tgne_many(fm, [i], [j], [k])[0])


def score_tgne_many(fm: FittedModel, ii, jj, kk) -> np.ndarray:
    """``score_tgne`` for triplet arrays; ValueError on an out-of-range triplet."""
    check_triplets(fm, ii, jj, kk)
    return _lambda_batch(
        fm.state.mu, fm.state.beta, fm.hyper.rate_model, fm.part,
        np.asarray(ii), np.asarray(jj), np.asarray(kk) - 1, fm.hyper.riemann_r,
    )


def score_tgne_predictive(
    fm: FittedModel, i: int, j: int, k: int, B: int = 200, seed: int = 0
) -> float:
    """Posterior-predictive mean of Lambda_ij(I_k) over B configuration draws."""
    mean, _ = edge_uncertainty(fm.state, fm.hyper.rate_model, fm.part, i, j, k, B, seed)
    return mean


@dataclass
class LsdmOpts:
    """Optimizer settings for the per-interval binary latent distance fit."""

    iters: int = 800
    lr: float = 0.05
    init_scale: float = 0.1
    seed: int = 0
    grad_tol: float = 1e-4


@dataclass(eq=False)
class LsdmModel:
    z: np.ndarray  # (n, d)
    beta: float
    nll_trace: np.ndarray
    converged: bool


def _lsdm_nll_grad(z: np.ndarray, beta: float, ii, jj, y):
    """Bernoulli NLL of p = logistic(beta - dist^2) and its exact gradient."""
    diff = z.take(ii, axis=0) - z.take(jj, axis=0)
    logits = beta - np.einsum("pd,pd->p", diff, diff)
    p = expit(logits)
    nll = float(-(y * np.log(p + 1e-300) + (1 - y) * np.log(1 - p + 1e-300)).sum())
    resid = p - y
    g_pair = -2.0 * resid[:, None] * diff
    # bincount adds each node's terms in array order: all ii terms, then all jj
    nodes = np.concatenate([ii, jj])
    g_both = np.concatenate([g_pair, -g_pair])
    g_z = np.empty_like(z)
    for c in range(z.shape[1]):
        g_z[:, c] = np.bincount(nodes, weights=g_both[:, c], minlength=z.shape[0])
    return nll, g_z, float(resid.sum())


def fit_lsdm(
    counts: CountTensor,
    train_pairs: Iterable[Pair],
    k: int,
    d: int,
    opts: Optional[LsdmOpts] = None,
) -> LsdmModel:
    """Fit a static binary latent distance model to one interval.

    Maximizes the Bernoulli likelihood of y_ij = 1{N_ij(I_k) >= 1} over the
    training pairs, with p = logistic(beta - ||z_i - z_j||^2), by
    adaptive-moment gradient steps. No temporal coupling: every interval is
    fit independently. Returns the best iterate; warns on non-convergence.
    """
    opts = opts or LsdmOpts()
    ii, jj = _sorted_pairs(train_pairs, counts.directed)
    if ii.size == 0:
        raise ValueError("need at least one training pair")
    y = (counts.counts_of(ii, jj, k) >= 1).astype(np.float64)

    rng = np.random.default_rng(opts.seed)
    n = counts.n
    z = opts.init_scale * rng.standard_normal((n, d))
    beta = 0.0

    m_z = np.zeros_like(z)
    v_z = np.zeros_like(z)
    m_b = v_b = 0.0
    b1, b2, eps_adam = 0.9, 0.999, 1e-8

    best = (np.inf, z.copy(), beta)
    trace = np.empty(opts.iters)
    grad_inf = np.inf
    for t in range(1, opts.iters + 1):
        nll, g_z, g_b = _lsdm_nll_grad(z, beta, ii, jj, y)
        trace[t - 1] = nll
        if nll < best[0]:
            best = (nll, z.copy(), beta)
        grad_inf = max(np.abs(g_z).max(), abs(g_b))

        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        m_z = b1 * m_z + (1 - b1) * g_z
        v_z = b2 * v_z + (1 - b2) * g_z * g_z
        z = z - opts.lr * (m_z / bc1) / (np.sqrt(v_z / bc2) + eps_adam)
        m_b = b1 * m_b + (1 - b1) * g_b
        v_b = b2 * v_b + (1 - b2) * g_b * g_b
        beta = beta - opts.lr * (m_b / bc1) / (np.sqrt(v_b / bc2) + eps_adam)

    converged = grad_inf < opts.grad_tol
    if not converged:
        warnings.warn(
            f"interval {k}: distance-model fit stopped at max iterations "
            f"(grad inf-norm {grad_inf:.3g}); returning best iterate",
            RuntimeWarning,
        )
    _, z_best, beta_best = best
    return LsdmModel(z=z_best, beta=beta_best, nll_trace=trace, converged=converged)


def lsdm_score(model: LsdmModel, i: int, j: int) -> float:
    diff = model.z[i] - model.z[j]
    return float(expit(model.beta - diff @ diff))


def score_pa(counts_train: CountTensor, i: int, j: int, k: int) -> float:
    """Preferential attachment: product of train-degrees in the interval."""
    return float(counts_train.degree(i, k) * counts_train.degree(j, k))


def score_random(rng: np.random.Generator) -> float:
    return float(rng.random())


def node_uncertainty(vs: VariationalState, i: int, k: int) -> float:
    """u(i,k): mean of the interval's two endpoint scales (k 1-based)."""
    K = vs.log_sigma.shape[1] - 1
    if not 1 <= k <= K:
        raise ValueError(f"interval index must be in 1..{K}, got {k}")
    sigma = np.exp(vs.log_sigma[i, k - 1 : k + 1])
    return float(0.5 * (sigma[0] + sigma[1]))


def neighbor_distance(
    fm: FittedModel, counts: CountTensor, i: int, k: int
) -> Optional[float]:
    """Mean distance to interval-k neighbors at the interval midpoint.

    Positions are the mean trajectories interpolated at the midpoint; returns
    None when the node has no neighbors in the interval (undefined). Costs
    O(degree) after the tensor's neighbor index is built.
    """
    neighbors = counts.neighbors(i, k)
    if neighbors.size == 0:
        return None
    mu = fm.state.mu
    mid_i = 0.5 * (mu[i, k - 1, :] + mu[i, k, :])
    mid_nb = 0.5 * (mu[neighbors, k - 1, :] + mu[neighbors, k, :])
    dists = np.linalg.norm(mid_nb - mid_i, axis=1)
    return float(dists.mean())


def node_table(
    fm: FittedModel, counts: CountTensor
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, K) tables of u(i,k), neighbor distance (NaN if undefined) and degree.

    Entry (i, k-1) equals ``node_uncertainty``, ``neighbor_distance`` and
    ``counts.degree`` at (i, k) bit for bit; the distances come from one pass
    over the tensor's neighbor index.
    """
    sigma = fm.state.sigma
    u = 0.5 * (sigma[:, :-1] + sigma[:, 1:])
    mu = fm.state.mu
    mid = 0.5 * (mu[:, :-1, :] + mu[:, 1:, :])  # (n, K, d)
    K = counts.K
    indptr, nbr = counts.adjacency()
    slots = np.repeat(np.arange(counts.n * K), np.diff(indptr))
    node, k0 = np.divmod(slots, K)
    dists = np.linalg.norm(mid[nbr, k0] - mid[node, k0], axis=1)
    nd = np.full(counts.n * K, np.nan)
    # a per-segment mean(): np.add.reduceat sums in another order
    for s in np.flatnonzero(np.diff(indptr)).tolist():
        nd[s] = dists[indptr[s] : indptr[s + 1]].mean()
    return u, nd.reshape(counts.n, K), counts.degrees


def _posterior_draws(
    vs: VariationalState,
    rng: np.random.Generator,
    B: int,
    size: int,
    values_at: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of ``values_at(z)`` over B configuration draws.

    Each draw is z = mu + sigma * eps with eps from ``rng``; ``values_at``
    maps a configuration to ``size`` values.
    """
    sigma3 = vs.sigma[:, :, None]
    total = np.zeros(size)
    total_sq = np.zeros(size)
    for _ in range(B):
        z = vs.mu + sigma3 * rng.standard_normal(vs.mu.shape)
        values = values_at(z)
        total += values
        total_sq += values * values
    mean = total / B
    var = np.maximum(total_sq / B - mean * mean, 0.0)
    return mean, np.sqrt(var)


def _posterior_lambda_draws(
    vs: VariationalState,
    rm_kind: str,
    part: IntervalPartition,
    ii: np.ndarray,
    jj: np.ndarray,
    kk0: np.ndarray,
    B: int,
    seed: int,
    riemann_r: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of Lambda over B shared configuration draws."""
    return _posterior_draws(
        vs, np.random.default_rng(seed), B, ii.shape[0],
        lambda z: _lambda_batch(z, vs.beta, rm_kind, part, ii, jj, kk0, riemann_r),
    )


def edge_uncertainty(
    vs: VariationalState,
    rm_kind: str,
    part: IntervalPartition,
    i: int,
    j: int,
    k: int,
    B: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Posterior-predictive mean and std (divisor B) of Lambda_ij(I_k)."""
    if B < 2:
        raise ValueError("B must be >= 2")
    mean, std = _posterior_lambda_draws(
        vs, rm_kind, part, np.asarray([i]), np.asarray([j]), np.asarray([k - 1]), B, seed
    )
    return float(mean[0]), float(std[0])


def regression_slope_from_points(
    n_values: np.ndarray, stds: np.ndarray, per_unique_n: bool = True
) -> float:
    """OLS slope of uncertainty against interaction count.

    With ``per_unique_n`` the regression points are the mean std over each
    unique count value (one point per distinct N); otherwise the raw points.
    """
    n_values = np.asarray(n_values, dtype=np.float64)
    stds = np.asarray(stds, dtype=np.float64)
    if np.unique(n_values).size < 2:
        raise ValueError("regression needs at least two distinct interaction counts")
    if per_unique_n:
        xs = np.unique(n_values)
        ys = np.asarray([stds[n_values == x].mean() for x in xs])
    else:
        xs, ys = n_values, stds
    slope, _intercept = np.polyfit(xs, ys, 1)
    return float(slope)


def uncertainty_regression(
    vs: VariationalState,
    counts: CountTensor,
    rm_kind: str,
    part: IntervalPartition,
    B: int = 200,
    seed: int = 0,
    per_unique_n: bool = True,
) -> float:
    """OLS slope of posterior Std(Lambda_ij(I_k)) against N_ij(I_k).

    The population is every (pair, interval) with the pair taken from the
    given counts (pass a train-restricted tensor to stay on training data),
    including the pair's zero-count intervals. By default the regression runs
    on per-unique-N averages of the std; ``per_unique_n=False`` uses the raw
    (N, std) points instead.
    """
    pi, pj = counts.active_pair_arrays()
    if not pi.size:
        raise ValueError("counts contain no active pairs")
    K = part.K
    ii, jj = pi.repeat(K), pj.repeat(K)
    kk0 = np.tile(np.arange(K), pi.size)
    _, stds = _posterior_lambda_draws(vs, rm_kind, part, ii, jj, kk0, B, seed)
    n_events = counts.counts_of(ii, jj, kk0 + 1).astype(np.float64)
    return regression_slope_from_points(n_events, stds, per_unique_n=per_unique_n)


@dataclass
class RateRecord:
    """One row of the rate-vs-uncertainty table."""

    i: int
    j: int
    t: float
    k: int
    is_negative: bool
    rate: float
    rate_std: float
    n_events: int


@dataclass(eq=False)
class RateTable(_Rows):
    """The rate-vs-uncertainty table as columns; its rows are ``RateRecord``s."""

    i: np.ndarray
    j: np.ndarray
    t: np.ndarray
    k: np.ndarray
    is_negative: np.ndarray
    rate: np.ndarray
    rate_std: np.ndarray
    n_events: np.ndarray
    _row: ClassVar[type] = RateRecord


def _swapped_destinations(
    src: np.ndarray, dst: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """For each (i, j), a uniform destination in 0..n-1 other than i and j.

    One draw in 0..n-3 per pair, shifted past min(i, j) and then past
    max(i, j): the same stream and picks as indexing the sorted candidates.
    """
    if n < 3:
        raise ValueError(
            f"a swapped-destination negative needs n >= 3 nodes, got n={n}"
        )
    picks = rng.integers(n - 2, size=src.shape[0])
    picks += picks >= np.minimum(src, dst)
    picks += picks >= np.maximum(src, dst)
    return picks


def rate_vs_uncertainty_table(
    ev: EventList,
    vs: VariationalState,
    rm_kind: str,
    part: IntervalPartition,
    B: int = 200,
    seed: int = 0,
) -> RateTable:
    """Per-event rates and posterior rate spread, with matched negatives.

    For each event (i, j, t) two records are emitted: the event itself and a
    negative with the destination swapped to a uniform random node j' with
    j' != i and (i, j') != (i, j), which needs n >= 3. The events come first,
    in event order, then their negatives in the same order. ``rate`` is
    lambda at the posterior-mean configuration; ``rate_std`` is the
    population std over B posterior draws; ``n_events`` tags the record's
    pair count in the containing interval.
    """
    if ev.m == 0:
        ints, floats = np.empty(0, dtype=np.int64), np.empty(0)
        return RateTable(ints, ints, floats, ints, np.empty(0, dtype=bool), floats, floats, ints)
    from .events import interval_counts  # local import to avoid cycle at module load

    counts = interval_counts(ev, part)
    rng = np.random.default_rng(seed)
    k1, s = part.local_coord(ev.time)
    k1 = np.atleast_1d(k1)
    s = np.atleast_1d(s)

    neg_j = _swapped_destinations(ev.src, ev.dst, ev.n, rng)

    ii = np.concatenate([ev.src, ev.src])
    jj = np.concatenate([ev.dst, neg_j])
    tt = np.concatenate([ev.time, ev.time])
    kk0 = np.concatenate([k1 - 1, k1 - 1])
    ss = np.concatenate([s, s])
    is_neg = np.concatenate([np.zeros(ev.m, bool), np.ones(ev.m, bool)])

    def rates_at(z):
        om = (1.0 - ss)[:, None]
        sc = ss[:, None]
        zi_a, zi_b = _endpoints(z, ii, kk0)
        zj_a, zj_b = _endpoints(z, jj, kk0)
        pi = om * zi_a + sc * zi_b
        pj = om * zj_a + sc * zj_b
        if rm_kind == EUCLIDEAN:
            diff = pi - pj
            return np.exp(vs.beta - np.einsum("md,md->m", diff, diff))
        return np.exp(vs.beta + np.einsum("md,md->m", pi, pj))

    rate_mean_cfg = rates_at(vs.mu)
    _, std = _posterior_draws(vs, rng, B, ii.shape[0], rates_at)
    n_events = counts.counts_of(ii, jj, kk0 + 1)
    return RateTable(
        i=ii, j=jj, t=tt, k=kk0 + 1, is_negative=is_neg, rate=rate_mean_cfg,
        rate_std=std, n_events=n_events,
    )


SCORER_NAMES = ("tgne", "tgne_predictive", "lsdm", "pa", "random")


def score_instances(
    instances: InstanceTable,
    scorer: str,
    fm: Optional[FittedModel] = None,
    train_counts: Optional[CountTensor] = None,
    lsdm_models: Optional[dict[int, LsdmModel]] = None,
    seed: int = 0,
    B: int = 200,
) -> InstanceTable:
    """Return the instances with the named scorer's ``score`` column.

    ``tgne`` and ``tgne_predictive`` need ``fm``, ``lsdm`` needs
    ``lsdm_models`` (one model per interval) and ``pa`` needs
    ``train_counts``.
    """
    if scorer not in SCORER_NAMES:
        raise ValueError(f"unknown scorer {scorer!r}; choose from {SCORER_NAMES}")
    needed = {"tgne": ("fm", fm), "tgne_predictive": ("fm", fm),
              "lsdm": ("lsdm_models", lsdm_models), "pa": ("train_counts", train_counts)}
    if scorer in needed and needed[scorer][1] is None:
        raise ValueError(f"scorer {scorer!r} needs the {needed[scorer][0]} argument")
    if len(instances) == 0:
        return replace(instances, score=np.empty(0))
    ii, jj, kk = instances.i, instances.j, instances.k
    if scorer == "tgne":
        scores = score_tgne_many(fm, ii, jj, kk)
    elif scorer == "tgne_predictive":
        scores, _ = _posterior_lambda_draws(
            fm.state, fm.hyper.rate_model, fm.part, ii, jj, kk - 1, B, seed,
            fm.hyper.riemann_r,
        )
    elif scorer == "lsdm":
        # the gathered form of lsdm_score; np.vecdot matches its diff @ diff
        scores = np.empty(len(instances))
        for k in np.unique(kk).tolist():
            sel = kk == k
            model = lsdm_models[k]
            diff = model.z[ii[sel]] - model.z[jj[sel]]
            scores[sel] = expit(model.beta - np.vecdot(diff, diff))
    elif scorer == "pa":
        deg = train_counts.degrees
        scores = (deg[ii, kk - 1] * deg[jj, kk - 1]).astype(np.float64)
    else:
        rng = np.random.default_rng(seed)
        scores = rng.random(len(instances))
    return replace(instances, score=scores)
