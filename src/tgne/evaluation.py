"""Reconstruction benchmark (scorers + AUC) and uncertainty analytics.

The reconstruction task asks, for every pair in a split and every interval,
whether the pair interacts inside that interval. Each active (pair, interval)
triplet becomes a positive instance and draws one matched negative uniformly
from the node pairs inactive in that interval; scorers then rank the
instances and are compared by AUC.

Uncertainty analytics summarize the fitted posterior: per-node scales u(i,k),
the posterior-predictive mean and spread of rates and cumulative rates (from
``expectations``), and the spread's regression against interaction counts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Optional

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .events import (
    CSV_CHUNK_ROWS,
    CountTensor,
    EventList,
    IntervalPartition,
    Pair,
    in_sorted,
    interval_counts,
    pair_codes,
    unique_codes,
)
from .expectations import (
    EUCLIDEAN,
    _dot_rate_std,
    _endpoints,
    _exact_lambda_moments,
    _exact_rate_std,
)
from .inference import FittedModel, VariationalState
from .model import _all_pairs, _rate_batch


class _Columns:
    """A dataclass whose fields are equal-length column arrays; ``len`` is
    the row count."""

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))


@dataclass(eq=False)
class InstanceTable(_Columns):
    """Classification instances (pair, interval, score, label) as columns.

    ``label`` is 1 iff the pair is active in the interval; ``score`` is NaN
    until ``score_instances`` fills it in.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    score: np.ndarray
    label: np.ndarray


def restrict_counts(counts: CountTensor, pairs: Iterable[Pair] | np.ndarray) -> CountTensor:
    """Counts filtered down to the given pairs (train-only views); ``pairs``
    as ``pair_codes`` reads them."""
    sel = in_sorted(counts.codes // counts.K, pair_codes(pairs, counts.n, counts.directed))
    return CountTensor(counts.n, counts.K, counts.directed, counts.codes[sel], counts.values[sel])


def build_instances(
    counts: CountTensor,
    pairs: Iterable[Pair] | np.ndarray,
    part: IntervalPartition,
    seed: int = 0,
) -> tuple[InstanceTable, dict[int, int]]:
    """Positives from one split, with 1:1 matched negatives per interval.

    Every pair of the split that is active in interval k yields a positive;
    each positive draws one negative uniformly (without replacement within
    the interval) from the node-pair universe restricted to pairs with no
    event in that interval. Returns the instances (per interval, positives
    then negatives, each in ascending (i, j) order) plus a per-interval
    shortfall count for intervals whose negatives ran out. ``pairs`` is read
    by ``pair_codes``.
    """
    n = counts.n
    split_code = pair_codes(pairs, n, counts.directed)
    pair_i, pair_j = np.divmod(split_code, n)
    universe = n * (n - 1) if counts.directed else n * (n - 1) // 2
    pair_code, k0 = np.divmod(counts.codes, counts.K)  # pair codes i * n + j
    # active_in[k - 1, p]: the split's p-th pair has an event in interval k
    in_split = in_sorted(pair_code, split_code)
    active_in = np.zeros((counts.K, split_code.size), dtype=bool)
    active_in[k0[in_split], np.searchsorted(split_code, pair_code[in_split])] = True

    rng = np.random.default_rng(seed)
    blocks: list[tuple[np.ndarray, np.ndarray, int, int]] = []  # (i, j, k, label)
    shortfall: dict[int, int] = {}
    for k in range(1, part.K + 1):
        hit = active_in[k - 1]
        blocks.append((pair_i[hit], pair_j[hit], k, 1))
        n_pos = int(hit.sum())
        active = pair_code[k0 == k - 1]  # ascending, as the codes are
        n_inactive = universe - active.size
        take = min(n_pos, n_inactive)
        if take < n_pos:
            shortfall[k] = n_pos - take
        if take and n_inactive <= 4 * take:
            # dense interval: enumerate the inactive pairs in (i, j) order and
            # sample directly; sorted picks give the chosen pairs in order
            all_i, all_j = _all_pairs(n, counts.directed)
            free = np.ones(universe, dtype=bool)
            free[np.searchsorted(all_i * n + all_j, active)] = False
            picks = np.sort(rng.choice(n_inactive, size=take, replace=False))
            blocks.append((all_i[free][picks], all_j[free][picks], k, 0))
            continue
        # sparse interval: rejection-sample uniform inactive pairs
        neg_i, neg_j = np.divmod(_rejection_sample(rng, n, counts.directed, active, take), n)
        blocks.append((neg_i, neg_j, k, 0))

    bi, bj, bk, blabel = zip(*blocks)
    sizes = [b.size for b in bi]
    table = InstanceTable(
        i=np.concatenate(bi), j=np.concatenate(bj), k=np.repeat(bk, sizes),
        score=np.full(sum(sizes), np.nan), label=np.repeat(blabel, sizes),
    )
    return table, shortfall


def _rejection_sample(
    rng: np.random.Generator, n: int, directed: bool, active: np.ndarray, take: int
) -> np.ndarray:
    """Ascending codes i * n + j of ``take`` distinct pairs not in ``active``.

    The picks, and the state ``rng`` is left in, are those of the loop that
    draws i = rng.integers(n), then j = rng.integers(n), and rejects self
    pairs, active pairs and pairs already picked until it has ``take``. The
    draws come in batches; the batch that completes the picks is drawn again,
    from its start state, only as far as the loop would have drawn. That
    relies on ``rng.integers(n, size=m)`` drawing what m scalar calls draw.
    ``take`` must not exceed the number of inactive pairs.
    """
    orders = 1 if directed else 2  # draws (i, j) that give one stored pair
    free = (n * (n - 1)) // orders - active.size
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < take:
        need = take - chosen.size
        # enough candidates for the picks still needed at the expected rate
        batch = min(need * n * n // (orders * (free - chosen.size)) + need // 8 + 16, 1 << 20)
        start = rng.bit_generator.state
        draws = rng.integers(n, size=2 * batch)
        i, j = draws[0::2], draws[1::2]
        if not directed:
            i, j = np.minimum(i, j), np.maximum(i, j)
        code = i * n + j
        ok = np.flatnonzero((i != j) & ~in_sorted(code, active) & ~in_sorted(code, chosen))
        _, first = np.unique(code[ok], return_index=True)
        ok = np.sort(ok[first])
        if ok.size >= need:
            ok = ok[:need]
            used = 2 * (int(ok[-1]) + 1)
            if used < draws.size:
                rng.bit_generator.state = start
                rng.integers(n, size=used)
        chosen = unique_codes(np.concatenate([chosen, code[ok]]))
    return chosen


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of a 1-D array, tied values sharing their mean rank.

    The same float64 values as ``scipy.stats.rankdata(x)``: every rank is a
    multiple of 0.5, so each is exact.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # each tie group fills sorted positions first..last-1 (0-based), i.e.
    # ranks first+1..last, whose mean is (first + last + 1) / 2
    first = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    last = np.r_[first[1:], xs.size]
    ranks = np.empty(xs.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last + 1), last - first)
    return ranks


def auc_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for ties.

    ``scores`` and ``labels`` are 1-D of one length; labels are 0 or 1 and
    scores are not NaN (+-inf rank as the extremes). Raises ValueError
    otherwise, or when one class is empty.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(
            f"AUC needs 1-D scores and labels of one length, got shapes "
            f"{scores.shape} and {labels.shape}"
        )
    nan = np.flatnonzero(np.isnan(scores))
    if nan.size:
        raise ValueError(f"AUC got a NaN score at position {int(nan[0])}")
    pos = labels == 1
    other = np.flatnonzero(~pos & (labels != 0))
    if other.size:
        b = int(other[0])
        raise ValueError(f"AUC labels must be 0 or 1, got {labels[b].item()!r} at position {b}")
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    rank_sum = float(_average_ranks(scores)[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc(instances: InstanceTable) -> float:
    return auc_from_scores(instances.score, instances.label)


def _lambda_batch(z, beta, kind, part, ii, jj, kk0):
    """Cumulative rates for triplet arrays (0-based interval index)."""
    return _rate_batch(*_endpoints(z, ii, jj, kk0), beta, part.lengths[kk0], kind)


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


LSDM_INIT_SCALE = 0.1  # std of the start positions z
LSDM_GRAD_TOL = 1e-4  # a fit has converged below this gradient inf-norm


@dataclass
class LsdmOpts:
    """Settings for the per-interval binary latent distance fit.

    ``iters`` (>= 1) caps the L-BFGS-B iterations, and the objective
    evaluations up to the end of the iteration that passes it. The fit has
    converged when the gradient's inf-norm is below ``LSDM_GRAD_TOL``.
    ``lr`` is accepted and ignored: L-BFGS-B chooses its own steps.
    """

    iters: int = 800
    lr: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError(f"lsdm iters must be >= 1, got {self.iters}")


@dataclass(eq=False)
class LsdmModel:
    z: np.ndarray  # (n, d)
    beta: float
    nll_trace: np.ndarray  # objective at the start and at each accepted iterate
    converged: bool
    iterations: int
    evaluations: int
    grad_inf: float  # gradient inf-norm at (z, beta)


# |u| is floored here: a pair with |u| > 600 changes its softplus term by
# less than e^-600 (about 3e-261), and e^-|u|, sigma(u) and the gradient
# terms never reach the slow subnormal range
_LSDM_MAX_ABS_LOGIT = 600.0


def _lsdm_objective(x: np.ndarray, index: np.ndarray, sign: np.ndarray):
    """Bernoulli NLL of p = logistic(beta - dist^2) and its exact gradient, at
    the packed x = (z coordinate by coordinate, beta).

    ``index[c]`` = c n + [ii, jj] locates each pair's endpoints in x, and
    ``sign`` = 1 - 2y. With u = (1 - 2y)(beta - dist^2), each pair's term is
    softplus(u) = max(u, 0) + log1p(e^-|u|), exact at any logit, and its
    derivative in the logit is the residual (1 - 2y) sigma(u) = p - y, with
    sigma(u) formed from e^-|u| so nothing overflows. Returns the NLL and
    the gradient in x's layout.
    """
    d, two_p = index.shape
    P = two_p // 2
    ends = x.take(index)  # (d, 2P): coordinate c of every ii, then every jj
    diff = ends[:, :P] - ends[:, P:]
    dist2 = diff[0] * diff[0]
    for row in diff[1:]:
        dist2 += row * row
    u = np.subtract(x[-1], dist2, out=dist2)
    u *= sign
    e = np.abs(u)
    np.minimum(e, _LSDM_MAX_ABS_LOGIT, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    nll = float(np.maximum(u, 0.0).sum() + np.log1p(e).sum())
    resid = np.maximum(e, u >= 0.0)  # sigma(u)'s numerator: 1 where u >= 0, else e
    resid /= 1.0 + e
    resid *= sign
    # bincount adds the terms of each coordinate of a node in array order:
    # all ii terms, then all jj terms
    weights = np.empty((d, two_p))
    np.multiply(-2.0 * resid, diff, out=weights[:, :P])
    np.negative(weights[:, :P], out=weights[:, P:])
    grad = np.empty(x.size)
    grad[:-1] = np.bincount(index.ravel(), weights=weights.ravel(), minlength=x.size - 1)
    grad[-1] = resid.sum()
    return nll, grad


def fit_lsdm(
    counts: CountTensor,
    train_pairs: Iterable[Pair] | np.ndarray,
    k: int,
    d: int,
    opts: Optional[LsdmOpts] = None,
) -> LsdmModel:
    """Fit a static binary latent distance model to one interval.

    Maximizes the Bernoulli likelihood of y_ij = 1{N_ij(I_k) >= 1} over the
    training pairs, with p = logistic(beta - ||z_i - z_j||^2), by L-BFGS-B
    on the packed vector (z, beta). It stops only when the gradient's
    inf-norm falls below ``LSDM_GRAD_TOL`` or at the ``opts.iters`` cap;
    every accepted iterate lowers the objective. No temporal coupling: every
    interval is fit independently. ``train_pairs`` is read by ``pair_codes``.
    """
    return _LsdmFitter(counts, train_pairs, d, opts).fit(k)


def fit_lsdm_intervals(
    counts: CountTensor,
    train_pairs: Iterable[Pair] | np.ndarray,
    d: int,
    opts: Optional[LsdmOpts] = None,
) -> dict[int, LsdmModel]:
    """``fit_lsdm`` for each interval k = 1..K, with the pairs read once."""
    fitter = _LsdmFitter(counts, train_pairs, d, opts)
    return {k: fitter.fit(k) for k in range(1, counts.K + 1)}


class _LsdmFitter:
    """What every interval's LSDM fit shares: the sorted training pairs, the
    endpoint index into the packed x and the start x0."""

    def __init__(self, counts: CountTensor, train_pairs, d: int, opts: Optional[LsdmOpts]):
        self.counts, self.d = counts, d
        self.opts = opts or LsdmOpts()
        self.ii, self.jj = np.divmod(pair_codes(train_pairs, counts.n, counts.directed), counts.n)
        if self.ii.size == 0:
            raise ValueError("need at least one training pair")
        n = counts.n
        rng = np.random.default_rng(self.opts.seed)
        # x holds z coordinate by coordinate, then beta
        self.x0 = np.append(LSDM_INIT_SCALE * rng.standard_normal((n, d)).T, 0.0)
        self.index = np.concatenate([self.ii, self.jj]) + n * np.arange(d)[:, None]

    def fit(self, k: int) -> LsdmModel:
        opts, n, d = self.opts, self.counts.n, self.d
        y = (self.counts.counts_of(self.ii, self.jj, k) >= 1).astype(np.float64)
        sign = 1.0 - 2.0 * y
        trace = []
        # one evaluation gives the value and the gradient; scipy asks for the
        # gradient at the x it just asked the value of
        memo = {"x": None}

        def value(x):
            nll, memo["grad"] = _lsdm_objective(x, self.index, sign)
            memo["x"] = x
            if not trace:  # the first evaluation is at x0; record() adds the iterates
                trace.append(nll)
            return nll

        def gradient(x):
            if not np.array_equal(x, memo["x"]):
                value(x)
            return memo["grad"]

        def record(intermediate_result):
            trace.append(float(intermediate_result.fun))

        res = minimize(
            value, self.x0, jac=gradient, method="L-BFGS-B", callback=record,
            options={"maxiter": opts.iters, "maxfun": opts.iters, "gtol": LSDM_GRAD_TOL,
                     "ftol": 0.0},
        )
        grad_inf = float(np.abs(res.jac).max())
        return LsdmModel(
            z=res.x[:-1].reshape(d, n).T.copy(), beta=float(res.x[-1]),
            nll_trace=np.asarray(trace), converged=grad_inf < LSDM_GRAD_TOL,
            iterations=int(res.nit), evaluations=int(res.nfev), grad_inf=grad_inf,
        )


def lsdm_score(model: LsdmModel, i: int, j: int) -> float:
    diff = model.z[i] - model.z[j]
    return float(expit(model.beta - diff @ diff))


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
    # one row-wise mean per distinct segment length: each row sums in the
    # order of a 1-D .mean() (np.add.reduceat sums in another order)
    seg_len = np.diff(indptr)
    for length in np.unique(seg_len[seg_len > 0]).tolist():
        seg = np.flatnonzero(seg_len == length)
        nd[seg] = dists[indptr[seg, None] + np.arange(length)].mean(axis=1)
    return u, nd.reshape(counts.n, K), counts.degrees


def edge_table(
    vs: VariationalState, counts: CountTensor, rm_kind: str, part: IntervalPartition
) -> Iterator[tuple[np.ndarray, ...]]:
    """Batches of columns (i, j, k, N, lambda_mean, lambda_std), one row per
    active pair of ``counts`` and interval in (pair, interval) order, k 1-based.

    Every interval of an active pair is a row, its zero-count ones included;
    the moments are ``_exact_lambda_moments``'. The rows come
    ``CSV_CHUNK_ROWS`` at a time, each batch from one moment call and one
    ``counts_of`` call, so only one batch of the table is alive; a batch may
    end inside a pair's K rows. ``CSV_CHUNK_ROWS`` is a multiple of
    ``MOMENT_ROWS``, so every moment chunk holds the rows it would hold in
    one call over the whole table, and the values are the same bits. A dot
    table with inf rows is the exception: its finite rows fill the moment
    chunks within each batch, so they may differ in the last bits. The
    ValueError for counts with no active pair is raised by this call, not by
    the first batch.
    """
    pi, pj = counts.active_pairs()
    if not pi.size:
        raise ValueError("counts contain no active pairs")
    return _edge_batches(vs, counts, rm_kind, part, pi, pj)


def _edge_batches(
    vs: VariationalState,
    counts: CountTensor,
    rm_kind: str,
    part: IntervalPartition,
    pi: np.ndarray,
    pj: np.ndarray,
) -> Iterator[tuple[np.ndarray, ...]]:
    """``edge_table``'s batches over the active pairs (pi, pj)."""
    rows = pi.size * part.K
    for start in range(0, rows, CSV_CHUNK_ROWS):
        pair, kk0 = np.divmod(np.arange(start, min(start + CSV_CHUNK_ROWS, rows)), part.K)
        ii, jj = pi[pair], pj[pair]
        mean, std = _exact_lambda_moments(vs, part, ii, jj, kk0, kind=rm_kind)
        yield ii, jj, kk0 + 1, counts.counts_of(ii, jj, kk0 + 1), mean, std


def regression_slope_from_points(n_values: np.ndarray, stds: np.ndarray) -> float:
    """OLS slope of uncertainty against interaction count, over one point per
    distinct count value: the mean std of the points with that count."""
    n_values = np.asarray(n_values, dtype=np.float64)
    stds = np.asarray(stds, dtype=np.float64)
    if np.unique(n_values).size < 2:
        raise ValueError("regression needs at least two distinct interaction counts")
    xs = np.unique(n_values)
    ys = np.asarray([stds[n_values == x].mean() for x in xs])
    slope, _intercept = np.polyfit(xs, ys, 1)
    return float(slope)


def uncertainty_regression(
    vs: VariationalState,
    counts: CountTensor,
    rm_kind: str,
    part: IntervalPartition,
    B: int = 200,
    seed: int = 0,
) -> float:
    """OLS slope of posterior Std(Lambda_ij(I_k)) against N_ij(I_k) over
    ``edge_table``'s rows (``regression_slope_from_points``), keeping only the
    N and std columns of each batch.

    The std is exact for both rate kinds; ``B`` and ``seed`` are accepted
    and ignored. Pass a train-restricted tensor to stay on training data.
    """
    batches = [(n, std) for _, _, _, n, _, std in edge_table(vs, counts, rm_kind, part)]
    n_events, stds = map(np.concatenate, zip(*batches))
    return regression_slope_from_points(n_events, stds)


@dataclass(eq=False)
class RateTable(_Columns):
    """The rate-vs-uncertainty table as columns, one row per event or negative."""

    i: np.ndarray
    j: np.ndarray
    t: np.ndarray
    k: np.ndarray
    is_negative: np.ndarray
    rate: np.ndarray
    rate_std: np.ndarray
    n_events: np.ndarray


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


def _rate_at(z, beta, kind, ii, jj, kk0, s) -> np.ndarray:
    """lambda at local coordinate s of interval kk0 for each row, at configuration z."""
    om = (1.0 - s)[:, None]
    sc = s[:, None]
    zi_a, zi_b, zj_a, zj_b = _endpoints(z, ii, jj, kk0)
    pi = om * zi_a + sc * zi_b
    pj = om * zj_a + sc * zj_b
    if kind == EUCLIDEAN:
        diff = pi - pj
        return np.exp(beta - np.einsum("md,md->m", diff, diff))
    return np.exp(beta + np.einsum("md,md->m", pi, pj))


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
    lambda at the posterior-mean configuration; ``rate_std`` is the exact
    posterior std of lambda; ``n_events`` tags the record's pair count in the
    containing interval. ``seed`` draws the negatives; ``B`` is accepted and
    ignored.
    """
    if ev.m == 0:
        ints, floats = np.empty(0, dtype=np.int64), np.empty(0)
        return RateTable(ints, ints, floats, ints, np.empty(0, dtype=bool), floats, floats, ints)
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

    rate_mean_cfg = _rate_at(vs.mu, vs.beta, rm_kind, ii, jj, kk0, ss)
    rate_std = _exact_rate_std if rm_kind == EUCLIDEAN else _dot_rate_std
    std = rate_std(vs, ii, jj, kk0, ss)
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
    ``train_counts``. ``seed`` drives ``random``; ``B`` is accepted and
    ignored.
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
    if scorer in ("tgne", "tgne_predictive"):
        check_triplets(fm, ii, jj, kk)
    if scorer == "tgne":
        scores = _lambda_batch(
            fm.state.mu, fm.state.beta, fm.hyper.rate_model, fm.part, ii, jj, kk - 1
        )
    elif scorer == "tgne_predictive":
        scores, _ = _exact_lambda_moments(
            fm.state, fm.part, ii, jj, kk - 1, want_std=False, kind=fm.hyper.rate_model
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
