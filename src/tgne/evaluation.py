"""Reconstruction benchmark (scorers + AUC) and uncertainty analytics.

The reconstruction task asks, for every pair in a split and every interval,
whether the pair interacts inside that interval. Each active (pair, interval)
triplet becomes a positive instance and draws one matched negative uniformly
from the node pairs inactive in that interval; scorers then rank the
instances and are compared by AUC.

Uncertainty analytics summarize the fitted posterior: per-node scales u(i,k),
the posterior-predictive mean and spread of rates and cumulative rates, and
the spread's regression against interaction counts.

These moments are exact for both rate kinds. Under the mean-field
posterior, Delta(s) = z_i(s) - z_j(s) at local coordinate s of an interval is
N(m(s), v(s) I_d), with m(s) = (1-s) m_a + s m_b and
v(s) = (1-s)^2 v_a + s^2 v_b (m_a, m_b the mean differences and v_a, v_b the
summed variances of the pair at the interval's ends), so

    E[lambda(s)] = e^beta (1 + 2v)^(-d/2) exp(-|m|^2 / (1 + 2v)),

and the second moments, E[lambda(s)^2] and E[lambda(s) lambda(t)] for the
jointly normal (Delta(s), Delta(t)), are closed form as well. Every variance
is taken as E_s E_t expm1(g) with g written without cancellation (beta drops
out of g), never as E[x^2] - E[x]^2. The rate table uses the pointwise form;
the interval moments E[Lambda] and Var[Lambda] are 8-point Gauss-Legendre
sums on 2^p equal panels, with p raised per row until the row's mean settles.

The dot model's rate e^(beta + <z_i(s), z_j(s)>) has, per coordinate,
E[e^(xy)] = (1 - uw)^(-1/2) exp((ab + (w a^2 + u b^2) / 2) / (1 - uw)) for
independent x ~ N(a, u) and y ~ N(b, w), and E[lambda(s) lambda(t)] is the
same Gaussian integral over the positions at both times (``_dot_log_cov``).
The same rule and panels take its interval moments. They are finite only
while 4 v_i v_j < 1 for the two nodes' largest variances on the interval;
every other row is written as inf.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .events import (
    CountTensor,
    EventList,
    IntervalPartition,
    Pair,
    in_sorted,
    interval_counts,
    pair_codes,
    unique_codes,
)
from .inference import FittedModel, VariationalState
from .model import (
    EUCLIDEAN,
    _all_pairs,
    _endpoints,
    _rate_batch,
)


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
    zi_a, zi_b = _endpoints(z, ii, kk0)
    zj_a, zj_b = _endpoints(z, jj, kk0)
    return _rate_batch(zi_a, zi_b, zj_a, zj_b, beta, part.lengths[kk0], kind)


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


def _lsdm_nll_grad(z: np.ndarray, beta: float, ii, jj, y):
    """Bernoulli NLL of p = logistic(beta - dist^2) and its exact gradient.

    With u = (1 - 2y)(beta - dist^2), each pair's term is softplus(u) =
    max(u, 0) + log1p(e^-|u|), exact at any logit, and its derivative in the
    logit is the residual (1 - 2y) sigma(u) = p - y, with sigma(u) formed
    from e^-|u| so nothing overflows.
    """
    n, d = z.shape
    index = np.concatenate([ii, jj]) + n * np.arange(d)[:, None]
    nll, grad = _lsdm_objective(np.append(z.T, beta), index, 1.0 - 2.0 * y)
    return nll, grad[:-1].reshape(d, n).T, float(grad[-1])


def _lsdm_objective(x: np.ndarray, index: np.ndarray, sign: np.ndarray):
    """``_lsdm_nll_grad`` on the packed x = (z coordinate by coordinate, beta).

    ``index[c]`` = c n + [ii, jj] locates each pair's endpoints in x, and
    ``sign`` = 1 - 2y. Returns the NLL and the gradient in x's layout.
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
) -> tuple[np.ndarray, ...]:
    """Columns (i, j, k, N, lambda_mean, lambda_std), one row per active pair
    of ``counts`` and interval in (pair, interval) order, k 1-based.

    Every interval of an active pair is a row, its zero-count ones included;
    the moments are ``_exact_lambda_moments``'.
    """
    pi, pj = counts.active_pairs()
    if not pi.size:
        raise ValueError("counts contain no active pairs")
    K = part.K
    ii, jj = pi.repeat(K), pj.repeat(K)
    kk0 = np.tile(np.arange(K), pi.size)
    mean, std = _exact_lambda_moments(vs, part, ii, jj, kk0, kind=rm_kind)
    return ii, jj, kk0 + 1, counts.counts_of(ii, jj, kk0 + 1), mean, std


def _mean_differences(vs: VariationalState, ii, jj, kk0) -> tuple[np.ndarray, np.ndarray]:
    """m_a, m_b: mu_i - mu_j at the start and end of interval kk0, each (rows, d)."""
    mi_a, mi_b = _endpoints(vs.mu, ii, kk0)
    mj_a, mj_b = _endpoints(vs.mu, jj, kk0)
    return mi_a - mj_a, mi_b - mj_b


def _summed_variances(vs: VariationalState, ii, jj, kk0) -> tuple[np.ndarray, np.ndarray]:
    """v_a, v_b: sigma_i^2 + sigma_j^2 at the start and end of interval kk0."""
    sigma = vs.sigma
    var = sigma.ravel() ** 2
    ri, rj = ii * sigma.shape[1] + kk0, jj * sigma.shape[1] + kk0
    return var[ri] + var[rj], var[ri + 1] + var[rj + 1]


def _pair_scalars(
    vs: VariationalState, ii: np.ndarray, jj: np.ndarray, kk0: np.ndarray
) -> np.ndarray:
    """(5, rows): v_a, v_b, |m_a|^2, m_a.m_b, |m_b|^2 of each row.

    m_a, m_b are the mean differences mu_i - mu_j and v_a, v_b the summed
    variances sigma_i^2 + sigma_j^2 at the start and end of interval kk0.
    """
    m_a, m_b = _mean_differences(vs, ii, jj, kk0)
    v_a, v_b = _summed_variances(vs, ii, jj, kk0)
    return np.stack([v_a, v_b, np.vecdot(m_a, m_a), np.vecdot(m_a, m_b), np.vecdot(m_b, m_b)])


def _bilinear_weights(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the pair scalars at node pairs (s, t): (len(s), 2) and (len(s), 3).

    The first weight v_a, v_b into c = Cov(Delta(s), Delta(t)) per dimension,
    the second |m_a|^2, m_a.m_b, |m_b|^2 into m(s).m(t). At s = t they give
    v(s) and |m(s)|^2.
    """
    a, b = (1.0 - s) * (1.0 - t), s * t
    return np.stack([a, b], axis=1), np.stack([a, (1.0 - s) * t + s * (1.0 - t), b], axis=1)


_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
MOMENT_RTOL = 1e-12  # a row's mean has settled once doubling moves it this little
MAX_PANELS = 64  # past this many panels a row keeps its finest mean and warns
MOMENT_ROWS = 512  # rows per chunk; a variance grid past one panel takes fewer


class _Rule:
    """The 8-point Gauss-Legendre rule on ``panels`` equal panels of [0, 1].

    ``w`` are the node weights and ``Wv``, ``Wm`` the pair-scalar weights at
    the nodes (see ``_bilinear_weights``).
    """

    def __init__(self, panels: int):
        self.s = ((np.arange(panels)[:, None] + 0.5 * (_GL8_X + 1.0)) / panels).ravel()
        self.w = np.tile(_GL8_W / (2.0 * panels), panels)
        self.Wv, self.Wm = _bilinear_weights(self.s, self.s)
        self._grid = None

    def grid(self):
        """(qi, ri, Wv2, Wm2, w2) of the upper triangle of the node grid.

        ``qi``, ``ri`` index the nodes, ``Wv2``, ``Wm2`` are the pair-scalar
        weights and ``w2`` the weights, off-diagonal entries counted twice
        since the grid is symmetric. Built on first use: only the rules rows
        settle on need it, and its size grows as panels^2.
        """
        if self._grid is None:
            qi, ri = np.triu_indices(self.s.size)
            self._grid = (
                qi, ri, *_bilinear_weights(self.s[qi], self.s[ri]),
                self.w[qi] * self.w[ri] * np.where(qi == ri, 1.0, 2.0),
            )
        return self._grid


def _mean_terms(S: np.ndarray, rule: _Rule, beta: float, d: int):
    """E[lambda], 1 + 2v and |m|^2 / (1 + 2v) at the rule's nodes, each (nodes, rows)."""
    p = rule.Wv @ S[:2]
    p *= 2.0
    p += 1.0
    a = rule.Wm @ S[2:]
    a /= p
    E = np.log(p)
    E *= -0.5 * d
    E -= a
    E += beta
    return np.exp(E, out=E), p, a


def _interval_variance(S, E, p, a, rule: _Rule, d: int) -> np.ndarray:
    """Double integral over [0, 1]^2 of Cov(lambda(s), lambda(t)) on the rule.

    ``E``, ``p``, ``a`` are ``_mean_terms`` of the rows. With p, q = 1 + 2v at
    s and t and c = Cov(Delta(s), Delta(t)) per dimension, D = pq - 4c^2 and
    Cov = E_s E_t expm1(g) with

        g = -(d/2) log1p(-4c^2 / (pq)) + (4c / D) (m(s).m(t) - c (|m(s)|^2 / p + |m(t)|^2 / q)).

    Rows go in slices of at most MOMENT_ROWS one-panel grids' worth of values;
    the arithmetic runs in place.
    """
    qi, ri, Wv2, Wm2, w2 = rule.grid()
    out = np.empty(S.shape[1])
    step = max(1, MOMENT_ROWS * 36 // qi.size)  # 36: the one-panel triangle
    for lo in range(0, S.shape[1], step):
        sl = slice(lo, lo + step)
        c = Wv2 @ S[:2, sl]
        g = Wm2 @ S[2:, sl]  # m(s).m(t), then g
        pq = p[qi, sl] * p[ri, sl]
        c2 = c * c
        c2 *= 4.0
        aa = a[qi, sl] + a[ri, sl]
        aa *= c
        g -= aa
        c *= 4.0
        g *= c
        g /= np.subtract(pq, c2, out=aa)
        c2 /= pq
        np.negative(c2, out=c2)
        np.log1p(c2, out=c2)
        c2 *= 0.5 * d
        g -= c2
        np.expm1(g, out=g)
        g *= E[qi, sl]
        g *= E[ri, sl]
        out[sl] = w2 @ g
    return out


def _min_panels(S: np.ndarray) -> np.ndarray:
    """Panels each row needs before its mean may count as settled.

    E[lambda(s)] is at most a bump of width sqrt(1 + 2 v_min) / |m_b - m_a|
    in s, v_min = v_a v_b / (v_a + v_b) being the least v(s). Requiring
    panels no wider than 8 such widths keeps the nodes of two successive
    rules from both missing a narrow bump and agreeing on its absence.
    """
    dm = np.sqrt(np.maximum(S[2] - 2.0 * S[3] + S[4], 0.0))
    v_min = S[0] * S[1] / (S[0] + S[1])
    return dm / (8.0 * np.sqrt(1.0 + 2.0 * v_min))


def _dot_scalars(
    vs: VariationalState, ii: np.ndarray, jj: np.ndarray, kk0: np.ndarray
) -> np.ndarray:
    """(4 d + 4, rows): mu_i, mu_j at the start and end of interval kk0, each
    coordinate by coordinate, then sigma_i^2, sigma_j^2 likewise."""
    mi_a, mi_b = _endpoints(vs.mu, ii, kk0)
    mj_a, mj_b = _endpoints(vs.mu, jj, kk0)
    var = vs.sigma.ravel() ** 2
    ri, rj = ii * vs.sigma.shape[1] + kk0, jj * vs.sigma.shape[1] + kk0
    return np.concatenate([mi_a.T, mi_b.T, mj_a.T, mj_b.T,
                           np.stack([var[ri], var[ri + 1], var[rj], var[rj + 1]])])


def _dot_at(S: np.ndarray, s):
    """Means (..., rows, d) and variances (..., rows) of z_i(s) and z_j(s).

    ``S`` holds ``_dot_scalars`` columns; ``s`` broadcasts against the rows.
    """
    d = (S.shape[0] - 4) // 4
    mean = S[: 4 * d].reshape(4, d, -1).transpose(0, 2, 1)  # (4, rows, d)
    var = S[4 * d :]
    om = 1.0 - s
    mi = om[..., None] * mean[0] + s[..., None] * mean[1]
    mj = om[..., None] * mean[2] + s[..., None] * mean[3]
    return mi, mj, om * om * var[0] + s * s * var[1], om * om * var[2] + s * s * var[3]


def _dot_finite(S: np.ndarray) -> np.ndarray:
    """Rows whose every moment is finite: 4 max(v_i) max(v_j) < 1 over the interval.

    E[lambda(s) lambda(t)] is finite while the spectral radius of the two
    nodes' (s, t) covariances' product is below 1, which the bound ensures.
    """
    var = S[-4:]
    return 4.0 * np.maximum(var[0], var[1]) * np.maximum(var[2], var[3]) < 1.0


def _dot_mean(S: np.ndarray, s, beta: float) -> np.ndarray:
    """E[lambda(s)] of the dot model, ``s`` broadcasting against the rows.

    Per coordinate, for independent x ~ N(a, u) and y ~ N(b, w),
    E[e^(xy)] = (1 - uw)^(-1/2) exp((ab + (w a^2 + u b^2) / 2) / (1 - uw)).
    """
    mi, mj, u, w = _dot_at(S, s)
    p = 1.0 - u * w
    quad = np.vecdot(mi, mj) + 0.5 * (w * np.vecdot(mi, mi) + u * np.vecdot(mj, mj))
    return np.exp(beta - 0.5 * mi.shape[-1] * np.log(p) + quad / p)


def _dot_log_cov(S: np.ndarray, s, t) -> np.ndarray:
    """g = log E[lambda(s) lambda(t)] - log E[lambda(s)] - log E[lambda(t)], dot model.

    Per coordinate, W = (x_s, x_t, y_s, y_t), z_i and z_j at s and t, is
    N(m, Sigma), and lambda(s) lambda(t) = e^(2 beta + W^T J W / 2) with J
    pairing x with y, so E[lambda(s) lambda(t)] = e^(2 beta) det(I - Sigma
    J)^(-1/2) exp(m^T (J - Sigma)^(-1) m / 2). Sigma0, which drops the
    covariances c_i, c_j of each node's two times, gives E[lambda(s)]
    E[lambda(t)]. The difference is taken without cancellation:
    det(I - Sigma J) / det(I - Sigma0 J) = 1 - delta with delta below, and
    (J - Sigma)^(-1) - (J - Sigma0)^(-1) = (J - Sigma)^(-1) (Sigma - Sigma0)
    (J - Sigma0)^(-1), whose last factor is two 2x2 blocks, one per time.
    """
    mi_s, mj_s, u_s, w_s = _dot_at(S, s)
    mi_t, mj_t, u_t, w_t = _dot_at(S, t)
    var = S[-4:]
    c_i = (1.0 - s) * (1.0 - t) * var[0] + s * t * var[1]
    c_j = (1.0 - s) * (1.0 - t) * var[2] + s * t * var[3]
    p_s, p_t = 1.0 - u_s * w_s, 1.0 - u_t * w_t
    cc = c_i * c_j
    delta = (cc * (2.0 - cc) + w_s * w_t * c_i * c_i + u_s * u_t * c_j * c_j) / (p_s * p_t)
    shape = np.broadcast(u_s, u_t, c_i, c_j).shape
    js = np.zeros(shape + (4, 4))  # J - Sigma, in the order x_s, x_t, y_s, y_t
    js[..., [0, 1, 2, 3], [0, 1, 2, 3]] = -np.stack(np.broadcast_arrays(u_s, u_t, w_s, w_t), -1)
    js[..., [0, 1], [1, 0]] = -c_i[..., None]
    js[..., [2, 3], [3, 2]] = -c_j[..., None]
    js[..., [0, 2, 1, 3], [2, 0, 3, 1]] = 1.0
    xi = np.linalg.solve(js, np.stack(np.broadcast_arrays(mi_s, mi_t, mj_s, mj_t), -2))
    x0_s = (w_s[..., None] * mi_s + mj_s) / p_s[..., None]
    x0_t = (w_t[..., None] * mi_t + mj_t) / p_t[..., None]
    y0_s = (mi_s + u_s[..., None] * mj_s) / p_s[..., None]
    y0_t = (mi_t + u_t[..., None] * mj_t) / p_t[..., None]
    quad = (c_i * (np.vecdot(xi[..., 0, :], x0_t) + np.vecdot(xi[..., 1, :], x0_s))
            + c_j * (np.vecdot(xi[..., 2, :], y0_t) + np.vecdot(xi[..., 3, :], y0_s)))
    return 0.5 * quad - 0.5 * mi_s.shape[-1] * np.log1p(-delta)


def _dot_mean_terms(S: np.ndarray, rule: "_Rule", beta: float, d: int):
    """(E[lambda],) at the rule's nodes, (nodes, rows): ``_mean_terms`` for dot."""
    return (_dot_mean(S, rule.s[:, None], beta),)


def _dot_interval_variance(S: np.ndarray, E: np.ndarray, rule: "_Rule", d: int) -> np.ndarray:
    """``_interval_variance`` for dot: Cov(lambda(s), lambda(t)) = E_s E_t expm1(g)."""
    qi, ri, _, _, w2 = rule.grid()
    s, t = rule.s[qi, None], rule.s[ri, None]
    out = np.empty(S.shape[1])
    step = max(1, MOMENT_ROWS * 36 // qi.size)
    for lo in range(0, S.shape[1], step):
        sl = slice(lo, lo + step)
        out[sl] = w2 @ (np.expm1(_dot_log_cov(S[:, sl], s, t)) * E[qi, sl] * E[ri, sl])
    return out


def _dot_min_panels(S: np.ndarray) -> np.ndarray:
    """``_min_panels`` for dot: E[lambda(s)] is at most a bump of width
    1 / sqrt(-c2) in s, c2 = <mu_ib - mu_ia, mu_jb - mu_ja> its mean log
    rate's curvature."""
    d = (S.shape[0] - 4) // 4
    mean = S[: 4 * d].reshape(4, d, -1)
    c2 = np.einsum("dr,dr->r", mean[1] - mean[0], mean[3] - mean[2])
    return np.sqrt(np.maximum(-c2, 0.0)) / 8.0


def _exact_lambda_moments(
    vs: VariationalState,
    part: IntervalPartition,
    ii: np.ndarray,
    jj: np.ndarray,
    kk0: np.ndarray,
    want_std: bool = True,
    kind: str = EUCLIDEAN,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Exact posterior mean and std of Lambda for triplet arrays; std is None
    unless ``want_std``.

    E[Lambda] = |I| * integral E[lambda(s)] ds and Var[Lambda] = |I|^2 *
    double integral of Cov(lambda(s), lambda(t)), both by the 8-point rule on
    2^p panels. Each row starts at one panel and doubles until its mean moves
    by at most MOMENT_RTOL relative and the panels resolve its narrowest bump
    (``_min_panels``); it keeps the finer mean, and its variance uses the
    coarser, settled panel count. Rows still moving at MAX_PANELS take both
    moments from the finest rule, with a RuntimeWarning.

    That limit is reached by rows whose mean difference moves by more than
    about 45 within the interval (|m_b - m_a| > 45): their crossing bump,
    of width ~1/|m_b - m_a| in s, still carries ~1e-12 relative error at 32
    panels, so they stop at MAX_PANELS and warn. The 64-panel mean of such
    a row stays within ~1e-13 of adaptive quadrature at |m_b - m_a| = 60.

    The dot model takes its pointwise moments from ``_dot_mean`` and
    ``_dot_log_cov``. They are finite only while 4 max(v_i) max(v_j) < 1
    (``_dot_finite``); every other row gets inf for both moments.
    """
    d, beta = vs.mu.shape[2], vs.beta
    if kind == EUCLIDEAN:
        min_panels, mean_terms, interval_variance = _min_panels, _mean_terms, _interval_variance
        S_all = _pair_scalars(vs, ii, jj, kk0)
        at = np.arange(S_all.shape[1])
    else:
        min_panels, mean_terms = _dot_min_panels, _dot_mean_terms
        interval_variance = _dot_interval_variance
        S_all = _dot_scalars(vs, ii, jj, kk0)
        at = np.flatnonzero(_dot_finite(S_all))  # the other rows stay inf
        S_all = S_all[:, at]
    mean = np.full(ii.shape[0], np.inf)
    var = np.full(ii.shape[0], np.inf) if want_std else None
    rules: dict[int, _Rule] = {}

    def rule(panels: int) -> _Rule:
        if panels not in rules:
            rules[panels] = _Rule(panels)
        return rules[panels]

    for lo in range(0, S_all.shape[1], MOMENT_ROWS):
        S = S_all[:, lo : lo + MOMENT_ROWS]
        rows = at[lo : lo + S.shape[1]]
        need = min_panels(S)
        panels = 1
        terms = mean_terms(S, rule(1), beta, d)
        coarse = rule(1).w @ terms[0]
        while rows.size:
            fine_terms = mean_terms(S, rule(2 * panels), beta, d)
            fine = rule(2 * panels).w @ fine_terms[0]
            done = (np.abs(fine - coarse) <= MOMENT_RTOL * np.abs(fine)) & (panels >= need)
            var_terms, var_rule = terms, rule(panels)
            if 2 * panels >= MAX_PANELS and not done.all():
                warnings.warn(
                    f"{int((~done).sum())} interval means did not settle within "
                    f"{MAX_PANELS} quadrature panels; keeping the finest",
                    RuntimeWarning,
                )
                done[:] = True
                var_terms, var_rule = fine_terms, rule(2 * panels)
            mean[rows[done]] = fine[done]
            if want_std and done.all():  # the usual case: no column copies
                var[rows] = interval_variance(S, *var_terms, var_rule, d)
            elif want_std and done.any():
                var[rows[done]] = interval_variance(
                    S[:, done], *(t[:, done] for t in var_terms), var_rule, d
                )
            keep = ~done
            S, rows, need = S[:, keep], rows[keep], need[keep]
            coarse, panels = fine[keep], 2 * panels
            terms = [t[:, keep] for t in fine_terms]
    lengths = part.lengths[kk0]
    if not want_std:
        return mean * lengths, None
    return mean * lengths, np.sqrt(np.maximum(var, 0.0)) * lengths


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
    ``edge_table``'s rows (``regression_slope_from_points``).

    The std is exact for both rate kinds; ``B`` and ``seed`` are accepted
    and ignored. Pass a train-restricted tensor to stay on training data.
    """
    _, _, _, n_events, _, stds = edge_table(vs, counts, rm_kind, part)
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


def _exact_rate_std(vs: VariationalState, ii, jj, kk0, s) -> np.ndarray:
    """Posterior std of lambda at local coordinate s, euclidean model, per row.

    With v = v(s) and |m|^2 = |m(s)|^2 (m(s) formed as a vector, so it has no
    cancellation where a pair crosses), Var = E[lambda]^2 expm1(g) with

        g = (d/2) log1p(4v^2 / (1 + 4v)) + 4v |m|^2 / ((1 + 2v)(1 + 4v)).
    """
    d = vs.mu.shape[2]
    m_a, m_b = _mean_differences(vs, ii, jj, kk0)
    v_a, v_b = _summed_variances(vs, ii, jj, kk0)
    om = 1.0 - s
    m = om[:, None] * m_a + s[:, None] * m_b
    m2 = np.vecdot(m, m)
    v = om * om * v_a + s * s * v_b
    p, r = 1.0 + 2.0 * v, 1.0 + 4.0 * v
    mean = np.exp(vs.beta - m2 / p - 0.5 * d * np.log(p))
    g = 0.5 * d * np.log1p(4.0 * v * v / r) + 4.0 * v * m2 / (p * r)
    return mean * np.sqrt(np.expm1(g))


def _rate_at(z, beta, kind, ii, jj, kk0, s) -> np.ndarray:
    """lambda at local coordinate s of interval kk0 for each row, at configuration z."""
    om = (1.0 - s)[:, None]
    sc = s[:, None]
    zi_a, zi_b = _endpoints(z, ii, kk0)
    zj_a, zj_b = _endpoints(z, jj, kk0)
    pi = om * zi_a + sc * zi_b
    pj = om * zj_a + sc * zj_b
    if kind == EUCLIDEAN:
        diff = pi - pj
        return np.exp(beta - np.einsum("md,md->m", diff, diff))
    return np.exp(beta + np.einsum("md,md->m", pi, pj))


def _dot_rate_std(vs: VariationalState, ii, jj, kk0, s) -> np.ndarray:
    """Posterior std of lambda at local coordinate s, dot model, per row.

    Var = E[lambda]^2 expm1(g(s, s)) (``_dot_log_cov``), finite while
    4 v_i(s) v_j(s) < 1; every other row gets inf.
    """
    S = _dot_scalars(vs, ii, jj, kk0)
    _, _, u, w = _dot_at(S, s)
    ok = 4.0 * u * w < 1.0
    std = np.full(s.shape, np.inf)
    S, s = S[:, ok], s[ok]
    std[ok] = _dot_mean(S, s, vs.beta) * np.sqrt(np.expm1(_dot_log_cov(S, s, s)))
    return std


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
