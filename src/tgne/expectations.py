"""Exact posterior expectations of the rates, for both rate kinds.

A leaf module: it imports no other tgne module at run time, so the
likelihood, the fit and eval can all import it.

Under the mean-field posterior, Delta(s) = z_i(s) - z_j(s) at local coordinate s of an interval is
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

import functools
import warnings
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .events import IntervalPartition
    from .inference import VariationalState

EUCLIDEAN = "euclidean"
DOT = "dot"


def _endpoints(z: np.ndarray, ii: np.ndarray, jj: np.ndarray, kk0: np.ndarray):
    """(zi_a, zi_b, zj_a, zj_b): z of nodes ii and jj at the start and end of
    interval kk0, gathered as rows of z's (n*(K+1), ...) view.

    ``take`` on flat rows is several times faster than the two-array index.
    """
    flat = z.reshape(-1, *z.shape[2:])
    ends = []
    for nodes in (ii, jj):
        rows = nodes * z.shape[1] + kk0
        ends += [flat.take(rows, axis=0), flat.take(rows + 1, axis=0)]
    return ends


def _pair_ends(vs: VariationalState, ii: np.ndarray, jj: np.ndarray, kk0: np.ndarray):
    """m_a, m_b, v_a, v_b: the mean differences mu_i - mu_j, each (rows, d), and
    the summed variances sigma_i^2 + sigma_j^2 at the start and end of
    interval kk0."""
    mi_a, mi_b, mj_a, mj_b = _endpoints(vs.mu, ii, jj, kk0)
    m_a, m_b = mi_a - mj_a, mi_b - mj_b
    # dropped before the variances are gathered: an in-place form that kept
    # them raised a long sparse eval process's peak RSS by ~4 MB
    del mi_a, mi_b, mj_a, mj_b
    vi_a, vi_b, vj_a, vj_b = _endpoints(vs.sigma ** 2, ii, jj, kk0)
    return m_a, m_b, vi_a + vj_a, vi_b + vj_b


def _pair_scalars(
    vs: VariationalState, ii: np.ndarray, jj: np.ndarray, kk0: np.ndarray
) -> np.ndarray:
    """(5, rows): v_a, v_b, |m_a|^2, m_a.m_b, |m_b|^2 of each row (``_pair_ends``)."""
    m_a, m_b, v_a, v_b = _pair_ends(vs, ii, jj, kk0)
    return np.stack([v_a, v_b, np.vecdot(m_a, m_a), np.vecdot(m_a, m_b), np.vecdot(m_b, m_b)])


def _dot_scalars(
    vs: VariationalState, ii: np.ndarray, jj: np.ndarray, kk0: np.ndarray
) -> np.ndarray:
    """(4 d + 4, rows): mu_i, mu_j at the start and end of interval kk0, each
    coordinate by coordinate, then sigma_i^2, sigma_j^2 likewise."""
    means = [m.T for m in _endpoints(vs.mu, ii, jj, kk0)]
    return np.concatenate(means + [np.stack(_endpoints(vs.sigma ** 2, ii, jj, kk0))])


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

    @functools.cached_property
    def grid(self):
        """(qi, ri, Wv2, Wm2, w2) of the upper triangle of the node grid.

        ``qi``, ``ri`` index the nodes, ``Wv2``, ``Wm2`` are the pair-scalar
        weights and ``w2`` the weights, off-diagonal entries counted twice
        since the grid is symmetric. Built on first use: only the rules rows
        settle on need it, and its size grows as panels^2.
        """
        qi, ri = np.triu_indices(self.s.size)
        return (
            qi, ri, *_bilinear_weights(self.s[qi], self.s[ri]),
            self.w[qi] * self.w[ri] * np.where(qi == ri, 1.0, 2.0),
        )


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
    qi, ri, Wv2, Wm2, w2 = rule.grid
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


def _dot_mean_terms(S: np.ndarray, rule: _Rule, beta: float, d: int):
    """(E[lambda],) at the rule's nodes, (nodes, rows): ``_mean_terms`` for dot."""
    return (_dot_mean(S, rule.s[:, None], beta),)


def _dot_interval_variance(S: np.ndarray, E: np.ndarray, rule: _Rule, d: int) -> np.ndarray:
    """``_interval_variance`` for dot: Cov(lambda(s), lambda(t)) = E_s E_t expm1(g)."""
    qi, ri, _, _, w2 = rule.grid
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
    rule = functools.cache(_Rule)  # one rule per panel count in this call

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


def _exact_rate_std(vs: VariationalState, ii, jj, kk0, s) -> np.ndarray:
    """Posterior std of lambda at local coordinate s, euclidean model, per row.

    With v = v(s) and |m|^2 = |m(s)|^2 (m(s) formed as a vector, so it has no
    cancellation where a pair crosses), Var = E[lambda]^2 expm1(g) with

        g = (d/2) log1p(4v^2 / (1 + 4v)) + 4v |m|^2 / ((1 + 2v)(1 + 4v)).
    """
    d = vs.mu.shape[2]
    m_a, m_b, v_a, v_b = _pair_ends(vs, ii, jj, kk0)
    om = 1.0 - s
    m = om[:, None] * m_a + s[:, None] * m_b
    m2 = np.vecdot(m, m)
    v = om * om * v_a + s * s * v_b
    p, r = 1.0 + 2.0 * v, 1.0 + 4.0 * v
    mean = np.exp(vs.beta - m2 / p - 0.5 * d * np.log(p))
    g = 0.5 * d * np.log1p(4.0 * v * v / r) + 4.0 * v * m2 / (p * r)
    return mean * np.sqrt(np.expm1(g))


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
