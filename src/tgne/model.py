"""Piecewise-linear latent trajectories and the Poisson-process likelihood.

Each node i follows a trajectory that is linear on every interval I_k of the
partition, fully determined by its critical points z_i^(k) at the cut-points.
A pair (i, j) interacts as an inhomogeneous Poisson process whose log rate is
either

* ``euclidean``:  log lambda_ij(t) = beta - ||z_i(t) - z_j(t)||^2, or
* ``dot``:        log lambda_ij(t) = beta + <z_i(t), z_j(t)>.

For the euclidean model the cumulative rate over an interval has a closed
form: on I_k the squared distance is a quadratic gamma(s) = a + (s-mu)^2 /
(2 sigma^2) in the local coordinate s, so the integral reduces to a Gaussian
mass sigma*sqrt(2pi)*[Phi((1-mu)/sigma) - Phi(-mu/sigma)] scaled by
|I_k|*exp(beta - a). Gradients reuse the same machinery through truncated
Gaussian moment integrals, so both value and gradient are exact up to the
accuracy of erfc. The dot-product exponent is a quadratic c0 + c1 s + c2 s^2
as well, of either curvature: its integral is a normal CDF difference (or
an erfcx difference) when c2 < 0, a difference of Dawson functions when
c2 > 0, and a series in c2 when |c2| is small, with the gradient's moments
by parts (``_dot_coeffs``).

The event term needs no per-event rows. Within I_k a position is linear in
s, so for either kind the log rate of a pair is a quadratic form in s with
coefficients (1-s)^2, s(1-s) and s^2 on the endpoint products. The events
of one (pair, interval) therefore enter the NLL and its gradient only
through the weighted sums W = sum w, S1 = sum w s and S2 = sum w s^2.
``fixed_terms`` folds them into one row per (pair, interval) group and
places each group on its pair's survival row, so one blocked kernel
(``_kernel``) adds both terms and scatters their gradient once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import csc_matrix
from scipy.special import dawsn, erfc, erfcx

from .events import EventList, IntervalPartition, Pair, in_sorted, pair_codes, unique_codes
from .expectations import DOT, EUCLIDEAN

SQRT_2PI = np.sqrt(2.0 * np.pi)
INV_SQRT2 = 1.0 / np.sqrt(2.0)

# below this ||delta_a - delta_b|| the quadratic term of gamma is < 1e-18 and
# the closed form would divide by ~0; switch to the exact linear-exponent path
EPS_DEGENERATE = 1e-9

# a dot row whose exponent has curvature |a| = |caa - 2 cab + cbb| below this
# sums a series in a (at most 16 terms); above it the moments by parts lose
# up to (|b| / 2|a|)^2 ulps, b the exponent's slope (see ``_dot_coeffs``)
DOT_SERIES_A = 0.5

# the dot series stop where their terms fall below this, relative to the first
SERIES_TOL = 1e-17

# pairs per block of the survival kernel: with K = 15 a block's cut-major
# temporaries are contiguous (K, 1024) arrays of ~120 kB each, so they stay
# in L2; the block's sums fix the loss bits, so the size is part of the output
SURVIVAL_BLOCK = 1024

# cells of each boolean (node rows x n) table of the negative sampler: 2 MB
# per table whatever n is
SEEN_CELLS = 1 << 21

_KINDS = (EUCLIDEAN, DOT)


def _normal_cdf_diff(u0, u1):
    """Phi(u1) - Phi(u0) for u1 >= u0, stable in both tails.

    The plain erfc(-u) form is accurate everywhere except when both
    arguments sit in the far right tail, where the complementary form
    erfc(u0) - erfc(u1) avoids cancellation.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    u1 = np.asarray(u1, dtype=np.float64)
    out = np.asarray(0.5 * (erfc(-u1 * INV_SQRT2) - erfc(-u0 * INV_SQRT2)))
    far = u0 > 6.0
    if far.any():
        out[far] = 0.5 * (erfc(u0[far] * INV_SQRT2) - erfc(u1[far] * INV_SQRT2))
    return out


def _exp_linear_integrals(c):
    """E_m(c) = integral_0^1 t^m exp(-c t) dt for m = 0, 1.

    Series fallback near c = 0 keeps both integrals accurate to ~1e-16.
    """
    c = np.asarray(c, dtype=np.float64)
    small = np.abs(c) < 1e-4
    c_safe = np.where(small, 1.0, c)
    emc = np.exp(-c)
    e0_direct = -np.expm1(-c) / c_safe
    e1_direct = (e0_direct - emc) / c_safe
    e0_series = 1.0 - c / 2.0 + c * c / 6.0 - c * c * c / 24.0
    e1_series = 0.5 - c / 3.0 + c * c / 8.0 - c * c * c / 30.0
    return np.where(small, e0_series, e0_direct), np.where(small, e1_series, e1_direct)


@dataclass(frozen=True)
class RateModel:
    """Similarity kind plus the global bias beta of the log rate."""

    kind: str
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")


@dataclass(eq=False)
class LatentConfiguration:
    """Critical points z of shape (n, K+1, d) over a partition."""

    z: np.ndarray
    part: IntervalPartition

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.float64)
        if self.z.ndim != 3:
            raise ValueError("z must have shape (n, K+1, d)")
        if self.z.shape[1] != self.part.K + 1:
            raise ValueError(
                f"z has {self.z.shape[1]} cut-points but partition has {self.part.K + 1}"
            )
        if not np.all(np.isfinite(self.z)):
            raise ValueError("latent positions must be finite")

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def K(self) -> int:
        return self.z.shape[1] - 1

    @property
    def d(self) -> int:
        return self.z.shape[2]


def position_at(cfg: LatentConfiguration, i: int, t: float) -> np.ndarray:
    """Trajectory position z_i(t), linear within the containing interval."""
    k, s = cfg.part.local_coord(t)
    return (1.0 - s) * cfg.z[i, k - 1] + s * cfg.z[i, k]


def log_rate(cfg: LatentConfiguration, rm: RateModel, i: int, j: int, t: float) -> float:
    """log lambda_ij(t) under the rate model."""
    if i == j:
        raise ValueError("log_rate is undefined for i == j")
    pi = position_at(cfg, i, t)
    pj = position_at(cfg, j, t)
    if rm.kind == EUCLIDEAN:
        diff = pi - pj
        return float(rm.beta - diff @ diff)
    return float(rm.beta + pi @ pj)


def _closed_coeffs(c0, dav, w2, dadb, lengths, beta, want_grad=False):
    """Closed-form euclidean Lambda per row and its gradient coefficients.

    A row is one (pair, interval) with endpoint differences da and db, given
    by its scalars c0 = ||da||^2, dav = <da, da - db>, w2 = ||da - db||^2 and
    dadb = <da, db> (read on degenerate rows only). ``lengths`` carries
    |I_k|, times any weight, and broadcasts to the rows' shape. Returns
    Lambda and, when ``want_grad``, the coefficients (p, q, r) of its
    gradients
    dLambda/d da = p da + q db and dLambda/d db = q da + r db, from the
    truncated Gaussian moments

        A_m = |I| * exp(beta - a) * integral_0^1 s^m exp(-(s-mu)^2/(2 sigma^2)) ds

    as p = -2 (A0 - 2 A1 + A2), q = -2 (A1 - A2) and r = -2 A2.
    """
    degen = w2 < EPS_DEGENERATE**2
    w2_safe = np.where(degen, 1.0, w2)

    # quadratic exponent gamma(s) = a + (s - mu)^2 / (2 sigma^2)
    sig = 1.0 / np.sqrt(2.0 * w2_safe)
    mu = dav / w2_safe
    a = np.maximum(c0 - dav * mu, 0.0)  # Cauchy-Schwarz; clamp fp noise
    u0 = -mu / sig
    u1 = (1.0 - mu) / sig
    C = SQRT_2PI * _normal_cdf_diff(u0, u1)
    ps = lengths * np.exp(beta - a)
    ps *= sig  # the factor of every moment
    lam = np.asarray(ps * C)
    p = q = r = None
    if want_grad:
        # each temporary is written in place, in the order of operations of
        # the plain expression in the comment, so every bit stays the same;
        # on 0-d rows the in-place operators rebind instead
        g0 = -0.5 * u0  # g0 = exp(-0.5 u0 u0), g1 alike
        g0 *= u0
        g0 = np.exp(g0)
        g1 = -0.5 * u1
        g1 *= u1
        g1 = np.exp(g1)
        s1 = g0 - g1
        s2 = u0 * g0  # s2 = u0 g0 - u1 g1 + C
        s2 -= u1 * g1
        s2 += C
        a1 = mu * C  # A1 = ps (mu C + sig s1); A0 is lam
        a1 += sig * s1
        a1 *= ps
        a2 = mu * mu  # A2 = ps (mu mu C + 2 mu sig s1 + sig sig s2)
        a2 *= C
        t = 2.0 * mu
        t *= sig
        t *= s1
        a2 += t
        t = sig * sig
        t *= s2
        a2 += t
        a2 *= ps
        r = np.asarray(-2.0 * a2)
        q = a1 - a2  # q = -2 (A1 - A2)
        q *= -2.0
        q = np.asarray(q)
        a1 *= 2.0
        p = lam - a1  # p = -2 (A0 - 2 A1 + A2)
        p += a2
        p *= -2.0
        p = np.asarray(p)

    if degen.any():
        # linear exponent gamma(s) ~= c0 + c1 s when da ~= db, on those rows only
        c0_d = c0[degen]
        e0, e1 = _exp_linear_integrals(2.0 * (dadb[degen] - c0_d))
        pref_d = np.broadcast_to(lengths, degen.shape)[degen] * np.exp(beta - c0_d)
        lam[degen] = pref_d * e0
        if want_grad:
            a1_d = pref_d * e1
            p[degen] = -2.0 * (lam[degen] - 2.0 * a1_d)
            q[degen] = -2.0 * a1_d
            r[degen] = 0.0
    return lam, p, q, r


def _exp_power_integrals(b, kmax):
    """F_k(b) = integral_0^1 s^k exp(b s) ds for k = 0..kmax, stacked on a new first axis.

    From F_k = (e^b - k F_(k-1)) / b. Where |b| > kmax + 1 the recursion runs
    forward from F_0 = expm1(b) / b, each step shrinking the error it carries;
    elsewhere it runs backward, F_(k-1) = (e^b - b F_k) / k, from F_k = 0 at
    the k past which the start's error has shrunk below SERIES_TOL.
    """
    b = np.asarray(b, dtype=np.float64)
    out = np.empty((kmax + 1,) + b.shape)
    far = np.abs(b) > kmax + 1
    bn = np.where(far, 0.0, b)  # the far rows are written by the forward pass
    ebn = np.exp(bn)
    f = np.zeros(b.shape)
    start, shrink, bmax = kmax + 1, 1.0, float(np.abs(bn).max(initial=0.0))
    while shrink > SERIES_TOL:
        start += 1
        shrink *= bmax / start
    for k in range(start, 0, -1):
        f = (ebn - bn * f) / k
        if k <= kmax + 1:
            out[k - 1] = f
    if far.any():
        bf = b[far]
        ebf = np.exp(bf)
        f = np.expm1(bf) / bf
        out[0, far] = f
        for k in range(1, kmax + 1):
            f = (ebf - k * f) / bf
            out[k, far] = f
    return out


def _dot_series_moments(a, b, count):
    """[M_0, .., M_(count-1)] with M_m = sum_n a^n / n! F_(m+2n)(b), over the n
    with max |a|^n / n! above SERIES_TOL."""
    terms, term, amax = 0, 1.0, float(np.abs(a).max(initial=0.0))
    while term > SERIES_TOL:
        terms += 1
        term *= amax / terms
    F = _exp_power_integrals(b, 2 * terms)
    moments = [np.zeros(a.shape) for _ in range(count)]
    coef = np.ones(a.shape)
    for n in range(terms):
        for m, total in enumerate(moments):
            total += coef * F[m + 2 * n]
        coef = coef * a / (n + 1)
    return moments


def _dot_gauss_moments(a, b, d1, count):
    """(shift, [M_0, .., M_(count-1)]): the moments of exp(b s + a s^2 - shift)
    on [0, 1] for |a| >= DOT_SERIES_A, where d1 = a + b <= 0 is the exponent
    at s = 1 and shift is the exponent's peak when it lies inside, else 0."""
    mu = -b / (2.0 * a)  # the exponent's vertex: at most 1/2 when a < 0, at least 1/2 when a > 0
    sig = 1.0 / np.sqrt(2.0 * np.abs(a))
    u0 = -mu / sig
    u1 = (1.0 - mu) / sig
    bump = (a < 0.0) & (u0 <= 0.0)
    shift = np.where(bump, 0.5 * u0 * u0, 0.0)
    g0 = np.exp(-shift)
    g1 = np.exp(d1 - shift)
    m0 = np.where(
        a > 0.0,
        (g1 * dawsn(u1 * INV_SQRT2) - g0 * dawsn(u0 * INV_SQRT2)) * (sig * np.sqrt(2.0)),
        np.where(
            bump,
            SQRT_2PI * sig * _normal_cdf_diff(u0, u1),
            np.sqrt(0.5 * np.pi) * sig * (erfcx(np.maximum(u0, 0.0) * INV_SQRT2)
                                         - g1 * erfcx(np.maximum(u1, 0.0) * INV_SQRT2)),
        ),
    )
    moments = [m0]
    if count > 1:
        m1 = (g1 - g0 - b * m0) / (2.0 * a)
        moments += [m1, (g1 - m0 - b * m1) / (2.0 * a)]
    return shift, moments


def _dot_coeffs(caa, cab, cbb, beta, lengths, want_grad=False):
    """Exact dot-product Lambda per row and its gradient coefficients.

    A row is one (pair, interval) with caa = <z_ia, z_ja>, cab = (<z_ia, z_jb>
    + <z_ib, z_ja>) / 2 and cbb = <z_ib, z_jb>, so the log rate is beta +
    Q(s), Q(s) = (1-s)^2 caa + 2 s(1-s) cab + s^2 cbb. ``lengths`` carries
    |I_k|, times any weight. Returns Lambda and, when ``want_grad``, the
    coefficients (p, q, r) = dLambda/dcaa, dLambda/d(2 cab), dLambda/dcbb,
    which are A0 - 2 A1 + A2, A1 - A2 and A2 for the moments

        A_m = |I| * exp(beta) * integral_0^1 s^m exp(Q(s)) ds.

    The moments M_m = integral_0^1 s'^m exp(Q - e0 - shift) ds' are taken
    from the end where Q is larger (s' = 1 - s when cbb > caa), where Q = e0
    + b s' + a s'^2 with a = caa - 2 cab + cbb, so b <= -a; shift lifts e0
    to Q's peak when that lies inside, so nothing overflows unless Lambda
    does. By the curvature a:

    * |a| < DOT_SERIES_A: a series in a (``_dot_series_moments``);
    * a < 0: a Gaussian bump; M_0 is a normal CDF difference, or when its
      peak lies before the interval, an erfcx difference;
    * a > 0: M_0 = [e^(Q(1) - e0) D(y1) - D(y0)] / sqrt(a) with Dawson's D.

    In the last two (``_dot_gauss_moments``) M_1 and M_2 follow by parts,
    from b M_0 + 2a M_1 = g(1) - g(0) and b M_1 + 2a M_2 = g(1) - M_0, g the
    scaled integrand.
    """
    shape = np.broadcast(caa, cab, cbb, lengths).shape
    caa, cab, cbb, lengths = (
        np.broadcast_to(np.asarray(x, dtype=np.float64), shape).ravel()
        for x in (caa, cab, cbb, lengths)
    )
    count = 3 if want_grad else 1
    flip = cbb > caa
    e0 = np.maximum(caa, cbb)
    b = 2.0 * (cab - e0)
    a = caa - 2.0 * cab + cbb
    series = np.abs(a) < DOT_SERIES_A
    M = np.empty((count, a.size))
    M[:, series] = _dot_series_moments(a[series], b[series], count)
    shift = np.zeros(a.size)
    rest = ~series
    shift[rest], M[:, rest] = _dot_gauss_moments(
        a[rest], b[rest], np.minimum(caa, cbb)[rest] - e0[rest], count
    )
    pref = lengths * np.exp(beta + e0 + shift)
    lam = (pref * M[0]).reshape(shape)
    if not want_grad:
        return lam, None, None, None
    p = pref * (M[0] - 2.0 * M[1] + M[2])
    r = pref * M[2]
    return (lam, np.where(flip, r, p).reshape(shape), (pref * (M[1] - M[2])).reshape(shape),
            np.where(flip, p, r).reshape(shape))


def _rate_batch(zi_a, zi_b, zj_a, zj_b, beta, lengths, kind):
    """Exact cumulative rate of either kind for batched endpoints (..., d)."""

    def dot(x, y):
        return np.einsum("...d,...d->...", x, y)

    if kind == EUCLIDEAN:
        da, db = zi_a - zj_a, zi_b - zj_b
        v = da - db
        lam, _, _, _ = _closed_coeffs(
            dot(da, da), dot(da, v), dot(v, v), dot(da, db), lengths, beta
        )
        return lam
    lam, _, _, _ = _dot_coeffs(dot(zi_a, zj_a), 0.5 * (dot(zi_a, zj_b) + dot(zi_b, zj_a)),
                               dot(zi_b, zj_b), beta, lengths)
    return lam


def cumulative_rate_closed(
    cfg: LatentConfiguration, rm: RateModel, i: int, j: int, k: int
) -> float:
    """Closed-form Lambda_ij(I_k) of either rate model (k 1-based)."""
    a, b = cfg.part.bounds(k)
    z = cfg.z
    return float(_rate_batch(z[i, k - 1], z[i, k], z[j, k - 1], z[j, k], rm.beta, b - a, rm.kind))


@dataclass(frozen=True)
class SamplingPlan:
    """How the likelihood sums over pairs.

    ``None`` means the full likelihood. ``negatives_per_node`` switches the
    never-interacting survival terms to a reweighted per-node subsample.
    ``excluded_pairs`` (e.g. held-out validation/test pairs; any pair set
    that ``pair_codes`` reads) are dropped from the likelihood entirely and
    never appear in negative pools.
    """

    negatives_per_node: Optional[int] = None
    seed: int = 0
    excluded_pairs: Iterable[Pair] | np.ndarray = frozenset()

    @classmethod
    def full(cls) -> "SamplingPlan":
        return cls()


@dataclass(eq=False)
class _Draw:
    """A negatives plan's per-node draw: node ``nodes[r]`` takes ``take[r]``
    of its ``pool[r]`` free partners (``blocked`` and ``starts`` as in
    ``_draw_partners``), each drawn pair weighing ``neg_w[r]``."""

    n: int
    nodes: np.ndarray
    pool: np.ndarray
    take: np.ndarray
    neg_w: np.ndarray
    blocked: np.ndarray
    starts: np.ndarray


@dataclass(eq=False)
class _Terms:
    """Realized likelihood terms: weighted survival pairs and event groups.

    Each event row is one (pair, interval) group, in ascending order of the
    code ``(ev_i * n + ev_j) * K + ev_k0``, holding the weighted moments of
    its events' local coordinates s: ev_w0 = sum w, ev_w1 = sum w s and
    ev_w2 = sum w s^2. ``ev_cell`` places each group on the survival rows:
    p * K + ev_k0, p the row of its pair in pair_i / pair_j; it ascends
    with the groups. ``pair_incidence`` is the signed (n, P) CSC matrix
    with +1 at (pair_i[p], p) and -1 at (pair_j[p], p): one product with
    it scatters per-pair gradients onto the nodes. A negatives plan's fixed
    part (``fixed_terms``) holds its exact pairs, the ``draw`` still to make
    and no incidence; ``draw_terms`` appends the drawn pairs.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_w: np.ndarray
    ev_i: np.ndarray
    ev_j: np.ndarray
    ev_k0: np.ndarray  # 0-based interval index
    ev_w0: np.ndarray
    ev_w1: np.ndarray
    ev_w2: np.ndarray
    ev_cell: np.ndarray
    pair_incidence: Optional[csc_matrix]
    draw: Optional[_Draw] = None


def _all_pairs(n: int, directed: bool) -> tuple[np.ndarray, np.ndarray]:
    if directed:
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        mask = ii != jj
        return ii[mask].astype(np.int64), jj[mask].astype(np.int64)
    ii, jj = np.triu_indices(n, k=1)
    return ii.astype(np.int64), jj.astype(np.int64)


def _pair_incidence(pair_i: np.ndarray, pair_j: np.ndarray, n: int) -> csc_matrix:
    """Signed (n, P) incidence: +1 at (pair_i[p], p), -1 at (pair_j[p], p).

    Column p holds exactly its two entries, so the CSC arrays are written
    out directly, without a sort.
    """
    P = pair_i.size
    return csc_matrix(
        (np.tile([1.0, -1.0], P), np.column_stack([pair_i, pair_j]).ravel(),
         np.arange(0, 2 * P + 1, 2)),
        shape=(n, P),
    )


def _draw_partners(
    rng: np.random.Generator, nodes: np.ndarray, pool: np.ndarray, take: np.ndarray,
    blocked: np.ndarray, starts: np.ndarray, n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """For each row r, a uniform sample without replacement of ``take[r]`` of
    node ``nodes[r]``'s ``pool[r]`` free partners, as (row, partner) pairs
    ascending by row, then partner.

    Node i's blocked partners are its ascending codes i * n + partner in
    ``blocked[starts[i]:starts[i + 1]]``; the rest are free, and its rank r
    is its r-th free partner. Floyd's algorithm draws the ranks for all rows
    at once: a row that draws d ranks takes d steps, and at step s it draws
    t uniform on 0..h, h = pool - d + s, in one ``rng.integers`` call for all
    rows still drawing, and keeps h instead of t when t is already picked,
    which leaves a uniform d-subset. A boolean table of rows by ranks holds
    the picks, so a repeat is one lookup. A row draws d = min(take,
    pool - take): when take > pool / 2 it draws the partners it leaves out,
    and take == pool takes the whole pool with no draw. Rows go through the
    tables in chunks of at most ``SEEN_CELLS`` cells.
    """
    complement = 2 * take > pool
    draws = np.where(complement, pool - take, take)
    # rank r of node i is r plus node i's blocked partners below it: its
    # blocked codes with at most r free partners before them
    free_before = blocked - np.arange(blocked.size) + np.repeat(starts[:-1], np.diff(starts))
    chunk = max(1, SEEN_CELLS // max(n, 1))
    rows = [np.empty(0, dtype=np.int64)]
    partners = [np.empty(0, dtype=np.int64)]
    for lo in range(0, nodes.size, chunk):
        sl = slice(lo, lo + chunk)
        node, d = nodes[sl], draws[sl]
        seen = np.zeros(d.size * n, dtype=bool)  # row-major (rows x ranks)
        cell = np.arange(d.size) * n  # the index of each row's rank 0
        h = pool[sl] - d  # each row's bound at its first step
        picks = [np.empty(0, dtype=np.int64)]
        stops = np.bincount(d)  # stops[s] > 0: some rows draw no more from step s
        for s in range(stops.size - 1):
            if stops[s]:
                keep = d > s
                d, cell, h = d[keep], cell[keep], h[keep]
            t = rng.integers(h + 1)
            at = cell + np.where(seen[cell + t], h, t)
            seen[at] = True
            picks.append(at)
            h += 1
        r, rank = np.divmod(np.sort(np.concatenate(picks)), n)
        i = node[r]
        j = rank + np.searchsorted(free_before, i * n + rank, side="right") - starts[i]
        comp = complement[sl]
        out = comp[r]  # the ranks that complement rows leave out

        # a complement row takes its free partners but the drawn ones
        c = np.flatnonzero(comp)
        first, count = starts[node[c]], np.diff(starts)[node[c]]
        # the positions of these rows' blocked codes, one run per row
        run = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        free = np.ones((c.size, n), dtype=bool)
        free[np.repeat(np.arange(c.size), count), blocked[run] % n] = False
        free[np.searchsorted(c, r[out]), j[out]] = False
        rc, jc = np.nonzero(free)
        row = np.concatenate([r[~out], c[rc]])
        order = np.argsort(row, kind="stable")  # two ascending runs: one merge
        rows.append(row[order] + lo)
        partners.append(np.concatenate([j[~out], jc])[order])
    return np.concatenate(rows), np.concatenate(partners)


def fixed_terms(ev: EventList, part: IntervalPartition, plan: SamplingPlan) -> _Terms:
    """Everything of ``realize_plan`` but the draw: the plan's seed is not read.

    The exact pairs, each weighing 1, lead the survival rows: every pair of
    a full plan, whose terms are then complete, or the interacting pairs of
    a negatives plan, which carries its ``_Draw``. A fit builds this once
    and calls ``draw_terms`` each epoch.
    """
    n = ev.n
    excl_codes = pair_codes(plan.excluded_pairs, n, ev.directed)
    if plan.negatives_per_node is not None and plan.negatives_per_node < 1:
        raise ValueError(f"negatives_per_node must be >= 1, got {plan.negatives_per_node}")

    draw = None
    if plan.negatives_per_node is None:
        pair_i, pair_j = _all_pairs(n, ev.directed)
        row_codes = pair_i * n + pair_j  # ascending, in triu or meshgrid order
        if excl_codes.size:
            keep = ~in_sorted(row_codes, excl_codes)
            pair_i, pair_j, row_codes = pair_i[keep], pair_j[keep], row_codes[keep]
    else:
        pos_codes = unique_codes(ev.src * n + ev.dst)
        if ev.directed and pos_codes.size:
            # negative pools are dyad-level, so the exact survival terms must
            # cover both orientations of any dyad that interacts at all
            rev = (pos_codes % n) * n + pos_codes // n
            pos_codes = unique_codes(np.concatenate([pos_codes, rev]))
        if excl_codes.size:
            pos_codes = pos_codes[~in_sorted(pos_codes, excl_codes)]
        row_codes = pos_codes  # the leading rows; every event pair is among them
        pair_i, pair_j = np.divmod(pos_codes, n)

        # blocked (node, partner) codes: event partners and excluded pairs in
        # both orientations, and the node itself; node i owns [i*n, (i+1)*n)
        src = np.concatenate([ev.src, excl_codes // n])
        dst = np.concatenate([ev.dst, excl_codes % n])
        blocked = unique_codes(np.concatenate(
            [src * n + dst, dst * n + src, np.arange(n, dtype=np.int64) * (n + 1)]
        ))
        starts = np.searchsorted(blocked, np.arange(n + 1, dtype=np.int64) * n)
        pool = n - np.diff(starts)
        nodes = np.flatnonzero(pool > 0)
        pool = pool[nodes]
        take = np.minimum(plan.negatives_per_node, pool)
        half = 1.0 if ev.directed else 0.5
        draw = _Draw(n, nodes, pool, take, half * pool / take, blocked, starts)

    if ev.m:
        k1, s = part.local_coord(ev.time)
        K = part.K
        k0 = np.atleast_1d(k1).astype(np.int64) - 1
        s = np.atleast_1d(s)
        groups, group_of = np.unique((ev.src * n + ev.dst) * K + k0, return_inverse=True)
        # every event weighs 1: ev_w0 counts a group's events
        ev_w0 = np.bincount(group_of, minlength=groups.size).astype(np.float64)
        ev_w1 = np.bincount(group_of, weights=s, minlength=groups.size)
        ev_w2 = np.bincount(group_of, weights=s * s, minlength=groups.size)
        pair, ev_k0 = np.divmod(groups, K)
        if excl_codes.size:
            # an excluded pair's events make up groups of their own: drop those,
            # testing the ascending groups rather than every event
            own = ~in_sorted(pair, excl_codes)
            pair, ev_k0, ev_w0, ev_w1, ev_w2 = (x[own] for x in (pair, ev_k0, ev_w0, ev_w1, ev_w2))
        ev_i, ev_j = np.divmod(pair, n)
        ev_cell = np.searchsorted(row_codes, pair) * K + ev_k0
    else:
        ev_i = ev_j = ev_k0 = ev_cell = np.empty(0, dtype=np.int64)
        ev_w0 = ev_w1 = ev_w2 = np.empty(0, dtype=np.float64)

    # a negatives plan's incidence must cover its drawn pairs: draw_terms builds it
    incidence = _pair_incidence(pair_i, pair_j, n) if draw is None else None
    return _Terms(pair_i, pair_j, np.ones(pair_i.size), ev_i, ev_j, ev_k0, ev_w0, ev_w1, ev_w2,
                  ev_cell, incidence, draw)


def draw_terms(fixed: _Terms, seed: int) -> _Terms:
    """The realized terms of a plan's fixed part under ``seed``: ``fixed``
    itself for a full plan; for a negatives plan, a copy with each node's
    drawn partners (``_draw_partners``) after the exact pairs, their weights
    and the incidence of all its pairs. ``fixed`` is never written, so it
    serves any number of draws.
    """
    d = fixed.draw
    if d is None:
        return fixed
    row, partner = _draw_partners(np.random.default_rng(seed), d.nodes, d.pool, d.take,
                                  d.blocked, d.starts, d.n)
    pair_i = np.concatenate([fixed.pair_i, d.nodes[row]])
    pair_j = np.concatenate([fixed.pair_j, partner])
    return replace(fixed, pair_i=pair_i, pair_j=pair_j,
                   pair_w=np.concatenate([fixed.pair_w, d.neg_w[row]]),
                   pair_incidence=_pair_incidence(pair_i, pair_j, d.n), draw=None)


def realize_plan(ev: EventList, part: IntervalPartition, plan: SamplingPlan) -> _Terms:
    """Materialize a sampling plan into weighted survival and event terms.

    Deterministic given the plan's seed: ``draw_terms(fixed_terms(ev, part,
    plan), plan.seed)``. Under ``negatives_per_node`` = S, each node i
    keeps its interacting pairs and draws take_i = min(S, pool_i) partners,
    uniformly without replacement, from its pool: the nodes it never meets
    and that no excluded pair joins it to (``_draw_partners`` says how).

    In undirected mode a sampled never-interacting pair carries weight
    pool_i / (2 * take_i): pools are per-node over all partners, so each
    unordered pair can be drawn from both endpoints, and the halving makes
    the estimator exact when take_i = pool_i and unbiased otherwise.

    Raises ``ValueError`` for ``negatives_per_node`` < 1.
    """
    return draw_terms(fixed_terms(ev, part, plan), plan.seed)


def _kernel(z, beta, kind, lengths, terms, want_grad):
    """(Lambda, Q, dz): the weighted survival sum Lambda, the events' part Q of
    -sum_m w_m log lambda(t_m) without its -beta W, and when ``want_grad``
    the gradient of Lambda + Q in z.

    The pairs run in blocks of SURVIVAL_BLOCK, laid out cut-major: each
    latent coordinate of a block is one contiguous (K+1, pairs) array, so
    interval k's ends are its rows k and k+1 and every per-row scalar and
    coefficient is a contiguous (K, pairs) array. A block's rows reduce to
    those scalars, whose coefficients (p, q, r) give the gradient at both
    ends of each interval. A block that holds event groups takes their cells
    (k0 * pairs + row, from ``ev_cell``) from the same scalars for their
    value and adds their coefficients into (p, q, r) (see
    ``nll_value_grad``). Interval k's b-end and interval k+1's a-end are the
    same cut-point, so both sum into one per-cut gradient, built per block
    and coordinate in one (K+1, SURVIVAL_BLOCK) buffer and written into G,
    laid out (P, d, K+1): P (K+1) d floats, the one array that grows with
    P. One product with the plan's pair incidence scatters G onto the
    nodes. A dot pair's two ends get different gradients, G_i and G_j, each
    scattered through its end of the incidence.

    Every float is the one the pair-major layout gave: Lambda sums each
    block in (pair, interval) order, from a (pairs, K) copy, and the event
    cells are unique, so adding into them by index adds once per cell.
    """
    n, kp1, d = z.shape
    K = kp1 - 1
    P = terms.pair_i.size
    zc = z.transpose(2, 1, 0).copy()  # (d, K+1, n): coordinate c at cut k is zc[c, k]
    euclid = kind == EUCLIDEAN
    W, S1, S2 = terms.ev_w0, terms.ev_w1, terms.ev_w2
    abc = (W - 2.0 * S1 + S2, S1 - S2, S2)  # weighted sums of (1-s)^2, s(1-s), s^2
    grad_abc = [(2.0 if euclid else -1.0) * x for x in abc] if want_grad else None
    # the groups of block b are bounds[b]:bounds[b + 1], as ev_cell ascends
    bounds = np.searchsorted(terms.ev_cell, np.arange(0, P + SURVIVAL_BLOCK, SURVIVAL_BLOCK) * K)
    ev_pair = terms.ev_cell // K
    if want_grad:
        G_i = np.empty((P, d, kp1))
        G_j = None if euclid else np.empty((P, d, kp1))
        buf = np.empty((kp1, min(P, SURVIVAL_BLOCK)))
    lam_sum = quad = 0.0
    for b, a in enumerate(range(0, P, SURVIVAL_BLOCK)):
        sl = slice(a, a + SURVIVAL_BLOCK)
        pi = terms.pair_i[sl]
        pj = terms.pair_j[sl]
        B = pi.size
        wlen = lengths[:, None] * terms.pair_w[sl]
        if euclid:
            D = zc.take(pi, axis=2)
            D -= zc.take(pj, axis=2)
            c0 = dav = w2 = 0.0
            for x in D:
                xa, xb = x[:-1], x[1:]
                v = xa - xb
                c0 = c0 + xa * xa
                dav = dav + xa * v
                w2 = w2 + v * v
            lam, p, q, r = _closed_coeffs(c0, dav, w2, c0 - dav, wlen, beta, want_grad)
        else:
            Zi = zc.take(pi, axis=2)
            Zj = zc.take(pj, axis=2)
            caa = cbb = cab = 0.0
            for xi, xj in zip(Zi, Zj):
                prod = xi * xj
                caa = caa + prod[:-1]
                cbb = cbb + prod[1:]
                cab = cab + (xi[:-1] * xj[1:] + xi[1:] * xj[:-1])
            lam, p, q, r = _dot_coeffs(caa, 0.5 * cab, cbb, beta, wlen, want_grad)
        lam_sum += float(lam.T.copy().sum())  # in (pair, interval) order
        g = slice(bounds[b], bounds[b + 1])
        if g.stop > g.start:
            cells = terms.ev_k0[g] * B + (ev_pair[g] - a)  # flat indices into the block's (K, rows)
            if euclid:
                # sum_m w_m ||da - s_m (da - db)||^2
                quad += float(W[g] @ c0.take(cells) - 2.0 * (S1[g] @ dav.take(cells))
                              + S2[g] @ w2.take(cells))
            else:
                # -sum_m w_m <(1-s_m) z_ia + s_m z_ib, (1-s_m) z_ja + s_m z_jb>
                quad -= float(abc[0][g] @ caa.take(cells) + abc[1][g] @ cab.take(cells)
                              + abc[2][g] @ cbb.take(cells))
            if want_grad:
                for x, y in zip((p, q, r), grad_abc):
                    x.reshape(-1)[cells] += y[g]  # fresh C-order x: a view; cells unique
        if want_grad:
            # per coordinate, interval k's a-end p xa + q xb and interval
            # k-1's b-end q xa + r xb sum into the gradient at cut k
            out = buf[:, :B]
            for G, X in ((G_i, D),) if euclid else ((G_i, Zj), (G_j, Zi)):
                for c, x in enumerate(X):
                    xa, xb = x[:-1], x[1:]
                    np.multiply(p, xa, out=out[:-1])
                    out[:-1] += q * xb
                    out[-1] = 0.0
                    t = q * xa
                    t += r * xb
                    out[1:] += t
                    G[sl, c] = out.T
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


def nll_value_grad(
    z: np.ndarray,
    beta: float,
    kind: str,
    part: IntervalPartition,
    terms: _Terms,
    riemann_r: int = 10,
    want_grad: bool = False,
):
    """Negative log-likelihood of the realized terms, optionally with gradient.

    Returns (value, dz, dbeta); dz is None unless ``want_grad``. Both rate
    kinds integrate their survival terms exactly; ``riemann_r`` is accepted
    and ignored, as older callers still pass it. One blocked kernel
    (``_kernel``) runs over the survival pairs in blocks of SURVIVAL_BLOCK
    (1024), laid out cut-major: a block's latent coordinate is one
    contiguous (K+1, 1024) array. Beyond the per-cut gradient, P (K+1) d
    floats and the one array that grows with P, memory stays bounded by the
    block, not by P K.

    The event term rides in the same blocks: each event group sits on its
    pair's survival row (``_Terms.ev_cell``). Its moments W, S1, S2 give
    A = W - 2 S1 + S2, B = S1 - S2 and C = S2. With the row's endpoint
    differences da = z_ia - z_ja, db = z_ib - z_jb a euclidean group
    contributes

        -[beta W - (A ||da||^2 + 2 B <da, db> + C ||db||^2)]

    with gradients 2 (A da + B db) and 2 (B da + C db) in da and db, and a
    dot group -[beta W + A <z_ia, z_ja> + B (<z_ia, z_jb> + <z_ib, z_ja>)
    + C <z_ib, z_jb>]. So a group adds 2 (A, B, C), or -(A, B, C) for dot,
    to its row's survival gradient coefficients (p, q, r), and the one
    pair-incidence product scatters both terms; -beta W and its d/dbeta =
    -W stay scalars. This equals the per-event sum -sum_m w_m log
    lambda(t_m) up to rounding.
    """
    lam, quad, dz = _kernel(z, beta, kind, part.lengths, terms, want_grad)
    W = float(terms.ev_w0.sum())
    return lam + (quad - beta * W), dz, lam - W  # d Lambda / d beta = Lambda


def total_nll(
    cfg: LatentConfiguration,
    rm: RateModel,
    ev: EventList,
    part: IntervalPartition,
    plan: Optional[SamplingPlan] = None,
) -> float:
    """Poisson-process negative log-likelihood under a sampling plan."""
    if plan is None:
        plan = SamplingPlan.full()
    terms = realize_plan(ev, part, plan)
    value, _, _ = nll_value_grad(cfg.z, rm.beta, rm.kind, part, terms)
    return value
