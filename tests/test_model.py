import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from tgne import inference, model
from tgne.events import EventList, IntervalPartition, pair_codes, split_edges
from tgne.model import (
    DOT,
    EPS_DEGENERATE,
    EUCLIDEAN,
    INV_SQRT2,
    SQRT_2PI,
    SURVIVAL_BLOCK,
    LatentConfiguration,
    RateModel,
    SamplingPlan,
    cumulative_rate_closed,
    log_rate,
    nll_value_grad,
    position_at,
    realize_plan,
    total_nll,
    _Terms,
    _closed_coeffs,
    _dot_coeffs,
    _exp_linear_integrals,
    _normal_cdf_diff,
    _pair_incidence,
    _rate_batch,
)

from conftest import (
    canonical_pair,
    cumulative_rate_riemann,
    pair_interval_nll,
    pair_major_kernel,
    pair_times,
    random_events,
    realize_each_plan,
)


def random_config(rng, n=3, K=3, d=2, scale=1.0, part=None):
    part = part or IntervalPartition.uniform(K)
    z = scale * rng.standard_normal((n, part.K + 1, d))
    return LatentConfiguration(z=z, part=part)


def quad_rate(cfg, rm, i, j, k):
    """Adaptive-quadrature oracle for the cumulative rate."""
    a, b = cfg.part.bounds(k)

    def integrand(t):
        return np.exp(log_rate(cfg, rm, i, j, t))

    val, _err = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def normal_cdf(x):
    """Phi(x) as the kernel's CDF difference from -inf."""
    return float(_normal_cdf_diff(-np.inf, x))


class TestNormalCdf:
    def test_reference_values(self):
        assert normal_cdf(0.0) == 0.5
        assert abs(normal_cdf(1.96) - 0.9750021049) < 1e-10
        assert abs(normal_cdf(-1.96) - (1 - 0.9750021049)) < 1e-10

    def test_tail_accuracy_against_mpmath(self):
        import mpmath

        for x in (-9.0, -6.5, 3.0, 6.5, 9.0, 12.0):
            ref = float(mpmath.ncdf(x))
            assert abs(normal_cdf(x) - ref) <= 1e-12 * max(1.0, abs(ref))


class TestPositionAt:
    def test_cut_point_identity(self):
        rng = np.random.default_rng(0)
        cfg = random_config(rng, K=4)
        for k in range(5):
            t = cfg.part.cut_points[k]
            assert np.allclose(position_at(cfg, 1, t), cfg.z[1, k])

    def test_midpoint(self):
        rng = np.random.default_rng(1)
        cfg = random_config(rng, K=3)
        t = 0.5 * (cfg.part.cut_points[1] + cfg.part.cut_points[2])
        assert np.allclose(position_at(cfg, 0, t), 0.5 * (cfg.z[0, 1] + cfg.z[0, 2]))

    def test_against_high_precision_interpolation(self):
        rng = np.random.default_rng(2)
        cfg = random_config(rng, K=5)
        cuts = cfg.part.cut_points.astype(np.longdouble)
        for t in rng.random(50):
            k = cfg.part.interval_of(float(t))
            s = (np.longdouble(t) - cuts[k - 1]) / (cuts[k] - cuts[k - 1])
            ref = (1 - s) * cfg.z[0, k - 1].astype(np.longdouble) + s * cfg.z[0, k].astype(
                np.longdouble
            )
            got = position_at(cfg, 0, float(t))
            assert np.all(np.abs(got - ref.astype(float)) <= 1e-12 * np.maximum(1, np.abs(ref.astype(float))))

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(3)
        cfg = random_config(rng)
        with pytest.raises(ValueError):
            position_at(cfg, 0, 1.2)


class TestLogRate:
    def test_coincident_euclidean_zero(self):
        part = IntervalPartition.uniform(2)
        cfg = LatentConfiguration(np.zeros((2, 3, 2)), part)
        assert log_rate(cfg, RateModel(EUCLIDEAN, 0.0), 0, 1, 0.3) == 0.0

    def test_unit_distance(self):
        part = IntervalPartition.uniform(1)
        z = np.zeros((2, 2, 2))
        z[0, :, 0] = 1.0
        cfg = LatentConfiguration(z, part)
        assert np.isclose(log_rate(cfg, RateModel(EUCLIDEAN, 0.0), 0, 1, 0.5), -1.0)

    def test_dot_product_unit(self):
        part = IntervalPartition.uniform(1)
        z = np.zeros((2, 2, 2))
        z[:, :, 0] = 1.0
        cfg = LatentConfiguration(z, part)
        assert np.isclose(log_rate(cfg, RateModel(DOT, 0.0), 0, 1, 0.5), 1.0)

    def test_self_pair_rejected(self):
        rng = np.random.default_rng(4)
        cfg = random_config(rng)
        with pytest.raises(ValueError):
            log_rate(cfg, RateModel(EUCLIDEAN, 0.0), 1, 1, 0.5)


class TestCumulativeRateClosed:
    def test_stationary_coincident(self):
        part = IntervalPartition.uniform(2)
        cfg = LatentConfiguration(np.zeros((2, 3, 2)), part)
        assert np.isclose(cumulative_rate_closed(cfg, RateModel(EUCLIDEAN, 0.0), 0, 1, 1), 0.5)

    def test_constant_unit_separation(self):
        part = IntervalPartition.uniform(1)
        z = np.zeros((2, 2, 2))
        z[0, :, 0] = 1.0
        cfg = LatentConfiguration(z, part)
        got = cumulative_rate_closed(cfg, RateModel(EUCLIDEAN, 0.0), 0, 1, 1)
        assert np.isclose(got, np.exp(-1.0), rtol=1e-12)

    def test_moving_apart_gaussian_integral(self):
        # int_0^1 exp(-t^2) dt, from the quadrature oracle
        part = IntervalPartition.uniform(1)
        z = np.zeros((2, 2, 2))
        z[0, 1, 0] = 1.0
        cfg = LatentConfiguration(z, part)
        rm = RateModel(EUCLIDEAN, 0.0)
        ref = quad_rate(cfg, rm, 0, 1, 1)
        assert np.isclose(ref, 0.7468241, atol=1e-6)
        assert np.isclose(cumulative_rate_closed(cfg, rm, 0, 1, 1), ref, rtol=1e-9)

    def test_matches_quadrature_on_random_configs(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            K = int(rng.integers(1, 5))
            cfg = random_config(rng, n=2, K=K, d=int(rng.integers(1, 4)))
            rm = RateModel(EUCLIDEAN, float(rng.uniform(-3, 3)))
            k = int(rng.integers(1, K + 1))
            ref = quad_rate(cfg, rm, 0, 1, k)
            got = cumulative_rate_closed(cfg, rm, 0, 1, k)
            assert np.isclose(got, ref, rtol=1e-8)

    def test_degenerate_direction_fallback(self):
        # da == db exactly: constant rate; and nearly equal: still accurate
        part = IntervalPartition.uniform(1)
        z = np.zeros((2, 2, 2))
        z[0, :, 0] = 1.5
        cfg = LatentConfiguration(z, part)
        rm = RateModel(EUCLIDEAN, 0.7)
        assert np.isclose(
            cumulative_rate_closed(cfg, rm, 0, 1, 1), np.exp(0.7 - 1.5**2), rtol=1e-12
        )
        z2 = z.copy()
        z2[0, 1, 0] += 3e-10  # below the degeneracy threshold
        cfg2 = LatentConfiguration(z2, part)
        got = cumulative_rate_closed(cfg2, rm, 0, 1, 1)
        assert np.isclose(got, quad_rate(cfg2, rm, 0, 1, 1), rtol=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            cfg = random_config(rng, n=2, K=2)
            rm = RateModel(EUCLIDEAN, float(rng.uniform(-3, 3)))
            assert cumulative_rate_closed(cfg, rm, 0, 1, 1) >= 0.0


def dot_rows(rng, m):
    """m rows (caa, cab, cbb) of every kind the dot closed form takes apart.

    Curvature c2 = caa - 2 cab + cbb of both signs from 1e-10 to 100, a sixth
    with |c2| < 1e-6, and a sixth concave with the peak outside [0, 1], over
    800 above the interval's start, where exp of the peak overflows."""
    caa, cbb = rng.normal(0.0, 3.0, size=(2, m))
    sign = rng.choice([-1.0, 1.0], size=m)
    c2 = sign * 10.0 ** rng.uniform(-10.0, 2.0, size=m)
    c2[1::6] = sign[1::6] * 10.0 ** rng.uniform(-10.0, -6.0, size=c2[1::6].size)
    far = slice(2, None, 6)
    c2[far] = -rng.uniform(0.6, 2.0, size=c2[far].size)
    vertex = (rng.choice([-1.0, 1.0], size=c2[far].size)
              * np.sqrt(rng.uniform(800.0, 1200.0, size=c2[far].size) / -c2[far]))
    cbb[far] = caa[far] - 2.0 * c2[far] * vertex + c2[far]  # Q(1) = c0 + c1 + c2
    return caa, 0.5 * (caa + cbb - c2), cbb


class TestDotClosedForm:
    def test_matches_quadrature(self):
        caa, cab, cbb = dot_rows(np.random.default_rng(31), 1200)
        beta, length = 0.2, 0.3
        lam, p, q, r = _dot_coeffs(caa, cab, cbb, beta, length, want_grad=True)
        assert np.all(np.isfinite([lam, p, q, r]))
        for row in range(caa.size):
            c0, c1 = caa[row], 2.0 * (cab[row] - caa[row])
            c2 = caa[row] - 2.0 * cab[row] + cbb[row]
            vertex = -c1 / (2 * c2) if c2 < 0 else 0.0
            inside = 0.0 < vertex < 1.0  # the exponent peaks inside the interval
            shift = c0 - c1 * c1 / (4 * c2) if inside else max(c0, c0 + c1 + c2)
            points = [vertex] if inside else None

            def moment(f):
                val, _ = quad(lambda s: f(s) * np.exp(c0 + c1 * s + c2 * s * s - shift),
                              0.0, 1.0, points=points, epsabs=0.0, epsrel=1e-13, limit=200)
                return length * np.exp(beta + shift) * val

            assert lam[row] == pytest.approx(moment(lambda s: 1.0), rel=1e-6, abs=0.0)
            want = [moment(lambda s: (1 - s) ** 2), moment(lambda s: s * (1 - s)),
                    moment(lambda s: s * s)]
            assert [p[row], q[row], r[row]] == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_rows_reach_every_form(self):
        caa, cab, cbb = dot_rows(np.random.default_rng(31), 1200)
        a = caa - 2.0 * cab + cbb
        c1 = 2.0 * (cab - caa)
        assert (np.abs(a) < 1e-6).sum() >= 100
        assert (a > model.DOT_SERIES_A).any() and (a < -model.DOT_SERIES_A).any()
        assert ((np.abs(a) < model.DOT_SERIES_A) & (np.abs(a) > 1e-6)).any()
        # concave rows whose peak lies outside the interval, where exp(peak) overflows
        vertex, peak = -c1 / (2.0 * a), caa - c1 * c1 / (4.0 * a)
        far = (a < -model.DOT_SERIES_A) & ((vertex < 0) | (vertex > 1)) & (peak > 710)
        assert far.sum() >= 100

    def test_cumulative_rate_matches_quadrature(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            cfg = random_config(rng, n=2, K=3, scale=1.5)
            rm = RateModel(DOT, float(rng.uniform(-2, 2)))
            k = int(rng.integers(1, 4))
            got = cumulative_rate_closed(cfg, rm, 0, 1, k)
            assert got == pytest.approx(quad_rate(cfg, rm, 0, 1, k), rel=1e-9, abs=0.0)

    def test_gradient_matches_finite_differences(self):
        # rows of all three forms: z of scale 1 puts a = <dz_i, dz_j> on both
        # sides of the series band
        rng = np.random.default_rng(33)
        n, K, d = 6, 3, 2
        part = IntervalPartition.uniform(K)
        ev = EventList(src=np.array([0, 1, 2]), dst=np.array([3, 4, 5]),
                       time=np.array([0.2, 0.5, 0.9]), n=n, directed=False)
        terms = realize_plan(ev, part, SamplingPlan())
        z = rng.standard_normal((n, K + 1, d))
        zi, zj = z[terms.pair_i], z[terms.pair_j]
        a = np.einsum("pkd,pkd->pk", np.diff(zi, axis=1), np.diff(zj, axis=1))
        assert (a > 0.5).any() and (a < -0.5).any() and (np.abs(a) < 0.5).any()
        _, dz, dbeta = nll_value_grad(z, 0.3, DOT, part, terms, want_grad=True)
        h = 1e-6
        for idx in np.ndindex(z.shape):
            zp, zm = z.copy(), z.copy()
            zp[idx] += h
            zm[idx] -= h
            fd = (nll_value_grad(zp, 0.3, DOT, part, terms)[0]
                  - nll_value_grad(zm, 0.3, DOT, part, terms)[0]) / (2 * h)
            assert abs(dz[idx] - fd) <= 1e-4 * max(abs(fd), 1e-6)
        fd_beta = (nll_value_grad(z, 0.3 + h, DOT, part, terms)[0]
                   - nll_value_grad(z, 0.3 - h, DOT, part, terms)[0]) / (2 * h)
        assert abs(dbeta - fd_beta) <= 1e-4 * abs(fd_beta)


class TestCumulativeRateRiemann:
    def test_constant_rate_exact_for_any_R(self):
        part = IntervalPartition.uniform(4)
        cfg = LatentConfiguration(np.zeros((2, 5, 2)), part)
        rm = RateModel(EUCLIDEAN, 1.3)
        for R in (1, 2, 7, 100):
            got = cumulative_rate_riemann(cfg, rm, 0, 1, 2, R)
            assert np.isclose(got, np.exp(1.3) * 0.25, rtol=1e-12)

    def test_converges_to_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            K = int(rng.integers(1, 4))
            cfg = random_config(rng, n=2, K=K)
            rm = RateModel(EUCLIDEAN, float(rng.uniform(-2, 2)))
            k = int(rng.integers(1, K + 1))
            closed = cumulative_rate_closed(cfg, rm, 0, 1, k)
            approx = cumulative_rate_riemann(cfg, rm, 0, 1, k, 100_000)
            assert abs(approx - closed) <= 1e-4 * abs(closed)

    def test_dot_product_self_convergence(self):
        # the left sum's error halves with each doubling of R, towards the closed form
        rng = np.random.default_rng(8)
        cfg = random_config(rng, n=2, K=3)
        rm = RateModel(DOT, 0.4)
        ref = cumulative_rate_closed(cfg, rm, 0, 1, 2)
        errs = [abs(cumulative_rate_riemann(cfg, rm, 0, 1, 2, 2**p) - ref) for p in range(4, 15)]
        assert all(0.4 < e2 / e1 < 0.6 for e1, e2 in zip(errs, errs[1:]))


class TestPairIntervalNll:
    def test_pure_survival_term(self):
        part = IntervalPartition.uniform(15)
        cfg = LatentConfiguration(np.zeros((2, 16, 2)), part)
        got = pair_interval_nll(cfg, RateModel(EUCLIDEAN, 0.0), 0, 1, 3, [])
        assert np.isclose(got, 1 / 15, rtol=1e-12)

    def test_event_with_zero_log_rate(self):
        part = IntervalPartition.uniform(15)
        cfg = LatentConfiguration(np.zeros((2, 16, 2)), part)
        t = 0.5 * sum(part.bounds(3))
        got = pair_interval_nll(cfg, RateModel(EUCLIDEAN, 0.0), 0, 1, 3, [t])
        assert np.isclose(got, 1 / 15, rtol=1e-12)

    def test_density_oracle(self):
        """exp(-nll) equals the first-principles Poisson-process density."""
        rng = np.random.default_rng(9)
        for _ in range(20):
            K = int(rng.integers(1, 4))
            cfg = random_config(rng, n=2, K=K, scale=0.8)
            rm = RateModel(EUCLIDEAN, float(rng.uniform(-1, 1)))
            k = int(rng.integers(1, K + 1))
            a, b = cfg.part.bounds(k)
            times = np.sort(rng.uniform(a, b, size=int(rng.integers(0, 4))))
            nll = pair_interval_nll(cfg, rm, 0, 1, k, times)
            lam_total = quad_rate(cfg, rm, 0, 1, k)
            density = np.exp(-lam_total) * np.prod(
                [np.exp(log_rate(cfg, rm, 0, 1, float(t))) for t in times]
            )
            assert np.isclose(np.exp(-nll), density, rtol=1e-7)

    def test_times_outside_interval_rejected(self):
        part = IntervalPartition.uniform(4)
        cfg = LatentConfiguration(np.zeros((2, 5, 2)), part)
        with pytest.raises(ValueError):
            pair_interval_nll(cfg, RateModel(EUCLIDEAN, 0.0), 0, 1, 1, [0.9])


class TestTotalNll:
    def test_decomposes_over_pairs(self):
        rng = np.random.default_rng(10)
        ev = random_events(n=3, m=12, seed=11)
        part = IntervalPartition.uniform(3)
        cfg = random_config(rng, n=3, K=3)
        rm = RateModel(EUCLIDEAN, 0.5)
        total = total_nll(cfg, rm, ev, part)
        manual = 0.0
        for i, j in ((0, 1), (0, 2), (1, 2)):
            for k in range(1, 4):
                a, b = part.bounds(k)
                times = [t for t in pair_times(ev, i, j) if a <= t < b or (k == 3 and t == 1.0)]
                manual += pair_interval_nll(cfg, rm, i, j, k, times)
        assert np.isclose(total, manual, rtol=1e-10)

    def test_negative_sampling_full_pool_equals_full(self, ten_node_events):
        rng = np.random.default_rng(12)
        ev = ten_node_events
        part = IntervalPartition.uniform(4)
        cfg = random_config(rng, n=ev.n, K=4)
        rm = RateModel(EUCLIDEAN, 0.2)
        full = total_nll(cfg, rm, ev, part, SamplingPlan.full())
        sampled = total_nll(
            cfg, rm, ev, part, SamplingPlan(negatives_per_node=ev.n, seed=3)
        )
        assert np.isclose(sampled, full, rtol=1e-10)

    def test_negative_sampling_unbiased(self, ten_node_events):
        rng = np.random.default_rng(13)
        ev = ten_node_events
        part = IntervalPartition.uniform(3)
        cfg = random_config(rng, n=ev.n, K=3, scale=0.6)
        rm = RateModel(EUCLIDEAN, 0.1)
        full = total_nll(cfg, rm, ev, part, SamplingPlan.full())
        draws = 2000
        vals = np.empty(draws)
        for s in range(draws):
            vals[s] = total_nll(
                cfg, rm, ev, part, SamplingPlan(negatives_per_node=2, seed=s)
            )
        se = vals.std(ddof=1) / np.sqrt(draws)
        assert abs(vals.mean() - full) < 3 * se

    def test_directed_decomposes_over_ordered_pairs(self):
        rng = np.random.default_rng(30)
        ev = random_events(n=3, m=14, seed=31, directed=True)
        part = IntervalPartition.uniform(2)
        cfg = random_config(rng, n=3, K=2)
        rm = RateModel(EUCLIDEAN, 0.4)
        total = total_nll(cfg, rm, ev, part)
        manual = 0.0
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                times = pair_times(ev, i, j)
                for k in (1, 2):
                    a, b = part.bounds(k)
                    in_k = [t for t in times if a <= t < b or (k == 2 and t == 1.0)]
                    manual += pair_interval_nll(cfg, rm, i, j, k, in_k)
        assert np.isclose(total, manual, rtol=1e-10)

    def test_directed_negative_sampling_full_pool_equals_full(self):
        rng = np.random.default_rng(32)
        ev = random_events(n=6, m=20, seed=33, directed=True)
        part = IntervalPartition.uniform(2)
        cfg = random_config(rng, n=6, K=2)
        rm = RateModel(EUCLIDEAN, 0.1)
        full = total_nll(cfg, rm, ev, part)
        sampled = total_nll(cfg, rm, ev, part, SamplingPlan(negatives_per_node=6, seed=4))
        assert np.isclose(sampled, full, rtol=1e-10)

    def test_directed_negative_sampling_unbiased(self):
        rng = np.random.default_rng(34)
        ev = random_events(n=8, m=18, seed=35, directed=True)
        part = IntervalPartition.uniform(2)
        cfg = random_config(rng, n=8, K=2, scale=0.6)
        rm = RateModel(EUCLIDEAN, 0.1)
        full = total_nll(cfg, rm, ev, part)
        draws = 2000
        vals = np.empty(draws)
        for s in range(draws):
            vals[s] = total_nll(
                cfg, rm, ev, part, SamplingPlan(negatives_per_node=2, seed=s)
            )
        se = vals.std(ddof=1) / np.sqrt(draws)
        assert abs(vals.mean() - full) < 3 * se

    def test_excluded_pairs_drop_their_terms(self, ten_node_events):
        rng = np.random.default_rng(15)
        ev = ten_node_events
        part = IntervalPartition.uniform(2)
        cfg = random_config(rng, n=ev.n, K=2)
        rm = RateModel(EUCLIDEAN, 0.0)
        pair = sorted(ev.unique_pairs())[0]
        excl = total_nll(cfg, rm, ev, part, SamplingPlan(excluded_pairs=frozenset({pair})))
        full = total_nll(cfg, rm, ev, part)
        a, b = pair
        times = pair_times(ev, a, b)
        drop = sum(
            pair_interval_nll(
                cfg, rm, a, b, k,
                [t for t in times if part.interval_of(float(t)) == k],
            )
            for k in range(1, 3)
        )
        assert np.isclose(full - excl, drop, rtol=1e-9)


class TestInvariances:
    def test_translation_invariance(self, ten_node_events):
        rng = np.random.default_rng(16)
        ev = ten_node_events
        part = IntervalPartition.uniform(3)
        cfg = random_config(rng, n=ev.n, K=3)
        rm = RateModel(EUCLIDEAN, 0.3)
        base = total_nll(cfg, rm, ev, part)
        shift = rng.standard_normal(2) * 5
        cfg2 = LatentConfiguration(cfg.z + shift, part)
        assert np.isclose(total_nll(cfg2, rm, ev, part), base, rtol=1e-12)
        t = 0.37
        assert np.isclose(
            log_rate(cfg2, rm, 0, 1, t), log_rate(cfg, rm, 0, 1, t), rtol=1e-12
        )
        assert np.isclose(
            cumulative_rate_closed(cfg2, rm, 0, 1, 2),
            cumulative_rate_closed(cfg, rm, 0, 1, 2),
            rtol=1e-12,
        )

    def test_rotation_invariance(self, ten_node_events):
        rng = np.random.default_rng(17)
        ev = ten_node_events
        part = IntervalPartition.uniform(3)
        cfg = random_config(rng, n=ev.n, K=3)
        rm = RateModel(EUCLIDEAN, -0.4)
        theta = 1.1
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        cfg2 = LatentConfiguration(cfg.z @ rot.T, part)
        assert np.isclose(
            total_nll(cfg2, rm, ev, part), total_nll(cfg, rm, ev, part), rtol=1e-9
        )

    def test_survival_scales_with_beta(self):
        # with no events the whole NLL is survival, which scales by exp(dbeta)
        rng = np.random.default_rng(18)
        part = IntervalPartition.uniform(3)
        cfg = random_config(rng, n=4, K=3)
        ev = EventList(
            src=np.empty(0, dtype=int), dst=np.empty(0, dtype=int),
            time=np.empty(0), n=4,
        )
        rm0 = RateModel(EUCLIDEAN, 0.5)
        rm1 = RateModel(EUCLIDEAN, 1.7)
        v0 = total_nll(cfg, rm0, ev, part)
        v1 = total_nll(cfg, rm1, ev, part)
        assert np.isclose(v1, v0 * np.exp(1.2), rtol=1e-10)

    def test_interval_additivity(self):
        rng = np.random.default_rng(19)
        cfg = random_config(rng, n=2, K=5)
        rm = RateModel(EUCLIDEAN, 0.2)
        total = sum(cumulative_rate_closed(cfg, rm, 0, 1, k) for k in range(1, 6))
        ref = sum(quad_rate(cfg, rm, 0, 1, k) for k in range(1, 6))
        assert np.isclose(total, ref, rtol=1e-9)

    def test_closed_matches_big_riemann(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            cfg = random_config(rng, n=2, K=2)
            rm = RateModel(EUCLIDEAN, float(rng.uniform(-3, 3)))
            closed = cumulative_rate_closed(cfg, rm, 0, 1, 1)
            approx = cumulative_rate_riemann(cfg, rm, 0, 1, 1, 1_000_000)
            assert np.isclose(closed, approx, rtol=1e-5)


# ---------------------------------------------------------------------------
# The kernels against plain reference forms, bit for bit. The references
# evaluate every branch on every row and select with np.where (rate kernel,
# CDF difference), scatter through one flat (row * d + dim) bincount, and
# build negative pools with a per-node range(n) scan over Python sets.
# ---------------------------------------------------------------------------


def ref_normal_cdf_diff(u0, u1):
    base = 0.5 * (erfc(-u1 * INV_SQRT2) - erfc(-u0 * INV_SQRT2))
    tail = 0.5 * (erfc(u0 * INV_SQRT2) - erfc(u1 * INV_SQRT2))
    return np.where(u0 > 6.0, tail, base)


def ref_closed_rate_batch(da, db, beta, lengths, want_grad=False):
    da = np.asarray(da, dtype=np.float64)
    db = np.asarray(db, dtype=np.float64)
    v = da - db
    w2 = np.einsum("...d,...d->...", v, v)
    norm_da2 = np.einsum("...d,...d->...", da, da)
    degen = w2 < EPS_DEGENERATE**2
    w2_safe = np.where(degen, 1.0, w2)
    sig = 1.0 / np.sqrt(2.0 * w2_safe)
    dav = np.einsum("...d,...d->...", da, v)
    mu = dav / w2_safe
    a = np.maximum(norm_da2 - dav * mu, 0.0)
    u0 = -mu / sig
    u1 = (1.0 - mu) / sig
    C = SQRT_2PI * ref_normal_cdf_diff(u0, u1)
    pref = lengths * np.exp(beta - a)
    lam_nd = pref * sig * C
    c0 = norm_da2
    c1 = 2.0 * (np.einsum("...d,...d->...", da, db) - c0)
    e0, e1 = _exp_linear_integrals(c1)
    pref_d = lengths * np.exp(beta - c0)
    lam_d = pref_d * e0
    lam = np.where(degen, lam_d, lam_nd)
    if not want_grad:
        return lam, None, None
    g0 = np.exp(-0.5 * u0 * u0)
    g1 = np.exp(-0.5 * u1 * u1)
    s1 = g0 - g1
    s2 = u0 * g0 - u1 * g1 + C
    a0 = pref * sig * C
    a1 = pref * sig * (mu * C + sig * s1)
    a2 = pref * sig * (mu * mu * C + 2.0 * mu * sig * s1 + sig * sig * s2)
    ga_nd = -2.0 * (da * (a0 - 2.0 * a1 + a2)[..., None] + db * (a1 - a2)[..., None])
    gb_nd = -2.0 * (da * (a1 - a2)[..., None] + db * a2[..., None])
    a1_d = pref_d * e1
    ga_d = -2.0 * (da * (lam_d - 2.0 * a1_d)[..., None] + db * a1_d[..., None])
    gb_d = -2.0 * da * a1_d[..., None]
    mask = degen[..., None]
    return lam, np.where(mask, ga_d, ga_nd), np.where(mask, gb_d, gb_nd)


def closed_rate_batch(da, db, beta, lengths, want_grad=False):
    """Lambda by ``_rate_batch`` and, when ``want_grad``, its gradients in da
    and db composed from ``_closed_coeffs``' (p, q, r): (p da + q db, q da + r db)."""
    lam = _rate_batch(da, db, np.zeros_like(da), np.zeros_like(db), beta, lengths, EUCLIDEAN)
    if not want_grad:
        return lam, None, None
    v = da - db

    def dot(x, y):
        return np.einsum("...d,...d->...", x, y)

    _, p, q, r = _closed_coeffs(dot(da, da), dot(da, v), dot(v, v), dot(da, db), lengths, beta,
                                True)
    p, q, r = p[..., None], q[..., None], r[..., None]
    return lam, p * da + q * db, q * da + r * db


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


ROW_KINDS = ("plain", "exact_degenerate", "near_degenerate", "far_tail")


def mixed_rows(rng, kinds, d):
    """(da, db) rows: generic, da == db, |da - db| ~ 1e-10, and u0 > 6."""
    da = np.empty((len(kinds), d))
    db = np.empty((len(kinds), d))
    for r, kind in enumerate(kinds):
        x = rng.standard_normal(d)
        if kind == "plain":
            y = rng.standard_normal(d)
        elif kind == "exact_degenerate":
            y = x.copy()
        elif kind == "near_degenerate":
            step = rng.standard_normal(d)
            y = x + 1e-10 * step / np.linalg.norm(step)
        else:
            # da = p + mu v with p orthogonal to v, so the closest approach
            # sits at s = mu < 0 and u0 = -mu sqrt(2 |v|^2) > 6
            v = rng.standard_normal(d)
            v *= rng.uniform(1.0, 3.0) / np.linalg.norm(v)
            p = rng.standard_normal(d)
            p -= (p @ v) / (v @ v) * v
            mu = -rng.uniform(8.0, 20.0) / np.sqrt(2.0 * (v @ v))
            x = 0.3 * p + mu * v
            y = x - v
        da[r], db[r] = x, y
    return da, db


class TestKernelsMatchBothBranchForms:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 9),
        P=st.integers(1, 7),
        K=st.integers(1, 5),
        beta=st.floats(-2.0, 2.0),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=35),
    )
    def test_closed_form_pk_rows(self, seed, d, P, K, beta, kinds):
        rng = np.random.default_rng(seed)
        idx = rng.integers(len(kinds), size=P * K)
        da, db = mixed_rows(rng, [kinds[r] for r in idx], d)
        da, db = da.reshape(P, K, d), db.reshape(P, K, d)
        lengths = rng.uniform(0.01, 0.5, size=K)[None, :]
        for want_grad in (False, True):
            got = closed_rate_batch(da, db, beta, lengths, want_grad)
            want = ref_closed_rate_batch(da, db, beta, lengths, want_grad)
            for g, w in zip(got, want):
                if w is None:
                    assert g is None
                else:
                    assert_bits_equal(g, w)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 9),
        kind=st.sampled_from(ROW_KINDS),
        beta=st.floats(-2.0, 2.0),
        length=st.floats(0.01, 1.0),
    )
    def test_closed_form_single_row(self, seed, d, kind, beta, length):
        # (d,) inputs give 0-d results, as cumulative_rate_closed passes them
        da, db = mixed_rows(np.random.default_rng(seed), [kind], d)
        got = closed_rate_batch(da[0], db[0], beta, length, True)
        want = ref_closed_rate_batch(da[0], db[0], beta, length, True)
        assert got[0].shape == ()
        for g, w in zip(got, want):
            assert_bits_equal(g, w)

    def test_mixed_rows_cover_every_branch(self):
        rng = np.random.default_rng(0)
        da, db = mixed_rows(rng, ROW_KINDS, 3)
        v = da - db
        w2 = np.einsum("rd,rd->r", v, v)
        assert list(w2 < EPS_DEGENERATE**2) == [False, True, True, False]
        u0 = -(np.einsum("rd,rd->r", da, v) / w2[3]) * np.sqrt(2.0 * w2[3])
        assert u0[3] > 6.0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 9),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=30),
    )
    def test_normal_cdf_diff(self, seed, d, kinds):
        da, db = mixed_rows(np.random.default_rng(seed), kinds, d)
        v = da - db
        w2 = np.maximum(np.einsum("rd,rd->r", v, v), EPS_DEGENERATE**2)
        sig = 1.0 / np.sqrt(2.0 * w2)
        mu = np.einsum("rd,rd->r", da, v) / w2
        u0, u1 = -mu / sig, (1.0 - mu) / sig
        assert_bits_equal(_normal_cdf_diff(u0, u1), ref_normal_cdf_diff(u0, u1))
        for a, b in zip(u0, u1):
            assert_bits_equal(_normal_cdf_diff(a, b), ref_normal_cdf_diff(a, b))


def ref_negative_plan(ev, plan):
    """A negatives plan in list form: the exact pairs as (pair_i, pair_j,
    pair_w), and (node, pool, take, weight) for each sampled node that has a
    non-empty pool, ascending by node."""
    n = ev.n
    excl_codes = np.asarray(
        sorted(
            a * n + b
            for a, b in (canonical_pair(x, y, ev.directed) for x, y in plan.excluded_pairs)
        ),
        dtype=np.int64,
    )
    pos_codes = np.unique(ev.src.astype(np.int64) * n + ev.dst.astype(np.int64))
    if ev.directed:
        rev = (pos_codes % n) * n + pos_codes // n
        pos_codes = np.unique(np.concatenate([pos_codes, rev]))
    if excl_codes.size:
        pos_codes = pos_codes[~np.isin(pos_codes, excl_codes)]
    pos_i, pos_j = pos_codes // n, pos_codes % n

    partners = [set() for _ in range(n)]
    for a, b in zip(ev.src.tolist(), ev.dst.tolist()):
        partners[a].add(b)
        partners[b].add(a)
    excluded_of = {}
    for a, b in plan.excluded_pairs:
        excluded_of.setdefault(a, set()).add(b)
        excluded_of.setdefault(b, set()).add(a)
    half = 1.0 if ev.directed else 0.5
    pools = []
    for i in range(n):
        blocked = partners[i] | excluded_of.get(i, set())
        pool = [j for j in range(n) if j != i and j not in blocked]
        if pool:
            take = min(plan.negatives_per_node, len(pool))
            pools.append((i, pool, take, half * len(pool) / take))
    return (pos_i, pos_j, np.ones(pos_i.size)), pools


def assert_plan_matches_reference(ev, plan):
    """The plan's pairs against the list form. The draws themselves depend on
    the generator's stream, so each node's picks are checked as a set: the
    right number, distinct, inside its pool, and the whole pool when S covers
    it."""
    terms = realize_plan(ev, IntervalPartition.uniform(3), plan)
    exact, pools = ref_negative_plan(ev, plan)
    P = exact[0].size
    for got, want in zip((terms.pair_i, terms.pair_j, terms.pair_w), exact):
        assert_bits_equal(got[:P], want)
    takes = [take for _, _, take, _ in pools]
    assert_bits_equal(terms.pair_i[P:], np.repeat(np.array([i for i, *_ in pools], np.int64), takes))
    assert_bits_equal(terms.pair_w[P:], np.repeat(np.array([w for *_, w in pools], np.float64), takes))
    neg_i, neg_j = terms.pair_i[P:], terms.pair_j[P:]
    for i, pool, take, _ in pools:
        picks = neg_j[neg_i == i].tolist()
        assert len(set(picks)) == len(picks) == take
        assert set(picks) <= set(pool)
        if plan.negatives_per_node >= len(pool):
            assert set(picks) == set(pool)


class TestNegativePoolsMatchListForm:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 12),
        m=st.integers(1, 40),
        directed=st.booleans(),
        S=st.integers(1, 12),
        n_excl=st.integers(0, 6),
    )
    def test_random_plans(self, seed, n, m, directed, S, n_excl):
        ev = random_events(n=n, m=m, seed=seed, directed=directed)
        rng = np.random.default_rng(seed + 1)
        excluded = set()
        for _ in range(n_excl):
            a, b = rng.choice(n, size=2, replace=False).tolist()
            excluded.add((a, b))  # either orientation, as given
        plan = SamplingPlan(negatives_per_node=S, seed=seed, excluded_pairs=frozenset(excluded))
        assert_plan_matches_reference(ev, plan)

    @pytest.mark.parametrize("directed", [False, True])
    def test_hub_with_empty_pool(self, directed):
        # node 0 meets every other node, so its pool is empty and it draws nothing
        n = 7
        src = np.r_[np.zeros(n - 1, dtype=np.int64), 2, 5]
        dst = np.r_[np.arange(1, n), 4, 6]
        if directed:
            src, dst = dst.copy(), src.copy()  # node 0 only ever receives
        ev = EventList(src=src, dst=dst, time=np.linspace(0.1, 0.9, src.size), n=n,
                       directed=directed)
        met_by_0 = set(ev.dst[ev.src == 0].tolist()) | set(ev.src[ev.dst == 0].tolist())
        assert met_by_0 == set(range(1, n))
        plan = SamplingPlan(negatives_per_node=2, seed=5,
                            excluded_pairs=frozenset({(3, 1), (1, 6)}))
        assert_plan_matches_reference(ev, plan)


def assert_terms_bits_equal(got, want):
    for field in dataclasses.fields(_Terms):
        x, y = getattr(got, field.name), getattr(want, field.name)
        if field.name == "pair_incidence":
            assert x.shape == y.shape
            for part in ("data", "indices", "indptr"):
                assert_bits_equal(getattr(x, part), getattr(y, part))
        else:
            assert_bits_equal(x, y)


class TestPlanParts:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 12),
        m=st.integers(0, 40),
        K=st.integers(1, 4),
        directed=st.booleans(),
        S=st.one_of(st.none(), st.integers(1, 12)),
        n_excl=st.integers(0, 6),
    )
    def test_one_fixed_part_serves_every_draw(self, seed, n, m, K, directed, S, n_excl):
        """The fit builds the fixed part once and draws from it each epoch:
        every draw equals realize_plan under the same seed, bit for bit, and
        leaves the fixed part as it was."""
        ev = random_events(n=n, m=m, seed=seed, directed=directed)
        rng = np.random.default_rng(seed + 1)
        excluded = {tuple(rng.choice(n, size=2, replace=False).tolist()) for _ in range(n_excl)}
        plan = SamplingPlan(negatives_per_node=S, excluded_pairs=frozenset(excluded))
        part = IntervalPartition.uniform(K)
        fixed = model.fixed_terms(ev, part, plan)
        before = {f.name: np.copy(getattr(fixed, f.name)) for f in dataclasses.fields(fixed)
                  if isinstance(getattr(fixed, f.name), np.ndarray)}
        for epoch_seed in rng.integers(2**63, size=4).tolist():
            want = realize_plan(ev, part, dataclasses.replace(plan, seed=epoch_seed))
            assert_terms_bits_equal(model.draw_terms(fixed, epoch_seed), want)
        for name, value in before.items():
            assert_bits_equal(getattr(fixed, name), value)


def sampler_events(directed):
    """n = 10 events whose pools at S = 3 need every kind of row: node 0's
    pool is {7, 8, 9} (the whole pool), node 1 leaves out 2 of its 5 and
    node 2 one of its 4 (complements), and nodes 3.. draw 3 of 6 or more."""
    src = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2], dtype=np.int64)
    dst = np.array([1, 2, 3, 4, 5, 6, 2, 3, 4, 3, 4, 5], dtype=np.int64)
    return EventList(src=src, dst=dst, time=np.linspace(0.0, 1.0, src.size), n=10,
                     directed=directed)


class TestNegativeSampler:
    @pytest.mark.parametrize("directed", [False, True])
    def test_inclusion_frequencies(self, directed):
        """Each pool member is picked in take / |pool| of the plans, within
        binomial bounds over 5,000 seeds; a whole pool in every plan."""
        ev = sampler_events(directed)
        plan = SamplingPlan(negatives_per_node=3, excluded_pairs=frozenset({(8, 9)}))
        exact, pools = ref_negative_plan(ev, plan)
        kinds = {"whole" if take == len(pool) else "complement" if 2 * take > len(pool)
                 else "draw" for _, pool, take, _ in pools}
        assert kinds == {"whole", "complement", "draw"}
        P, n, plans = exact[0].size, ev.n, 5_000
        counts = np.zeros(n * n, dtype=np.int64)
        part = IntervalPartition.uniform(2)
        for seed in range(plans):
            terms = realize_plan(ev, part, dataclasses.replace(plan, seed=seed))
            counts += np.bincount(terms.pair_i[P:] * n + terms.pair_j[P:], minlength=n * n)
        counts = counts.reshape(n, n)
        for i, pool, take, _ in pools:
            p = take / len(pool)
            bound = 5.0 * np.sqrt(plans * p * (1.0 - p))
            assert np.all(np.abs(counts[i, pool] - plans * p) <= bound), (i, counts[i, pool])
        assert counts.sum() == plans * sum(take for _, _, take, _ in pools)

    def test_seen_table_is_chunked(self, monkeypatch):
        """At n = 4,000 one (nodes x n) table would take 16 MB; the sampler
        stays far below that, and the bound does catch an unchunked table."""
        n = 4_000
        rng = np.random.default_rng(0)
        src, dst = rng.integers(0, n, 3_000), rng.integers(0, n, 3_000)
        keep = src != dst
        src, dst = np.minimum(src[keep], dst[keep]), np.maximum(src[keep], dst[keep])
        ev = EventList(src=src, dst=dst, time=np.sort(rng.random(src.size)), n=n)
        part = IntervalPartition.uniform(15)

        def peak():
            tracemalloc.start()
            try:
                terms = realize_plan(ev, part, SamplingPlan(negatives_per_node=20, seed=1))
                return tracemalloc.get_traced_memory()[1], terms
            finally:
                tracemalloc.stop()

        chunked, terms = peak()
        assert terms.pair_i.size > 20 * n
        assert chunked < 12e6
        monkeypatch.setattr(model, "SEEN_CELLS", n * n)
        assert peak()[0] > 12e6

    @pytest.mark.parametrize("negatives", [0, -3])
    def test_negatives_below_one(self, negatives):
        ev = random_events(n=6, m=10, seed=1)
        with pytest.raises(ValueError, match="negatives_per_node"):
            realize_plan(ev, IntervalPartition.uniform(2),
                         SamplingPlan(negatives_per_node=negatives))


# ---------------------------------------------------------------------------
# The event term against its per-event form. realize_plan folds the events of
# each (pair, interval) into the moments sum w, sum w s, sum w s^2; the
# reference keeps one row per event, evaluates -w log lambda(t) from the two
# positions at t and scatters with np.add.at.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(eq=False)
class PerEventTerms:
    survival: object  # realize_plan's terms without their event groups
    ev_i: np.ndarray
    ev_j: np.ndarray
    ev_k0: np.ndarray
    ev_s: np.ndarray
    ev_w: np.ndarray


def ref_event_weights(ev, plan):
    """Per-event weights: 1, and 0 for an excluded pair."""
    w = np.ones(ev.m)
    excluded = {canonical_pair(a, b, ev.directed) for a, b in plan.excluded_pairs}
    for m, pair in enumerate(zip(ev.src.tolist(), ev.dst.tolist())):
        if pair in excluded:
            w[m] = 0.0
    return w


def ref_realize_plan(ev, part, plan):
    terms = realize_plan(ev, part, plan)
    none_i, none_f = np.empty(0, dtype=np.int64), np.empty(0)
    survival = dataclasses.replace(
        terms, ev_i=none_i, ev_j=none_i, ev_k0=none_i, ev_w0=none_f, ev_w1=none_f, ev_w2=none_f,
        ev_cell=none_i,
    )
    w = ref_event_weights(ev, plan)
    keep = w > 0
    k, s = part.local_coord(ev.time)
    return PerEventTerms(survival, ev.src[keep], ev.dst[keep], np.atleast_1d(k)[keep] - 1,
                         np.atleast_1d(s)[keep], w[keep])


def ref_event_term(z, beta, kind, terms):
    """Per-event -w log lambda (m,), its gradient (n, K+1, d) and dbeta."""
    i, j, k0, w = terms.ev_i, terms.ev_j, terms.ev_k0, terms.ev_w
    s = terms.ev_s[:, None]
    pi = (1.0 - s) * z[i, k0] + s * z[i, k0 + 1]
    pj = (1.0 - s) * z[j, k0] + s * z[j, k0 + 1]
    if kind == EUCLIDEAN:
        diff = pi - pj
        loglam = beta - (diff * diff).sum(axis=1)
        gpi = 2.0 * w[:, None] * diff
        gpj = -gpi
    else:
        loglam = beta + (pi * pj).sum(axis=1)
        gpi = -w[:, None] * pj
        gpj = -w[:, None] * pi
    dz = np.zeros(z.shape)
    np.add.at(dz, (i, k0), (1.0 - s) * gpi)
    np.add.at(dz, (i, k0 + 1), s * gpi)
    np.add.at(dz, (j, k0), (1.0 - s) * gpj)
    np.add.at(dz, (j, k0 + 1), s * gpj)
    return -w * loglam, dz, -float(w.sum())


def ref_nll_value_grad(z, beta, kind, part, terms, want_grad=False):
    """nll_value_grad on PerEventTerms: the package's survival term, the event term per event."""
    value, dz, dbeta = nll_value_grad(z, beta, kind, part, terms.survival, want_grad=want_grad)
    ev_values, ev_dz, ev_dbeta = ref_event_term(z, beta, kind, terms)
    value += float(ev_values.sum())
    dbeta += ev_dbeta
    if want_grad:
        dz += ev_dz
    return value, dz, dbeta


def grouped_events(seed, n, m, K, directed, n_pairs):
    """m events on n_pairs pairs, so (pair, interval) groups hold several
    events; about a third of the times sit on cut-points, including 0 and 1
    (local coordinate s = 0, and s = 1 at t = 1)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=n_pairs)
    b = (a + rng.integers(1, n, size=n_pairs)) % n
    pick = rng.integers(0, n_pairs, size=m)
    src, dst = a[pick], b[pick]
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    cuts = np.arange(K + 1) / K
    t = np.where(rng.random(m) < 0.35, cuts[rng.integers(0, K + 1, size=m)], rng.random(m))
    t[:2] = 0.0, 1.0
    order = np.argsort(t, kind="stable")
    return EventList(src=src[order], dst=dst[order], time=t[order], n=n, directed=directed)


def grouped_plan(ev, seed, n_excl):
    rng = np.random.default_rng(seed + 1)
    pairs = sorted(ev.unique_pairs())
    excluded = set()
    for r in rng.integers(0, len(pairs), size=n_excl):
        a, b = pairs[r]
        excluded.add((b, a) if rng.random() < 0.5 else (a, b))  # either orientation, as given
    return SamplingPlan(excluded_pairs=frozenset(excluded))


class TestEventGroups:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 7),
        m=st.integers(2, 60),
        K=st.integers(1, 4),
        d=st.integers(1, 3),
        directed=st.booleans(),
        kind=st.sampled_from([EUCLIDEAN, DOT]),
        n_pairs=st.integers(1, 4),
        n_excl=st.integers(0, 2),
    )
    def test_matches_per_event_sum(self, seed, n, m, K, d, directed, kind, n_pairs, n_excl):
        ev = grouped_events(seed, n, m, K, directed, n_pairs)
        plan = grouped_plan(ev, seed, n_excl)
        part = IntervalPartition.uniform(K)
        rng = np.random.default_rng(seed + 2)
        z = rng.standard_normal((n, K + 1, d))
        beta = float(rng.uniform(-2.0, 2.0))

        got_value, got_dz, got_dbeta = nll_value_grad(
            z, beta, kind, part, realize_plan(ev, part, plan), want_grad=True
        )
        ref = ref_realize_plan(ev, part, plan)
        want_value, want_dz, want_dbeta = ref_nll_value_grad(
            z, beta, kind, part, ref, want_grad=True
        )
        # relative to the summed magnitudes, since event terms of either sign can cancel
        survival, _, _ = nll_value_grad(z, beta, kind, part, ref.survival)
        scale = abs(survival) + np.abs(ref_event_term(z, beta, kind, ref)[0]).sum()
        assert abs(got_value - want_value) <= 1e-12 * scale
        assert abs(got_dbeta - want_dbeta) <= 1e-12 * abs(want_dbeta)
        np.testing.assert_allclose(got_dz, want_dz, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_dz).max())

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 9),
        m=st.integers(2, 60),
        K=st.integers(1, 5),
        directed=st.booleans(),
        n_pairs=st.integers(1, 6),
        n_excl=st.integers(0, 3),
    )
    def test_groups_are_sorted_unique_and_keep_the_event_weight(
        self, seed, n, m, K, directed, n_pairs, n_excl
    ):
        ev = grouped_events(seed, n, m, K, directed, n_pairs)
        plan = grouped_plan(ev, seed, n_excl)
        part = IntervalPartition.uniform(K)
        terms = realize_plan(ev, part, plan)
        ref = ref_realize_plan(ev, part, plan)
        codes = (terms.ev_i * n + terms.ev_j) * K + terms.ev_k0
        assert np.all(np.diff(codes) > 0)
        assert np.all((terms.ev_k0 >= 0) & (terms.ev_k0 < K))
        assert codes.size == len(set(zip(ref.ev_i.tolist(), ref.ev_j.tolist(),
                                          ref.ev_k0.tolist())))
        assert terms.ev_w0.sum() == pytest.approx(ref.ev_w.sum(), rel=1e-12, abs=0)
        assert np.all(terms.ev_w0 > 0)
        assert np.all((terms.ev_w1 >= terms.ev_w2) & (terms.ev_w1 <= terms.ev_w0))

    @pytest.mark.parametrize("negatives", [None, 5])
    def test_fit_matches_per_event_kernel(self, sbm_sample, monkeypatch, negatives):
        ev = sbm_sample.events
        hp = inference.Hyperparams(epochs=30, seed=3, negatives_per_node=negatives)
        split = split_edges(ev, 0.1, 0.0, seed=0)
        folded = inference.fit(ev, hp, split=split)
        realize_each_plan(monkeypatch, ref_realize_plan)
        monkeypatch.setattr(inference, "nll_value_grad", ref_nll_value_grad)
        per_event = inference.fit(ev, hp, split=split)
        np.testing.assert_allclose(folded.loss_trace, per_event.loss_trace, rtol=1e-10, atol=0)


# ---------------------------------------------------------------------------
# The blocked kernel against a plain per-row form: every (pair, interval)
# row through ref_closed_rate_batch (or, for dot, _dot_coeffs on the whole
# (pairs, K) array), weighted, and scattered onto both endpoints with
# np.add.at; with events, plus the per-event term of ref_event_term.
# ---------------------------------------------------------------------------


def ref_dot_rows(zi_a, zi_b, zj_a, zj_b, beta, lengths, want_grad=False):
    """Per-row dot Lambda through ``_dot_coeffs`` and its gradients in the four endpoints.

    The scalars sum over coordinates in the kernel's order, so the rows see
    the same inputs bit for bit.
    """
    caa = cab = cbb = 0.0
    for c in range(zi_a.shape[-1]):
        caa = caa + zi_a[..., c] * zj_a[..., c]
        cbb = cbb + zi_b[..., c] * zj_b[..., c]
        cab = cab + (zi_a[..., c] * zj_b[..., c] + zi_b[..., c] * zj_a[..., c])
    lam, p, q, r = _dot_coeffs(caa, 0.5 * cab, cbb, beta, lengths, want_grad)
    if not want_grad:
        return lam, None
    p, q, r = p[..., None], q[..., None], r[..., None]
    return lam, (p * zj_a + q * zj_b, q * zj_a + r * zj_b, p * zi_a + q * zi_b, q * zi_a + r * zi_b)


def ref_survival(z, beta, kind, lengths, terms, want_grad=False):
    """Weighted survival value and dz, row by row."""
    pi, pj, w = terms.pair_i, terms.pair_j, terms.pair_w
    zi, zj = z[pi], z[pj]
    if kind == EUCLIDEAN:
        with np.errstate(over="ignore", invalid="ignore"):  # both branches on every row
            lam, ga, gb = ref_closed_rate_batch(zi[:, :-1] - zj[:, :-1], zi[:, 1:] - zj[:, 1:],
                                                beta, lengths[None, :], want_grad)
        grads = (ga, gb, None if ga is None else -ga, None if gb is None else -gb)
    else:
        lam, grads = ref_dot_rows(zi[:, :-1], zi[:, 1:], zj[:, :-1], zj[:, 1:], beta,
                                  lengths[None, :], want_grad)
    value = float((w[:, None] * lam).sum())
    if not want_grad:
        return value, None
    dz = np.zeros(z.shape)
    cuts = np.arange(lengths.size)[None, :]
    for g, nodes, end in zip(grads, (pi, pi, pj, pj), (0, 1, 0, 1)):
        np.add.at(dz, (nodes[:, None], cuts + end), w[:, None, None] * g)
    return value, dz


def ref_nll_value_grad_rows(z, beta, kind, part, terms, want_grad=False):
    """nll_value_grad on PerEventTerms with no package kernel: the survival
    term row by row, the event term per event."""
    value, dz = ref_survival(z, beta, kind, part.lengths, terms.survival, want_grad)
    ev_values, ev_dz, ev_dbeta = ref_event_term(z, beta, kind, terms)
    if want_grad:
        dz += ev_dz
    return value + float(ev_values.sum()), dz, value + ev_dbeta


def difference_chain(rng, kinds, d):
    """K + 1 cut-point differences whose K rows are of the given ROW_KINDS.

    A far-tail row also sets its own start, so the row before it becomes a
    plain one.
    """
    x = [rng.standard_normal(d)]
    for kind in kinds:
        if kind == "plain":
            x.append(rng.standard_normal(d))
        elif kind == "exact_degenerate":
            x.append(x[-1])
        elif kind == "near_degenerate":
            step = rng.standard_normal(d)
            x.append(x[-1] + 1e-10 * step / np.linalg.norm(step))
        else:
            da, db = mixed_rows(rng, [kind], d)
            x[-1] = da[0]
            x.append(db[0])
    return np.stack(x)


def survival_case(seed, P, K, d, kinds, directed):
    """(z, terms) with P survival pairs of random weights and no events.

    The first (P + 1) // 2 pairs are (2q, 2q + 1) with a static node 2q + 1,
    so their rows follow difference chains of the drawn kinds exactly. When
    directed, the next pairs reverse those; the rest join random nodes.
    """
    rng = np.random.default_rng(seed)
    n = P + 2
    half = (P + 1) // 2
    own_i = 2 * np.arange(half, dtype=np.int64)
    own_j = own_i + 1
    rest = P - half
    a = rng.integers(0, n, size=rest)
    b = (a + rng.integers(1, n, size=rest)) % n
    if directed:
        r = min(rest, half)
        a[:r], b[:r] = own_j[:r], own_i[:r]
    else:
        a, b = np.minimum(a, b), np.maximum(a, b)
    pair_i = np.concatenate([own_i, a]).astype(np.int64)
    pair_j = np.concatenate([own_j, b]).astype(np.int64)
    z = rng.standard_normal((n, K + 1, d))
    for i, j in zip(own_i, own_j):
        z[j] = z[j, 0]
        z[i] = z[j, 0] + difference_chain(rng, [kinds[r] for r in
                                                rng.integers(len(kinds), size=K)], d)
    none_i, none_f = np.empty(0, dtype=np.int64), np.empty(0)
    terms = _Terms(pair_i, pair_j, rng.uniform(0.1, 3.0, size=P), none_i, none_i, none_i,
                   none_f, none_f, none_f, none_i, _pair_incidence(pair_i, pair_j, n))
    return z, terms


BLOCK_EDGES = (0, 1, SURVIVAL_BLOCK - 1, SURVIVAL_BLOCK, SURVIVAL_BLOCK + 1,
               2 * SURVIVAL_BLOCK + 3)


def fold_events(directed):
    """400 events on 60 random pairs of n = 50 (undirected) or 40 (directed)
    nodes, plus two on a pair near the end of the full plan's pair order;
    some times sit on cut-points."""
    n = 40 if directed else 50
    rng = np.random.default_rng(11)
    a = rng.integers(0, n - 4, size=60)
    b = (a + rng.integers(1, n - 4, size=60)) % (n - 4)
    pick = rng.integers(0, 60, size=400)
    src, dst = np.r_[a[pick], n - 3, n - 3], np.r_[b[pick], n - 1, n - 1]
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
    t = np.r_[rng.random(400), 0.3, 0.45]
    t[:40] = 0.2
    order = np.argsort(t, kind="stable")
    return EventList(src=src[order], dst=dst[order], time=t[order], n=n, directed=directed)


# (directed, plan, the block of the last event row) of more than one block:
# the full plans' last event row is in their last, partial block; the
# negatives plan's positives end inside its first block
FOLD_PLANS = {
    "full": (False, SamplingPlan(excluded_pairs=frozenset({(3, 1), (20, 7)})), 1),
    "negatives": (False, SamplingPlan(negatives_per_node=30, seed=4,
                                      excluded_pairs=frozenset({(3, 1)})), 0),
    "directed": (True, SamplingPlan(excluded_pairs=frozenset({(1, 3)})), 1),
}


class TestBlockedSurvival:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        P=st.sampled_from(BLOCK_EDGES),
        K=st.integers(1, 4),
        d=st.integers(1, 3),
        kind=st.sampled_from([EUCLIDEAN, DOT]),
        directed=st.booleans(),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4),
        beta=st.floats(-2.0, 2.0),
    )
    def test_matches_rows(self, seed, P, K, d, kind, directed, kinds, beta):
        z, terms = survival_case(seed, P, K, d, kinds, directed)
        part = IntervalPartition(np.r_[0.0, np.sort(np.random.default_rng(seed).uniform(
            0.05, 0.95, size=K - 1)), 1.0])
        value, dz, dbeta = nll_value_grad(z, beta, kind, part, terms, want_grad=True)
        want, want_dz = ref_survival(z, beta, kind, part.lengths, terms, want_grad=True)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert dbeta == pytest.approx(want, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(dz, want_dz, rtol=1e-12,
                                   atol=1e-12 * np.abs(want_dz).max(initial=0.0))
        alone, no_dz, _ = nll_value_grad(z, beta, kind, part, terms)
        assert alone == value and no_dz is None

    def test_cases_reach_every_branch(self):
        z, terms = survival_case(0, 64, 4, 3, list(ROW_KINDS), directed=False)
        half = 32
        zi, zj = z[terms.pair_i[:half]], z[terms.pair_j[:half]]
        da, db = zi[:, :-1] - zj[:, :-1], zi[:, 1:] - zj[:, 1:]
        v = da - db
        w2 = np.einsum("pkd,pkd->pk", v, v)
        assert (w2 == 0).any() and ((w2 > 0) & (w2 < EPS_DEGENERATE**2)).any()
        plain = w2 >= EPS_DEGENERATE**2
        u0 = -np.einsum("pkd,pkd->pk", da, v)[plain] / w2[plain] * np.sqrt(2.0 * w2[plain])
        assert (u0 > 6.0).any()

    @pytest.mark.parametrize("kind", [EUCLIDEAN, DOT])
    def test_memory_bounded_by_the_block(self, kind):
        # 20,100 pairs x 15 intervals: the whole plan as one chunk of
        # temporaries took 83 MB (euclidean) and 60 MB (dot)
        n = 201
        ev = EventList(src=np.array([0, 1]), dst=np.array([1, 2]), time=np.array([0.2, 0.7]),
                       n=n, directed=False)
        part = IntervalPartition.uniform(15)
        terms = realize_plan(ev, part, SamplingPlan())
        assert terms.pair_i.size >= 20_000
        z = 0.5 * np.random.default_rng(0).standard_normal((n, 16, 2))
        tracemalloc.start()
        try:
            nll_value_grad(z, 0.0, kind, part, terms, want_grad=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    @pytest.mark.parametrize("kind", [EUCLIDEAN, DOT])
    @pytest.mark.parametrize("case", sorted(FOLD_PLANS))
    def test_folded_events_match_the_references(self, case, kind):
        """The one kernel against the row-by-row survival term plus the
        per-event term, on plans of more than one block whose last event row
        sits inside a block that goes on past it."""
        directed, plan, last_block = FOLD_PLANS[case]
        ev = fold_events(directed)
        K = 4
        part = IntervalPartition(np.array([0.0, 0.2, 0.45, 0.8, 1.0]))
        terms = realize_plan(ev, part, plan)
        rows, k0 = np.divmod(terms.ev_cell, K)
        assert np.all(np.diff(terms.ev_cell) > 0)
        assert_bits_equal(terms.pair_i[rows], terms.ev_i)
        assert_bits_equal(terms.pair_j[rows], terms.ev_j)
        assert_bits_equal(k0, terms.ev_k0)
        last = int(rows[-1])
        assert last // SURVIVAL_BLOCK == last_block
        assert last + 1 < min(terms.pair_i.size, (last_block + 1) * SURVIVAL_BLOCK)

        rng = np.random.default_rng(7)
        z = 0.5 * rng.standard_normal((ev.n, K + 1, 2))
        ref = ref_realize_plan(ev, part, plan)
        value, dz, dbeta = nll_value_grad(z, -1.0, kind, part, terms, want_grad=True)
        want, want_dz, want_dbeta = ref_nll_value_grad_rows(z, -1.0, kind, part, ref,
                                                            want_grad=True)
        survival, _ = ref_survival(z, -1.0, kind, part.lengths, ref.survival)
        scale = abs(survival) + np.abs(ref_event_term(z, -1.0, kind, ref)[0]).sum()
        assert abs(value - want) <= 1e-12 * scale
        assert abs(dbeta - want_dbeta) <= 1e-12 * scale
        np.testing.assert_allclose(dz, want_dz, rtol=1e-12, atol=1e-12 * np.abs(want_dz).max())
        alone, no_dz, _ = nll_value_grad(z, -1.0, kind, part, terms)
        assert alone == value and no_dz is None

    @pytest.mark.parametrize("negatives", [None, 5])
    def test_fit_matches_row_kernel(self, sbm_sample, monkeypatch, negatives):
        ev = sbm_sample.events
        hp = inference.Hyperparams(epochs=30, seed=3, negatives_per_node=negatives)
        split = split_edges(ev, 0.1, 0.0, seed=0)
        blocked = inference.fit(ev, hp, split=split)
        realize_each_plan(monkeypatch, ref_realize_plan)
        monkeypatch.setattr(inference, "nll_value_grad", ref_nll_value_grad_rows)
        rows = inference.fit(ev, hp, split=split)
        np.testing.assert_allclose(blocked.loss_trace, rows.loss_trace, rtol=1e-10, atol=0)


# ---------------------------------------------------------------------------
# The cut-major kernel against its pair-major form (conftest.pair_major_kernel),
# bit for bit: value, dz and dbeta with and without the gradient.
# ---------------------------------------------------------------------------


def with_groups(seed, terms, K):
    """``terms`` plus event groups on random cells and on the first and last
    interval of the first and last row of the last block."""
    P = terms.pair_i.size
    rng = np.random.default_rng(seed)
    first = (P - 1) // SURVIVAL_BLOCK * SURVIVAL_BLOCK
    forced = np.array([first * K, first * K + K - 1, (P - 1) * K, P * K - 1])
    cells = np.unique(np.r_[rng.choice(P * K, size=min(P * K, 40), replace=False), forced])
    group = np.repeat(np.arange(cells.size), rng.integers(1, 4, size=cells.size))
    s = np.where(rng.random(group.size) < 0.3, rng.integers(0, 2, size=group.size),
                 rng.random(group.size))
    w = rng.uniform(0.1, 2.0, size=group.size)
    rows, k0 = np.divmod(cells, K)
    return dataclasses.replace(
        terms, ev_i=terms.pair_i[rows], ev_j=terms.pair_j[rows], ev_k0=k0,
        ev_w0=np.bincount(group, w), ev_w1=np.bincount(group, w * s),
        ev_w2=np.bincount(group, w * s * s), ev_cell=cells,
    )


def assert_matches_pair_major(z, beta, kind, part, terms):
    for want_grad in (True, False):
        got = nll_value_grad(z, beta, kind, part, terms, want_grad=want_grad)
        with mock.patch.object(model, "_kernel", pair_major_kernel):
            want = nll_value_grad(z, beta, kind, part, terms, want_grad=want_grad)
        assert (got[1] is None) == (not want_grad) and (want[1] is None) == (not want_grad)
        for g, w in zip(got, want):
            if w is not None:
                assert_bits_equal(g, w)


class TestCutMajorKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        P=st.sampled_from(BLOCK_EDGES),
        K=st.integers(1, 4),
        d=st.integers(1, 3),
        kind=st.sampled_from([EUCLIDEAN, DOT]),
        directed=st.booleans(),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4),
        beta=st.floats(-2.0, 2.0),
        groups=st.booleans(),
    )
    def test_matches_pair_major(self, seed, P, K, d, kind, directed, kinds, beta, groups):
        z, terms = survival_case(seed, P, K, d, kinds, directed)
        if groups and P:
            terms = with_groups(seed, terms, K)
        part = IntervalPartition(np.r_[0.0, np.sort(np.random.default_rng(seed).uniform(
            0.05, 0.95, size=K - 1)), 1.0])
        assert_matches_pair_major(z, beta, kind, part, terms)

    def test_groups_reach_both_ends_of_the_last_block(self):
        K = 3
        for P in (SURVIVAL_BLOCK + 1, 2 * SURVIVAL_BLOCK + 3):
            _, terms = survival_case(0, P, K, 2, ["plain"], directed=False)
            rows, k0 = np.divmod(with_groups(0, terms, K).ev_cell, K)
            last = rows >= P // SURVIVAL_BLOCK * SURVIVAL_BLOCK
            assert set(k0[last]) >= {0, K - 1} and rows[-1] == P - 1

    @pytest.mark.parametrize("kind", [EUCLIDEAN, DOT])
    @pytest.mark.parametrize("case", sorted(FOLD_PLANS))
    def test_folded_events_match_pair_major(self, case, kind):
        directed, plan, _ = FOLD_PLANS[case]
        ev = fold_events(directed)
        part = IntervalPartition(np.array([0.0, 0.2, 0.45, 0.8, 1.0]))
        z = 0.5 * np.random.default_rng(7).standard_normal((ev.n, part.K + 1, 2))
        assert_matches_pair_major(z, -1.0, kind, part, realize_plan(ev, part, plan))

    @pytest.mark.parametrize("negatives", [None, 5])
    def test_fit_matches_pair_major(self, sbm_sample, monkeypatch, negatives):
        ev = sbm_sample.events
        hp = inference.Hyperparams(epochs=30, seed=3, negatives_per_node=negatives)
        split = split_edges(ev, 0.1, 0.0, seed=0)
        got = inference.fit(ev, hp, split=split)
        monkeypatch.setattr(model, "_kernel", pair_major_kernel)
        want = inference.fit(ev, hp, split=split)
        assert_bits_equal(got.loss_trace, want.loss_trace)
        assert_bits_equal(got.state.mu, want.state.mu)


def list_pairs(pairs):
    return np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)


def int32_pairs(pairs):
    return list_pairs(pairs).astype(np.int32)


class TestPairArrays:
    """``pair_codes`` reads every form of a pair set alike."""

    @pytest.mark.parametrize("m", [0, 1, 37])
    @pytest.mark.parametrize(
        "form", [set, frozenset, list, lambda p: (x for x in p), list_pairs, int32_pairs]
    )
    def test_match_the_list_form(self, m, form):
        rng = np.random.default_rng(m)
        pairs = [tuple(int(v) for v in rng.integers(-2, 12, size=2)) for _ in range(m)]
        rows = list_pairs(form(pairs))  # in the form's iteration order
        inside = rows[((rows >= 0) & (rows < 10)).all(axis=1)]
        for directed in (False, True):
            arr = inside if directed else np.sort(inside, axis=1)
            want = np.unique(arr[:, 0] * 10 + arr[:, 1])
            assert_bits_equal(pair_codes(form(map(tuple, inside.tolist())), 10, directed), want)
            if len(inside) < len(rows):  # the first pair outside, in iteration order
                a, b = rows[((rows < 0) | (rows >= 10)).any(axis=1)][0]
                with pytest.raises(ValueError, match=rf"pair \({a}, {b}\) names a node outside 0\.\.9"):
                    pair_codes(form(pairs), 10, directed)
