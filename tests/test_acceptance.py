"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The HighSchool benchmark
(criterion 5) needs a locally prepared dataset and skips with instructions
when data/highschool.csv is absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from tgne.events import (
    EventList,
    IntervalPartition,
    interval_counts,
    parse_events,
    split_edges,
)
from tgne.evaluation import (
    auc,
    auc_from_scores,
    build_instances,
    fit_lsdm,
    lsdm_score,
    node_uncertainty,
    restrict_counts,
    score_instances,
    uncertainty_regression,
    LsdmOpts,
)
from tgne.inference import (
    Hyperparams,
    VariationalState,
    elbo_loss,
    fit,
    init_state,
    loss_gradient,
    mean_frame_displacement,
)
from tgne.model import (
    EUCLIDEAN,
    LatentConfiguration,
    RateModel,
    SamplingPlan,
    cumulative_rate_closed,
    log_rate,
    total_nll,
)
from tgne.prior import PriorConfig, kl_monte_carlo, kl_to_prior
from tgne.simulate import SbmSpec, sbm_generate

from conftest import random_events

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
HIGHSCHOOL = Path(os.environ.get("TGNE_HIGHSCHOOL", DATA_DIR / "highschool.csv"))


@pytest.fixture(scope="module")
def sbm_events():
    return sbm_generate(SbmSpec(seed=1))


def test_criterion_1_closed_form_vs_quadrature():
    """Closed-form cumulative rate vs adaptive quadrature, 1000 configs."""
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        K = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        if K == 1:
            cuts = np.array([0.0, 1.0])
        else:
            inner = np.sort(rng.uniform(0.02, 0.98, size=K - 1))
            while np.any(np.diff(np.r_[0.0, inner, 1.0]) < 1e-3):
                inner = np.sort(rng.uniform(0.02, 0.98, size=K - 1))
            cuts = np.r_[0.0, inner, 1.0]
        part = IntervalPartition(cuts)
        cfg = LatentConfiguration(rng.standard_normal((2, K + 1, d)), part)
        rm = RateModel(EUCLIDEAN, float(rng.uniform(-3, 3)))
        k = int(rng.integers(1, K + 1))
        a, b = part.bounds(k)
        ref, _ = quad(
            lambda t: np.exp(log_rate(cfg, rm, 0, 1, t)),
            a, b, epsabs=1e-14, epsrel=1e-13, limit=300,
        )
        got = cumulative_rate_closed(cfg, rm, 0, 1, k)
        worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.time() - start
    assert worst <= 1e-6, f"worst relative error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: closed form vs quadrature, 1000 configs, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_kl_oracle():
    """Closed-form KL vs Monte-Carlo (S=1e6) on 50 small states + hand value."""
    part1 = IntervalPartition.uniform(1)
    pc1 = PriorConfig(tau=1.0, part=part1, d=1)
    hand = VariationalState(
        mu=np.array([[[0.0], [1.0]]]), log_sigma=np.zeros((1, 2)), beta=0.0
    )
    assert abs(kl_to_prior(hand, pc1) - 1.0) < 1e-9

    rng = np.random.default_rng(7)
    worst_z = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 4))
        K = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        pc = PriorConfig(
            tau=float(rng.uniform(0.3, 2.0)),
            part=IntervalPartition.uniform(K),
            d=d,
            tau0=float(rng.uniform(0.3, 2.0)),
        )
        vs = VariationalState(
            mu=rng.standard_normal((n, K + 1, d)),
            log_sigma=rng.uniform(-1.5, 0.5, size=(n, K + 1)),
            beta=0.0,
        )
        exact = kl_to_prior(vs, pc)
        est, se = kl_monte_carlo(vs, pc, 1_000_000, seed=7000 + trial)
        z = abs(est - exact) / se
        worst_z = max(worst_z, z)
        assert z < 3.0, f"state {trial}: |z| = {z:.2f}"
    print(f"PASS criterion 2: KL closed form within 3 SE of S=1e6 Monte Carlo "
          f"on 50 states (worst |z| {worst_z:.2f}); hand-derived KL=1.0 to 1e-9")


def test_criterion_3_gradient_exactness():
    """Full ELBO gradient vs central finite differences on 20 instances."""
    start = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 6))
        K = int(rng.integers(1, 5))
        ev = random_events(n=n, m=int(rng.integers(5, 30)), seed=trial)
        part = IntervalPartition.uniform(K)
        pc = PriorConfig(
            tau=float(rng.uniform(0.5, 2.0)), part=part, d=2,
            tau0=float(rng.uniform(0.5, 2.0)),
        )
        vs = VariationalState(
            mu=0.8 * rng.standard_normal((n, K + 1, 2)),
            log_sigma=rng.uniform(-2.0, -0.3, size=(n, K + 1)),
            beta=float(rng.uniform(-0.5, 0.5)),
        )
        eps = rng.standard_normal(vs.mu.shape)
        plan = SamplingPlan.full()
        d_mu, d_ls, d_beta = loss_gradient(vs, ev, part, pc, EUCLIDEAN, plan, eps)

        def loss_at(mu, ls, beta):
            return elbo_loss(
                VariationalState(mu, ls, beta), ev, part, pc, EUCLIDEAN, plan, eps
            )

        h = 1e-5
        fd_mu = np.zeros_like(d_mu)
        for idx in np.ndindex(vs.mu.shape):
            mu_p = vs.mu.copy(); mu_p[idx] += h
            mu_m = vs.mu.copy(); mu_m[idx] -= h
            fd_mu[idx] = (
                loss_at(mu_p, vs.log_sigma, vs.beta) - loss_at(mu_m, vs.log_sigma, vs.beta)
            ) / (2 * h)
        fd_ls = np.zeros_like(d_ls)
        for idx in np.ndindex(vs.log_sigma.shape):
            ls_p = vs.log_sigma.copy(); ls_p[idx] += h
            ls_m = vs.log_sigma.copy(); ls_m[idx] -= h
            fd_ls[idx] = (
                loss_at(vs.mu, ls_p, vs.beta) - loss_at(vs.mu, ls_m, vs.beta)
            ) / (2 * h)
        fd_beta = (
            loss_at(vs.mu, vs.log_sigma, vs.beta + h)
            - loss_at(vs.mu, vs.log_sigma, vs.beta - h)
        ) / (2 * h)

        grad = np.r_[d_mu.ravel(), d_ls.ravel(), d_beta]
        fd = np.r_[fd_mu.ravel(), fd_ls.ravel(), fd_beta]
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
        assert rel <= 1e-4, f"instance {trial}: relative error {rel:.3e}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"PASS criterion 3: ELBO gradient vs finite differences, 20 instances, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_sbm_end_to_end(sbm_events):
    """Fixture reconstruction AUC, switching-node uncertainty, displacement."""
    start = time.time()
    ev = sbm_events.events

    # (a) held-out reconstruction at tau = 1
    split = split_edges(ev, 0.1, 0.0, seed=0)
    fm = fit(ev, Hyperparams(tau=1.0, epochs=500, seed=0), split=split)
    counts = interval_counts(ev, fm.part)
    instances, _short = build_instances(counts, split.test, fm.part, seed=0)
    auc_plugin = auc(score_instances(instances, "tgne", fm=fm))
    auc_pred = auc(score_instances(instances, "tgne_predictive", fm=fm, seed=1, B=200))
    assert auc_plugin >= 0.85, f"test AUC {auc_plugin:.4f} < 0.85"

    # full-data fits at both prior scales, five seeds each, for (b) and (c)
    tau_fits = {
        (tau, seed): fit(ev, Hyperparams(tau=tau, epochs=500, seed=seed))
        for tau in (1.0, 50.0)
        for seed in range(100, 105)
    }

    # (b) switching node's mid-window uncertainty at tau = 50
    fm50 = tau_fits[(50.0, 100)]
    K = fm50.part.K
    middle = [
        k for k in range(1, K + 1)
        if 1 / 3 < 0.5 * (fm50.part.cut_points[k - 1] + fm50.part.cut_points[k]) < 2 / 3
    ]
    u_switch = np.mean([node_uncertainty(fm50.state, 0, k) for k in middle])
    u_static = np.asarray([
        np.mean([node_uncertainty(fm50.state, i, k) for k in middle])
        for i in range(1, ev.n)
    ])
    q75 = np.percentile(u_static, 75)
    assert u_switch > q75, f"u(0) = {u_switch:.4f} <= 75th pct {q75:.4f}"

    # (c) inter-frame displacement grows with the prior scale
    disp = {
        tau: np.median([
            mean_frame_displacement(tau_fits[(tau, seed)].state)
            for seed in range(100, 105)
        ])
        for tau in (1.0, 50.0)
    }
    assert disp[50.0] > disp[1.0], f"displacement {disp}"

    elapsed = time.time() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    print(f"PASS criterion 4: (a) test AUC {auc_plugin:.3f} >= 0.85 "
          f"(posterior-predictive scorer: {auc_pred:.3f}); "
          f"(b) switching-node u {u_switch:.3f} > 75th pct {q75:.3f}; "
          f"(c) displacement tau50 {disp[50.0]:.3f} > tau1 {disp[1.0]:.3f}; "
          f"{elapsed:.0f}s (budget 600s)")


@pytest.mark.skipif(
    not HIGHSCHOOL.exists(),
    reason=(
        "HighSchool dataset not present. Download the public contact list "
        "(see README), run scripts/prepare_highschool.py to produce "
        "data/highschool.csv, or point TGNE_HIGHSCHOOL at the prepared CSV."
    ),
)
def test_criterion_5_highschool_benchmark():
    """Reconstruction benchmark on the HighSchool contact network."""
    ev = parse_events(HIGHSCHOOL)
    print(f"\nHighSchool stats: n={ev.n}, events={ev.m}, "
          f"unique pairs={len(ev.unique_pairs())}")
    split = split_edges(ev, 0.1, 0.0, seed=0)
    hp = Hyperparams(tau=1.0, K=15, d=2, epochs=500, seed=0)
    t0 = time.time()
    fm = fit(ev, hp, split=split)
    fit_time = time.time() - t0
    assert fit_time < 300.0, f"fit took {fit_time:.0f}s (budget 300s)"

    counts = interval_counts(ev, fm.part)
    train_counts = restrict_counts(counts, split.train)
    lsdm_models = {
        k: fit_lsdm(train_counts, split.train, k, 2, LsdmOpts(iters=2000, seed=0))
        for k in range(1, 16)
    }
    results = {}
    for name, pairs in (("train", split.train), ("test", split.test)):
        instances, _ = build_instances(counts, pairs, fm.part, seed=3)
        per = {}
        for scorer in ("tgne", "lsdm", "pa"):
            scored = score_instances(
                instances, scorer, fm=fm, train_counts=train_counts,
                lsdm_models=lsdm_models, seed=4,
            )
            per[scorer] = auc(scored)
        results[name] = per
    assert results["test"]["tgne"] >= 0.85, results
    assert results["train"]["lsdm"] >= 0.99, results
    assert results["test"]["tgne"] > results["test"]["lsdm"], results
    assert results["test"]["tgne"] > results["test"]["pa"], results
    print(f"PASS criterion 5: HighSchool fit {fit_time:.0f}s; AUC {results}")


def test_criterion_6_uncertainty_slope_signs(sbm_events):
    """Regression slope of Std(Lambda) vs N: negative and ordered in tau.

    Run at the rate-compressed operating point (bias fixed near 0, the
    regime the qualitative claim describes); see the fit docs for why the
    bias init matters.
    """
    ev = sbm_events.events
    slopes = {}
    for tau in (1.0, 50.0):
        fm = fit(ev, Hyperparams(tau=tau, epochs=500, seed=100, beta_init=0.0))
        counts = interval_counts(ev, fm.part)
        slopes[tau] = uncertainty_regression(
            fm.state, counts, fm.hyper.rate_model, fm.part, B=200, seed=7
        )
    assert slopes[50.0] < 0.0, f"slope at tau=50 is {slopes[50.0]:+.3e}"
    assert slopes[50.0] < slopes[1.0], f"slopes {slopes}"
    print(f"PASS criterion 6: slope(tau=50) {slopes[50.0]:+.2e} < 0 and "
          f"< slope(tau=1) {slopes[1.0]:+.2e}")


def test_criterion_7_property_suites(sbm_events):
    """Invariance and determinism properties under one fixed seed."""
    rng = np.random.default_rng(99)
    ev = random_events(n=10, m=40, seed=7)
    part = IntervalPartition.uniform(3)
    cfg = LatentConfiguration(rng.standard_normal((10, 4, 2)), part)
    rm = RateModel(EUCLIDEAN, 0.3)
    base = total_nll(cfg, rm, ev, part)

    # translation invariance of the euclidean NLL
    shifted = LatentConfiguration(cfg.z + rng.standard_normal(2) * 4, part)
    assert np.isclose(total_nll(shifted, rm, ev, part), base, rtol=1e-12)

    # rotation invariance
    theta = 0.77
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotated = LatentConfiguration(cfg.z @ rot.T, part)
    assert np.isclose(total_nll(rotated, rm, ev, part), base, rtol=1e-9)

    # AUC invariance under strictly increasing transforms
    scores = rng.standard_normal(60)
    labels = np.r_[np.ones(30, dtype=int), np.zeros(30, dtype=int)]
    a0 = auc_from_scores(scores, labels)
    assert np.isclose(auc_from_scores(np.exp(scores), labels), a0, rtol=1e-12)
    assert np.isclose(auc_from_scores(3.0 * scores + 11.0, labels), a0, rtol=1e-12)

    # split determinism
    s1 = split_edges(sbm_events.events, 0.2, 0.1, seed=5)
    s2 = split_edges(sbm_events.events, 0.2, 0.1, seed=5)
    assert s1 == s2

    # negative-sampling unbiasedness over 1e4 seeded plans
    full = total_nll(cfg, rm, ev, part, SamplingPlan.full())
    draws = 10_000
    vals = np.empty(draws)
    for s in range(draws):
        vals[s] = total_nll(
            cfg, rm, ev, part, SamplingPlan(negatives_per_node=2, seed=s)
        )
    se = vals.std(ddof=1) / np.sqrt(draws)
    z = abs(vals.mean() - full) / se
    assert z < 3.0, f"negative-sampling bias z-score {z:.2f}"
    print(f"PASS criterion 7: invariance/determinism properties green "
          f"(negative-sampling unbiasedness |z| = {z:.2f} over 1e4 plans)")
