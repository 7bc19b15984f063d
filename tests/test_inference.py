import csv
import dataclasses
import io
import json

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

from tgne import inference
from tgne.events import EventList, IntervalPartition, split_edges
from tgne.inference import (
    MODEL_FORMAT,
    Adam,
    FitDivergedError,
    FittedModel,
    Hyperparams,
    VariationalState,
    elbo_loss,
    empirical_beta,
    fit,
    init_state,
    load_model,
    loss_gradient,
    mean_frame_displacement,
    save_model,
    write_embeddings_csv,
    write_loss_csv,
)
from tgne.model import (
    EUCLIDEAN,
    LatentConfiguration,
    RateModel,
    SamplingPlan,
    realize_plan,
    total_nll,
)
from tgne.prior import PriorConfig, kl_to_prior
from tgne.simulate import default_sbm_spec, sbm_generate

from conftest import random_events

# floats whose repr, orjson's text or both take an unusual form: signed zero,
# the smallest subnormal, the exponent form below 1e-4 and from 1e16, the
# largest double
AWKWARD_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e-5, 9.99e-5, 1e-4, 1e16, -1e16,
                  9999999999999998.0, 1.7976931348623157e308, -1.7976931348623157e308)
# labels that json.dumps escapes: accented, CJK, astral (a surrogate pair), controls
AWKWARD_LABELS = ("Zoë", "東京", "\U0001F600 astral", "tab\tquote\"back\\", "")


class TestInitState:
    def test_deterministic(self):
        hp = Hyperparams(d=2, K=4)
        a = init_state(7, hp, seed=0)
        b = init_state(7, hp, seed=0)
        assert np.array_equal(a.mu, b.mu) and a.beta == b.beta == 0.0

    def test_sigma_point_one_and_beta_zero(self):
        st = init_state(3, Hyperparams(K=2), seed=1)
        assert np.allclose(st.sigma, 0.1)
        assert st.beta == 0.0

    def test_mu_mean_near_zero(self):
        st = init_state(1000, Hyperparams(d=2, K=49), seed=2)
        entries = st.mu.ravel()
        assert entries.size >= 100_000
        se = 0.1 / np.sqrt(entries.size)
        assert abs(entries.mean()) < 3 * se


class TestReparamSample:
    """The draw z = mu + sigma * eps, seen through the loss that fit minimizes."""

    def test_zero_eps_gives_mean(self):
        ev, part, pc, vs, _eps = tiny_problem(seed=3)
        loss = elbo_loss(vs, ev, part, pc, EUCLIDEAN, SamplingPlan.full(), np.zeros_like(vs.mu))
        at_mean = total_nll(
            LatentConfiguration(vs.mu, part), RateModel(EUCLIDEAN, vs.beta), ev, part
        )
        assert loss == at_mean + kl_to_prior(vs, pc)

    def test_tiny_sigma_pins_to_mean(self):
        ev, part, pc, vs, eps = tiny_problem(seed=4)
        vs.log_sigma[:] = -40.0
        plan = SamplingPlan.full()
        loss = elbo_loss(vs, ev, part, pc, EUCLIDEAN, plan, eps)
        at_mean = elbo_loss(vs, ev, part, pc, EUCLIDEAN, plan, np.zeros_like(vs.mu))
        assert loss == pytest.approx(at_mean, rel=1e-14)

    def test_empirical_covariance(self):
        part = IntervalPartition.uniform(1)
        st = VariationalState(
            mu=np.array([[[1.0, -2.0], [0.0, 3.0]]]),
            log_sigma=np.log(np.array([[0.5, 2.0]])),
            beta=0.0,
        )
        rng = np.random.default_rng(6)
        draws = 100_000
        eps = rng.standard_normal((draws, 1, 2, 2))
        z = st.mu[None] + st.sigma[None, :, :, None] * eps
        var = z.var(axis=0)
        target = np.array([[[0.25, 0.25], [4.0, 4.0]]])
        se = target * np.sqrt(2 / draws)
        assert np.all(np.abs(var - target) < 4 * se)


def tiny_problem(seed=0, n=4, K=3, d=2, m=25):
    ev = random_events(n=n, m=m, seed=seed)
    part = IntervalPartition.uniform(K)
    pc = PriorConfig(tau=1.0, part=part, d=d)
    hp = Hyperparams(d=d, K=K)
    vs = init_state(n, hp, seed=seed + 1)
    vs.beta = 0.4
    rng = np.random.default_rng(seed + 2)
    vs.mu = 0.6 * rng.standard_normal(vs.mu.shape)
    vs.log_sigma = rng.uniform(-2.0, -0.5, vs.log_sigma.shape)
    eps = rng.standard_normal(vs.mu.shape)
    return ev, part, pc, vs, eps


class TestElboLoss:
    def test_empty_history_is_survival_plus_kl(self):
        n, K, d = 3, 2, 2
        ev = EventList(
            src=np.empty(0, dtype=int), dst=np.empty(0, dtype=int), time=np.empty(0), n=n
        )
        part = IntervalPartition.uniform(K)
        pc = PriorConfig(tau=1.0, part=part, d=d)
        vs = init_state(n, Hyperparams(d=d, K=K), seed=7)
        eps = np.zeros_like(vs.mu)
        loss = elbo_loss(vs, ev, part, pc, EUCLIDEAN, SamplingPlan.full(), eps)
        from tgne.model import LatentConfiguration, RateModel
        from tgne.prior import kl_to_prior

        survival = total_nll(
            LatentConfiguration(vs.mu, part), RateModel(EUCLIDEAN, vs.beta), ev, part
        )
        assert survival > 0
        assert np.isclose(loss, survival + kl_to_prior(vs, pc), rtol=1e-12)

    def test_large_tau_limit_matches_map_objective(self):
        """At tau -> inf with eps = 0, only the log sigma/tau KL terms remain."""
        ev, part, pc, vs, _eps = tiny_problem(seed=8)
        tau = 1e8
        pc_inf = PriorConfig(tau=tau, part=part, d=pc.d, tau0=tau)
        eps = np.zeros_like(vs.mu)
        loss = elbo_loss(vs, ev, part, pc_inf, EUCLIDEAN, SamplingPlan.full(), eps)
        from tgne.model import LatentConfiguration, RateModel

        map_nll = total_nll(
            LatentConfiguration(vs.mu, part), RateModel(EUCLIDEAN, vs.beta), ev, part
        )
        d = pc.d
        taus = pc_inf.step_scales
        log_terms = d * np.sum(np.log(pc_inf.tau0 / vs.sigma[:, 0]) - 0.5)
        log_terms += d * np.sum(np.log(taus[None, :] / vs.sigma[:, 1:]) - 0.5)
        assert np.isclose(loss, map_nll + log_terms, rtol=1e-10)

    def test_loss_decreases_early_on_fixture(self, sbm_sample):
        finals = []
        for seed in range(5):
            hp = Hyperparams(epochs=50, seed=seed)
            fm = fit(sbm_sample.events, hp)
            finals.append(fm.loss_trace[-1] - fm.loss_trace[0])
        assert np.median(finals) < 0


class TestLossGradient:
    def test_matches_finite_differences(self):
        for seed in range(4):
            ev, part, pc, vs, eps = tiny_problem(seed=seed)
            plan = SamplingPlan.full()
            d_mu, d_ls, d_beta = loss_gradient(vs, ev, part, pc, EUCLIDEAN, plan, eps)

            def loss_at(vs2):
                return elbo_loss(vs2, ev, part, pc, EUCLIDEAN, plan, eps)

            rng = np.random.default_rng(seed)
            h = 1e-5
            for _ in range(10):
                i = rng.integers(vs.n)
                k = rng.integers(part.K + 1)
                a = rng.integers(vs.d)
                mu_p = vs.mu.copy(); mu_p[i, k, a] += h
                mu_m = vs.mu.copy(); mu_m[i, k, a] -= h
                fd = (
                    loss_at(VariationalState(mu_p, vs.log_sigma, vs.beta))
                    - loss_at(VariationalState(mu_m, vs.log_sigma, vs.beta))
                ) / (2 * h)
                assert abs(d_mu[i, k, a] - fd) <= 1e-4 * max(abs(fd), 1e-6)
                ls_p = vs.log_sigma.copy(); ls_p[i, k] += h
                ls_m = vs.log_sigma.copy(); ls_m[i, k] -= h
                fd_s = (
                    loss_at(VariationalState(vs.mu, ls_p, vs.beta))
                    - loss_at(VariationalState(vs.mu, ls_m, vs.beta))
                ) / (2 * h)
                assert abs(d_ls[i, k] - fd_s) <= 1e-4 * max(abs(fd_s), 1e-6)
            vs_p = VariationalState(vs.mu, vs.log_sigma, vs.beta + h)
            vs_m = VariationalState(vs.mu, vs.log_sigma, vs.beta - h)
            fd_b = (loss_at(vs_p) - loss_at(vs_m)) / (2 * h)
            assert abs(d_beta - fd_b) <= 1e-4 * max(abs(fd_b), 1e-6)

    def test_gradient_with_sampling_plans(self):
        ev, part, pc, vs, eps = tiny_problem(seed=5, n=6, m=30)
        for plan in (
            SamplingPlan(negatives_per_node=2, seed=3),
            SamplingPlan(negatives_per_node=1, seed=2),
        ):
            d_mu, d_ls, d_beta = loss_gradient(vs, ev, part, pc, EUCLIDEAN, plan, eps)
            h = 1e-5
            rng = np.random.default_rng(0)
            for _ in range(5):
                i = rng.integers(vs.n)
                k = rng.integers(part.K + 1)
                a = rng.integers(vs.d)
                mu_p = vs.mu.copy(); mu_p[i, k, a] += h
                mu_m = vs.mu.copy(); mu_m[i, k, a] -= h
                fd = (
                    elbo_loss(VariationalState(mu_p, vs.log_sigma, vs.beta), ev, part, pc, EUCLIDEAN, plan, eps)
                    - elbo_loss(VariationalState(mu_m, vs.log_sigma, vs.beta), ev, part, pc, EUCLIDEAN, plan, eps)
                ) / (2 * h)
                assert abs(d_mu[i, k, a] - fd) <= 1e-4 * max(abs(fd), 1e-6)

    def test_matches_finite_differences_dot_model(self):
        from tgne.model import DOT

        ev, part, pc, vs, eps = tiny_problem(seed=21)
        plan = SamplingPlan.full()
        d_mu, d_ls, d_beta = loss_gradient(
            vs, ev, part, pc, DOT, plan, eps
        )
        h = 1e-5
        rng = np.random.default_rng(3)
        for _ in range(8):
            i = rng.integers(vs.n)
            k = rng.integers(part.K + 1)
            a = rng.integers(vs.d)
            mu_p = vs.mu.copy(); mu_p[i, k, a] += h
            mu_m = vs.mu.copy(); mu_m[i, k, a] -= h
            fd = (
                elbo_loss(VariationalState(mu_p, vs.log_sigma, vs.beta), ev, part, pc, DOT, plan, eps)
                - elbo_loss(VariationalState(mu_m, vs.log_sigma, vs.beta), ev, part, pc, DOT, plan, eps)
            ) / (2 * h)
            assert abs(d_mu[i, k, a] - fd) <= 1e-4 * max(abs(fd), 1e-6)

    def test_beta_gradient_on_empty_history_is_survival(self):
        n, K, d = 3, 2, 2
        ev = EventList(
            src=np.empty(0, dtype=int), dst=np.empty(0, dtype=int), time=np.empty(0), n=n
        )
        part = IntervalPartition.uniform(K)
        pc = PriorConfig(tau=1.0, part=part, d=d)
        rng = np.random.default_rng(9)
        vs = init_state(n, Hyperparams(d=d, K=K), seed=9)
        vs.mu = rng.standard_normal(vs.mu.shape)
        eps = np.zeros_like(vs.mu)
        _d_mu, _d_ls, d_beta = loss_gradient(
            vs, ev, part, pc, EUCLIDEAN, SamplingPlan.full(), eps
        )
        from tgne.model import LatentConfiguration, RateModel

        survival = total_nll(
            LatentConfiguration(vs.mu, part), RateModel(EUCLIDEAN, vs.beta), ev, part
        )
        assert np.isclose(d_beta, survival, rtol=1e-10)


class TestAdam:
    def test_first_step_bounded_by_lr(self):
        st = init_state(3, Hyperparams(K=2), seed=10)
        opt = Adam(st.mu.shape, st.log_sigma.shape, lr_phi=0.01, lr_beta=1e-5)
        rng = np.random.default_rng(11)
        before = st.mu.copy()
        opt.step(st, rng.standard_normal(st.mu.shape), rng.standard_normal(st.log_sigma.shape), 2.0)
        assert np.all(np.abs(st.mu - before) <= 0.01 * (1 + 1e-6))
        assert abs(st.beta) <= 1e-5 * (1 + 1e-6)

    def test_zero_gradient_no_change(self):
        st = init_state(2, Hyperparams(K=1), seed=12)
        before = (st.mu.copy(), st.log_sigma.copy(), st.beta)
        opt = Adam(st.mu.shape, st.log_sigma.shape, lr_phi=0.01, lr_beta=1e-5)
        opt.step(st, np.zeros_like(st.mu), np.zeros_like(st.log_sigma), 0.0)
        assert np.array_equal(st.mu, before[0])
        assert np.array_equal(st.log_sigma, before[1])
        assert st.beta == before[2]

    def test_quadratic_bowl_convergence(self):
        st = VariationalState(
            mu=np.array([[[1.0]]]), log_sigma=np.zeros((1, 1)), beta=0.0
        )
        opt = Adam(st.mu.shape, st.log_sigma.shape, lr_phi=0.01, lr_beta=1e-5)
        for _ in range(5000):
            opt.step(st, 2.0 * st.mu, np.zeros((1, 1)), 0.0)
        assert abs(st.mu[0, 0, 0]) < 1e-3


class TestFit:
    def test_deterministic_trace(self, sbm_sample):
        hp = Hyperparams(epochs=8, seed=3)
        a = fit(sbm_sample.events, hp)
        b = fit(sbm_sample.events, hp)
        assert np.array_equal(a.loss_trace, b.loss_trace)
        assert np.array_equal(a.state.mu, b.state.mu)

    def test_training_reduces_loss_across_seeds(self):
        """Final loss below initial loss in >= 95% of seeded short runs."""
        from tgne.simulate import default_sbm_spec, sbm_generate

        ev = sbm_generate(default_sbm_spec(n=30, seed=5)).events
        improved = 0
        runs = 50
        for seed in range(runs):
            fm = fit(ev, Hyperparams(epochs=40, seed=seed))
            improved += fm.loss_trace[-1] < fm.loss_trace[0]
        assert improved >= int(0.95 * runs)

    def test_loss_trace_finite_and_full_length(self, sbm_sample):
        hp = Hyperparams(epochs=30, seed=0)
        fm = fit(sbm_sample.events, hp)
        assert fm.loss_trace.shape == (30,)
        assert np.all(np.isfinite(fm.loss_trace))

    def test_split_excludes_held_out_pairs(self, ten_node_events):
        ev = ten_node_events
        split = split_edges(ev, 0.3, 0.1, seed=0)
        hp = Hyperparams(K=2, epochs=3, seed=0)
        fm = fit(ev, hp, split=split)
        assert np.all(np.isfinite(fm.loss_trace))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self, ten_node_events):
        hp = Hyperparams(K=2, epochs=50, seed=0, lr_beta=1e6, beta_init=0.0)
        with pytest.raises(FitDivergedError) as err:
            fit(ten_node_events, hp)
        assert err.value.epoch >= 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_step_raises_with_its_epoch(self):
        """A step that leaves sigma = exp(log sigma) infinite is reported at
        its own epoch, before the next epoch's prior check can fire."""
        ev = sbm_generate(default_sbm_spec(n=12, seed=1)).events
        with pytest.raises(FitDivergedError) as err:
            fit(ev, Hyperparams(epochs=50, lr_phi=1e3, lr_beta=10.0))
        assert err.value.epoch == 0
        assert str(err.value).startswith("non-finite state after the Adam step at epoch 0: ")
        assert "np.float64(" not in str(err.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_after_epoch_zero_prints_plain_floats(self):
        """After the first Adam step beta is a numpy scalar; the message still
        shows each value as a plain float."""
        ev = sbm_generate(default_sbm_spec(n=12, seed=1)).events
        with pytest.raises(FitDivergedError) as err:
            fit(ev, Hyperparams(epochs=50, lr_beta=1e4))
        assert err.value.epoch == 3
        assert str(err.value).startswith("non-finite loss at epoch 3: nll=inf, kl=")
        assert "np.float64(" not in str(err.value)
        assert type(err.value.nll) is float and type(err.value.kl) is float

    def test_negative_sampling_mode_runs(self, sbm_sample):
        hp = Hyperparams(epochs=5, seed=1, negatives_per_node=5)
        fm = fit(sbm_sample.events, hp)
        assert np.all(np.isfinite(fm.loss_trace))

    @pytest.mark.parametrize("directed", [False, True])
    def test_plan_parts_match_a_realize_plan_per_epoch(self, sbm_sample, monkeypatch,
                                                       directed):
        """fit builds a negatives plan's fixed part once per fit and draws from
        it; the trace and state equal, bit for bit, a fit that realizes each
        epoch's plan from scratch, its seed drawn from the third child of the
        fit seed."""
        ev = sbm_sample.events
        if directed:
            ev = EventList(src=ev.dst, dst=ev.src, time=ev.time, n=ev.n, directed=True)
        hp = Hyperparams(epochs=6, seed=2, negatives_per_node=20)
        split = split_edges(ev, 0.1, 0.0, seed=0)
        parts = fit(ev, hp, split=split)

        rng_plan = np.random.default_rng(np.random.SeedSequence(hp.seed).spawn(3)[2])

        def epoch_plan(_fixed, _seed):
            plan = SamplingPlan(negatives_per_node=hp.negatives_per_node,
                                seed=int(rng_plan.integers(2**63)),
                                excluded_pairs=frozenset(split.held_out()))
            return realize_plan(ev, IntervalPartition.uniform(hp.K), plan)

        monkeypatch.setattr(inference, "fixed_terms", lambda ev, part, plan: None)
        monkeypatch.setattr(inference, "draw_terms", epoch_plan)
        each = fit(ev, hp, split=split)
        assert parts.loss_trace.tobytes() == each.loss_trace.tobytes()
        assert parts.state.mu.tobytes() == each.state.mu.tobytes()
        assert parts.state.beta == each.state.beta

    def test_dot_model_fit_runs(self, ten_node_events):
        hp = Hyperparams(K=3, epochs=10, seed=0, rate_model="dot")
        fm = fit(ten_node_events, hp)
        assert np.all(np.isfinite(fm.loss_trace))
        assert fm.loss_trace[-1] < fm.loss_trace[0]

    def test_directed_events_fit(self):
        ev = random_events(n=8, m=30, seed=2, directed=True)
        fm = fit(ev, Hyperparams(K=3, epochs=10, seed=0))
        assert np.all(np.isfinite(fm.loss_trace))

    def test_beta_init_default_is_empirical(self, sbm_sample):
        ev = sbm_sample.events
        fm = fit(ev, Hyperparams(epochs=1, seed=0))
        assert abs(fm.state.beta - empirical_beta(ev)) < 0.01

    def test_beta_stays_in_sane_range(self, sbm_sample):
        fm = fit(sbm_sample.events, Hyperparams(epochs=60, seed=4))
        assert -50.0 < fm.state.beta < 50.0

    def test_reparameterization_consistency(self, ten_node_events):
        """Distinct eps draws move the loss; the spread is real sampling noise."""
        ev = ten_node_events
        part = IntervalPartition.uniform(3)
        pc = PriorConfig(tau=1.0, part=part, d=2)
        vs = init_state(ev.n, Hyperparams(d=2, K=3), seed=0)
        rng = np.random.default_rng(1)
        losses = np.asarray([
            elbo_loss(vs, ev, part, pc, EUCLIDEAN, SamplingPlan.full(),
                      rng.standard_normal(vs.mu.shape))
            for _ in range(1000)
        ])
        assert losses.std() > 0
        assert np.unique(losses).size > 990
        half = len(losses) // 2
        m1, m2 = losses[:half].mean(), losses[half:].mean()
        se = np.sqrt(losses[:half].var(ddof=1) / half + losses[half:].var(ddof=1) / half)
        assert abs(m1 - m2) < 4 * se

    def test_displacement_helper(self):
        vs = VariationalState(
            mu=np.array([[[0.0, 0.0], [3.0, 4.0]]]),
            log_sigma=np.zeros((1, 2)),
            beta=0.0,
        )
        assert np.isclose(mean_frame_displacement(vs), 5.0)


class TestHyperparams:
    # tests/test_cli.py checks every rejected float through the flags and --config
    def test_float_edges_accepted(self):
        hp = Hyperparams(tau=1e-300, lr_phi=1e-300, lr_beta=0.0, beta_init=-50.0)
        assert hp.tau0 == 1e-300


class TestModelIo:
    def test_older_file_with_deleted_options_loads(self, tmp_path, ten_node_events):
        fm = fit(ten_node_events, Hyperparams(K=3, epochs=2, seed=0))
        path = tmp_path / "m.json"
        save_model(fm, path)
        doc = json.loads(path.read_text())
        doc["hyperparams"].update(batch_size=None, mc_samples=1)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        back = load_model(old)
        assert back.hyper == fm.hyper
        assert back.state.mu.tobytes() == fm.state.mu.tobytes()
        again = tmp_path / "again.json"
        save_model(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_round_trip(self, tmp_path, ten_node_events):
        fm = fit(ten_node_events, Hyperparams(K=3, epochs=4, seed=0))
        path = tmp_path / "model.json"
        save_model(fm, path)
        back = load_model(path)
        assert np.array_equal(back.state.mu, fm.state.mu)
        assert np.array_equal(back.state.log_sigma, fm.state.log_sigma)
        assert back.state.beta == fm.state.beta
        assert back.hyper == fm.hyper
        assert np.array_equal(back.part.cut_points, fm.part.cut_points)
        assert back.node_labels == fm.node_labels

    def test_row_major_order_in_json(self, tmp_path, ten_node_events):
        fm = fit(ten_node_events, Hyperparams(K=2, epochs=2, seed=0))
        path = tmp_path / "model.json"
        save_model(fm, path)
        doc = json.loads(path.read_text())
        mu = np.asarray(doc["mu"])
        assert mu.shape == (ten_node_events.n, 3, 2)
        assert np.array_equal(mu, fm.state.mu)

    def test_loss_csv_and_embeddings_csv(self, tmp_path, ten_node_events):
        fm = fit(ten_node_events, Hyperparams(K=3, epochs=6, seed=0))
        loss_path = tmp_path / "loss.csv"
        emb_path = tmp_path / "embeddings.csv"
        write_loss_csv(fm, loss_path)
        write_embeddings_csv(fm, emb_path)
        loss_lines = loss_path.read_text().strip().splitlines()
        assert loss_lines[0] == "epoch,loss"
        assert len(loss_lines) == 7
        emb_lines = emb_path.read_text().strip().splitlines()
        assert emb_lines[0] == "node,k,eta,mu_0,mu_1,sigma"
        assert len(emb_lines) == 1 + ten_node_events.n * 4

    def test_loss_and_embeddings_bytes_match_csv_writer(self, tmp_path, ten_node_events):
        fm = fit(ten_node_events, Hyperparams(K=3, d=3, epochs=6, seed=0))
        awkward = [5e-324, 1e300, -0.0, -1e-300, 0.1]
        fm.loss_trace[: len(awkward)] = awkward
        fm.state.mu[0, :, 0] = awkward[:4]
        fm.state.mu[1, 2] = awkward[2:]
        fm.state.log_sigma[2, 1] = -744.0  # sigma rounds to a subnormal

        def csv_writer_bytes(header, rows):
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            writer.writerow(header)
            writer.writerows(rows)
            return buf.getvalue().encode("utf-8")

        loss_rows = [[e, repr(x)] for e, x in enumerate(fm.loss_trace.tolist(), start=1)]
        emb_rows = [
            [i, k, repr(float(fm.part.cut_points[k]))]
            + [repr(float(x)) for x in fm.state.mu[i, k]]
            + [repr(float(fm.state.sigma[i, k]))]
            for i in range(fm.state.n)
            for k in range(fm.part.K + 1)
        ]
        write_loss_csv(fm, tmp_path / "loss.csv")
        write_embeddings_csv(fm, tmp_path / "embeddings.csv")
        assert (tmp_path / "loss.csv").read_bytes() == csv_writer_bytes(["epoch", "loss"],
                                                                         loss_rows)
        header = ["node", "k", "eta", "mu_0", "mu_1", "mu_2", "sigma"]
        assert (tmp_path / "embeddings.csv").read_bytes() == csv_writer_bytes(header, emb_rows)

    def test_save_load_save_is_byte_identical(self, tmp_path, ten_node_events):
        fm = fit(ten_node_events, Hyperparams(K=3, epochs=3, seed=0))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(fm, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 4),
        K=st.integers(1, 3),
        d=st.integers(1, 3),
        values=st.lists(st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats()), min_size=1),
        labels=st.lists(st.one_of(st.sampled_from(AWKWARD_LABELS), st.text()), min_size=4,
                        max_size=4),
        beta=st.floats(allow_nan=False, allow_infinity=False),
    )
    @example(n=0, K=1, d=1, values=[0.0], labels=["a", "b", "c", "d"], beta=0.0)
    def test_bytes_match_json_dumps(self, tmp_path_factory, n, K, d, values, labels, beta):
        """save_model writes the bytes json.dumps writes for the document,
        ASCII only, and a finite one loads back bit for bit, labels and all."""
        count = n * (K + 1) * (d + 1)
        flat = np.resize(np.asarray(values, dtype=np.float64), count)
        mu = flat[: n * (K + 1) * d].reshape(n, K + 1, d)
        log_sigma = flat[n * (K + 1) * d:].reshape(n, K + 1)
        fm = FittedModel(
            state=VariationalState(mu=mu, log_sigma=log_sigma, beta=beta),
            hyper=Hyperparams(K=K, d=d),
            part=IntervalPartition.uniform(K),
            loss_trace=np.empty(0),
            node_labels=labels[:n],
            time_range=(0.25, 1e16),
            directed=n % 2 == 1,
        )
        path = tmp_path_factory.mktemp("io") / "model.json"
        save_model(fm, path)
        doc = {
            "format": MODEL_FORMAT, "n": n, "d": d, "K": K,
            "cut_points": fm.part.cut_points.tolist(), "mu": mu.tolist(),
            "log_sigma": log_sigma.tolist(), "beta": beta,
            "hyperparams": dataclasses.asdict(fm.hyper), "node_labels": labels[:n],
            "time_range": [0.25, 1e16], "directed": n % 2 == 1,
        }
        assert path.read_bytes() == json.dumps(doc).encode("ascii")
        if not np.isfinite(flat).all():
            with pytest.raises(ValueError):
                load_model(path)
            return
        back = load_model(path)
        assert back.state.mu.shape == mu.shape and back.state.log_sigma.shape == log_sigma.shape
        assert back.state.mu.tobytes() == mu.tobytes()
        assert back.state.log_sigma.tobytes() == log_sigma.tobytes()
        assert back.state.beta == beta and back.node_labels == labels[:n]
        assert back.directed == fm.directed and back.time_range == fm.time_range

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("K", lambda doc: doc.update(K=doc["K"] + 1)),
            ("cut_points", lambda doc: doc.update(cut_points=[0.0, 0.5, 1.0])),
            ("mu", lambda doc: doc.update(n=doc["n"] + 1, node_labels=doc["node_labels"] + ["x"])),
            ("mu", lambda doc: doc.update(d=doc["d"] + 1)),
            ("log_sigma", lambda doc: doc.update(log_sigma=[r[:-1] for r in doc["log_sigma"]])),
            ("node_labels", lambda doc: doc.update(node_labels=doc["node_labels"][:5])),
            ("rate_model", lambda doc: doc["hyperparams"].update(rate_model="Euclidean")),
            ("hyperparams", lambda doc: doc["hyperparams"].update(K=doc["K"] + 1)),
            ("hyperparams", lambda doc: doc["hyperparams"].update(d=doc["d"] + 1)),
            ("mu", lambda doc: doc["mu"][3][1].__setitem__(0, float("nan"))),
            ("log_sigma", lambda doc: doc["log_sigma"][0].__setitem__(2, float("inf"))),
            ("beta", lambda doc: doc.update(beta=float("-inf"))),
        ],
        ids=["K", "cut_points", "n", "d", "log_sigma", "node_labels", "rate_model",
             "hyperparams_K", "hyperparams_d", "mu_nan", "log_sigma_inf", "beta_inf"],
    )
    def test_inconsistent_file_rejected(self, tmp_path, ten_node_events, monkeypatch, field,
                                        edit):
        fm = fit(ten_node_events, Hyperparams(K=3, epochs=2, seed=0))
        path = tmp_path / "model.json"
        save_model(fm, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        if "NaN" in path.read_text() or "Infinity" in path.read_text():
            # orjson refuses the literals json.dumps writes for them; through
            # json.loads, which reads them, load_model still names the field
            with pytest.raises(orjson.JSONDecodeError):
                load_model(path)
            monkeypatch.setattr(orjson, "loads", json.loads)
        with pytest.raises(ValueError, match=field):
            load_model(path)


def set_based_empirical_beta(ev, excluded_pairs=frozenset()):
    """empirical_beta through per-event tuple membership and a set of pairs,
    an undirected pair in either orientation."""
    if ev.m == 0:
        return 0.0
    if not ev.directed:
        excluded_pairs = {(min(a, b), max(a, b)) for a, b in excluded_pairs}
    if excluded_pairs:
        keep = ~np.asarray(
            [(a, b) in excluded_pairs for a, b in zip(ev.src.tolist(), ev.dst.tolist())]
        )
        m = int(keep.sum())
        pairs = len({(a, b) for a, b in zip(ev.src[keep].tolist(), ev.dst[keep].tolist())})
    else:
        m = ev.m
        pairs = len(ev.unique_pairs())
    if m == 0 or pairs == 0:
        return 0.0
    return float(np.log(m / pairs))


class TestEmpiricalBeta:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_based_form(self, directed, seed):
        ev = random_events(n=9, m=60, seed=seed, directed=directed)
        rng = np.random.default_rng(seed)
        pairs = sorted(ev.unique_pairs())
        held = [pairs[r] for r in rng.choice(len(pairs), size=len(pairs) // 3, replace=False)]
        # the reverse orientation: undirected, the same pair; directed, no stored event
        flipped = {(b, a) for a, b in held[: len(held) // 2]}
        for excluded in (frozenset(), frozenset(held), frozenset(held) | flipped,
                         frozenset(pairs)):
            got = empirical_beta(ev, excluded)
            assert got == set_based_empirical_beta(ev, excluded)
            assert type(got) is float
        for bad in ((0, 99), (-1, 2)):
            with pytest.raises(ValueError, match="names a node outside"):
                empirical_beta(ev, frozenset(held) | {bad})

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 9),
        m=st.integers(0, 40),
        directed=st.booleans(),
        picks=st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=12),
        as_array=st.booleans(),
    )
    def test_excludes_what_the_likelihood_excludes(self, seed, n, m, directed, picks,
                                                    as_array):
        """Pairs in any order and orientation, repeated or with no events, as a
        list or an array: the bias start leaves out exactly the events and
        pairs that realize_plan leaves out of the likelihood. A pair naming a
        node outside 0..n-1 raises, in either form."""
        ev = random_events(n=n, m=m, seed=seed, directed=directed)

        def form(pairs):
            return np.asarray(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs

        picked = [(a, b) for a, b in picks if a != b]
        pairs = [(a, b) for a, b in picked if 0 <= a < n and 0 <= b < n]
        if len(pairs) < len(picked):  # the first pair outside, in iteration order
            a, b = next(p for p in picked if p not in pairs)
            with pytest.raises(ValueError, match=rf"pair \({a}, {b}\) names a node outside"):
                empirical_beta(ev, form(picked))
        got = empirical_beta(ev, form(pairs))
        assert got == set_based_empirical_beta(ev, pairs)
        terms = realize_plan(ev, IntervalPartition.uniform(2),
                             SamplingPlan(excluded_pairs=frozenset(pairs)))
        events = terms.ev_w0.sum()
        kept_pairs = np.unique(terms.ev_i * n + terms.ev_j).size
        assert got == (float(np.log(events / kept_pairs)) if events else 0.0)
        if not directed:
            assert got == empirical_beta(ev, [(b, a) for a, b in pairs])
