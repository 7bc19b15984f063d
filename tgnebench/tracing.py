"""Per-layer trace: the CLI's fit and eval re-run through each module's public
functions, in the CLI's order, with a span around every call.

Spans (name, start, end, parent, workload, run id) stay in memory until the
run ends. ``cli.fit`` and ``cli.eval`` are the root spans; the layer spans
under them plus the ``cli.*_other_s`` residuals add up to the untraced
command times. A layer function that a later version renames or removes
makes its metrics absent instead of failing the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median

import numpy as np

from workloads import EVAL_SEED, FIT_SEED, K, SCORERS, SPLIT_SEED, TEST_FRAC

# layers timed per call; each gives `<name>_s` (median per call) and `<name>_n`
LAYERS = (
    "events.parse_events",
    "events.split_edges",
    "inference.empirical_beta",
    "events.interval_counts",
    "model.realize_plan",
    "model.nll_value_grad",
    "model.nll_value_grad_threads2",
    "prior.kl_value_grad",
    "inference.adam_step",
    "inference.epoch",
    "inference.save_model",
    "inference.load_model",
    "evaluation.restrict_counts",
    "evaluation.fit_lsdm",
    "evaluation.build_instances",
    *(f"evaluation.score_{s}" for s in SCORERS),
    "evaluation.auc",
    "evaluation.node_table",
    "evaluation.edge_table",
    "evaluation.rate_table",
)
THREADS2_CALLS = 5


class Tracer:
    """Collects spans in memory; they are written out when the run ends."""

    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "workload": self.workload, "run": self.run_id,
            })

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def span_stats(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, per-call durations and self times."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    stats: dict[str, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        entry = stats.setdefault(s["name"], {"durations": [], "self": []})
        entry["durations"].append(dur)
        entry["self"].append(dur - child_time.get(s["id"], 0.0))
    return stats


def children_total(spans: list[dict], root: str) -> float | None:
    """Summed duration of the direct children of the (single) span `root`."""
    ids = [s["id"] for s in spans if s["name"] == root]
    if len(ids) != 1:
        return None
    return sum(s["end"] - s["start"] for s in spans if s["parent"] == ids[0])


class FitReplica:
    """`tgne fit` through the public layer functions; mirrors inference.fit."""

    def __init__(self, tr: Tracer, wl, tg):
        self.tr, self.wl, self.tg = tr, wl, tg
        self.sampled_rows: list[int] = []
        self.first_terms = None
        self.state = None
        self.losses: list[float] = []

    def run(self, events_path: Path, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tr, wl = self.tr, self.wl
        ev_mod, model, prior, inf = (
            self.tg.events, self.tg.model, self.tg.prior, self.tg.inference
        )
        ev = tr.call("events.parse_events", ev_mod.parse_events, events_path)
        split = tr.call("events.split_edges", ev_mod.split_edges, ev, TEST_FRAC, 0.0,
                        seed=SPLIT_SEED)
        hp = inf.Hyperparams(K=K, epochs=wl.epochs, seed=FIT_SEED,
                             negatives_per_node=wl.negatives)
        part = ev_mod.IntervalPartition.uniform(hp.K)
        pc = prior.PriorConfig(tau=hp.tau, part=part, d=hp.d, tau0=hp.tau0)
        seq_init, seq_eps, seq_plan, _seq_batch = np.random.SeedSequence(hp.seed).spawn(4)
        state = inf.init_state(ev.n, hp, seed=seq_init)
        excluded = frozenset(split.held_out())
        state.beta = tr.call("inference.empirical_beta", inf.empirical_beta, ev, excluded)
        rng_eps = np.random.default_rng(seq_eps)
        rng_plan = np.random.default_rng(seq_plan)
        self.full_rows = ev.n * (ev.n - 1) // 2 - len(excluded)
        terms = None
        if hp.negatives_per_node is None:
            terms = self._realize(ev, part, model.SamplingPlan(excluded_pairs=excluded))
        opt = inf.Adam(state.mu.shape, state.log_sigma.shape, hp.lr_phi, hp.lr_beta)
        for _epoch in range(hp.epochs):
            with tr.span("inference.epoch"):
                if hp.negatives_per_node is not None:
                    plan = model.SamplingPlan(
                        negatives_per_node=hp.negatives_per_node,
                        seed=int(rng_plan.integers(2**63)),
                        excluded_pairs=excluded,
                    )
                    terms = self._realize(ev, part, plan)
                eps = rng_eps.standard_normal(state.mu.shape)
                sigma = state.sigma
                z = state.mu + sigma[:, :, None] * eps
                nll, dz, dbeta = tr.call(
                    "model.nll_value_grad", model.nll_value_grad, z, state.beta,
                    hp.rate_model, part, terms, riemann_r=hp.riemann_r, want_grad=True,
                )
                with tr.span("prior.kl_value_grad"):
                    kl = prior.kl_to_prior(state, pc)
                    kl_dmu, kl_dsigma = prior.kl_gradients(state, pc)
                d_mu = dz + kl_dmu
                d_ls = sigma * np.einsum("nkd,nkd->nk", dz, eps) + sigma * kl_dsigma
                tr.call("inference.adam_step", opt.step, state, d_mu, d_ls, dbeta)
                self.losses.append(nll + kl)
        self.state, self.part, self.hp = state, part, hp
        fm = inf.FittedModel(
            state=state, hyper=hp, part=part, loss_trace=np.asarray(self.losses),
            node_labels=list(ev.node_labels), time_range=ev.time_range,
            directed=ev.directed,
        )
        with tr.span("inference.save_model"):
            inf.save_model(fm, out_dir / "model.json")
            inf.write_loss_csv(fm, out_dir / "loss.csv")
            inf.write_embeddings_csv(fm, out_dir / "embeddings.csv")

    def _realize(self, ev, part, plan):
        terms = self.tr.call("model.realize_plan", self.tg.model.realize_plan, ev, part, plan)
        if self.first_terms is None:
            self.first_terms = terms
        self.sampled_rows.append(int(np.size(getattr(terms, "pair_i", np.empty(0)))))
        return terms


class EvalReplica:
    """`tgne eval` through the public layer functions, minus its file writes."""

    def __init__(self, tr: Tracer, wl, tg):
        self.tr, self.wl, self.tg = tr, wl, tg
        self.lsdm = {}
        self.branch_dense: list[bool] = []

    def run(self, events_path: Path, model_path: Path) -> None:
        tr, wl = self.tr, self.wl
        ev_mod, inf, evl = self.tg.events, self.tg.inference, self.tg.evaluation
        fm = tr.call("inference.load_model", inf.load_model, model_path)
        ev = tr.call("events.parse_events", ev_mod.parse_events, events_path)
        split = tr.call("events.split_edges", ev_mod.split_edges, ev, TEST_FRAC, 0.0,
                        seed=SPLIT_SEED)
        part = fm.part
        counts = tr.call("events.interval_counts", ev_mod.interval_counts, ev, part)
        rng = np.random.SeedSequence(EVAL_SEED)
        train_pairs = split.train
        train_counts = tr.call("evaluation.restrict_counts", evl.restrict_counts,
                               counts, train_pairs)
        opts = evl.LsdmOpts(iters=wl.lsdm_iters, lr=0.05, seed=EVAL_SEED)
        for k in range(1, part.K + 1):
            self.lsdm[k] = tr.call("evaluation.fit_lsdm", evl.fit_lsdm, train_counts,
                                   train_pairs, k, fm.state.d, opts)
        split_sets = {"train": train_pairs}
        if split.val:
            split_sets["val"] = split.val
        if split.test:
            split_sets["test"] = split.test
        for pairs, sseq in zip(split_sets.values(), rng.spawn(len(split_sets))):
            child = np.random.default_rng(sseq)
            instances, _shortfall = tr.call(
                "evaluation.build_instances", evl.build_instances, counts, pairs, part,
                seed=int(child.integers(2**63)),
            )
            for scorer in SCORERS:
                scored = tr.call(
                    f"evaluation.score_{scorer}", evl.score_instances, instances, scorer,
                    fm=fm, train_counts=train_counts, lsdm_models=self.lsdm,
                    seed=int(child.integers(2**63)), B=wl.B,
                )
                tr.call("evaluation.auc", evl.auc, scored)
        with tr.span("evaluation.node_table"):
            for i in range(ev.n):
                for k in range(1, part.K + 1):
                    evl.node_uncertainty(fm.state, i, k)
                    evl.neighbor_distance(fm, counts, i, k)
                    counts.degree(i, k)
        tr.call("evaluation.edge_table", evl.uncertainty_regression, fm.state, train_counts,
                fm.hyper.rate_model, part, B=wl.B, seed=EVAL_SEED)
        tr.call("evaluation.rate_table", evl.rate_vs_uncertainty_table, ev, fm.state,
                fm.hyper.rate_model, part, B=wl.B, seed=EVAL_SEED)
        self.branch_dense = _dense_branches(counts, split_sets.values(), part.K)


def _dense_branches(counts, pair_sets, K: int) -> list[bool]:
    """Per (split, interval): does build_instances take its enumeration branch?"""
    n = counts.n
    universe = n * (n - 1) if counts.directed else n * (n - 1) // 2
    active = [counts.pairs_active_in(k) for k in range(1, K + 1)]
    out = []
    for pairs in pair_sets:
        for act in active:
            take = min(len(act & pairs), universe - len(act))
            out.append(bool(take) and universe - len(act) <= 4 * take)
    return out


def run_stage(tr: Tracer, stage: str, errors: dict, fn, *args) -> None:
    """Run one replica stage under root span `cli.<stage>`.

    An AttributeError or TypeError means a layer function was renamed or
    removed or changed its signature; it is noted in `errors` and the
    stage's remaining layer metrics are absent.
    """
    try:
        with tr.span(f"cli.{stage}"):
            fn(*args)
    except (AttributeError, TypeError) as exc:
        errors[stage] = f"{type(exc).__name__}: {exc}"


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to the traced code, measured on empty spans."""
    tr = Tracer("span_cost", "span_cost")
    start = time.perf_counter()
    for _ in range(calls):
        with nullcontext():
            pass
    base = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        with tr.span("x"):
            pass
    return max(time.perf_counter() - start - base, 0.0) / calls


def threads2_probe(tr: Tracer, fit_rep: FitReplica, model) -> None:
    """nll_value_grad with threads=2 on the first realized terms, final state."""
    st = fit_rep.state
    for _ in range(THREADS2_CALLS):
        tr.call("model.nll_value_grad_threads2", model.nll_value_grad, st.mu, st.beta,
                fit_rep.hp.rate_model, fit_rep.part, fit_rep.first_terms,
                riemann_r=fit_rep.hp.riemann_r, want_grad=True, threads=2)


def layer_metrics(tr: Tracer, fit_rep: FitReplica, eval_rep: EvalReplica,
                  untraced: dict[str, float], errors: dict[str, str]
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); absent layers are left out.

    `untraced` maps "fit"/"eval" to the untraced CLI command times.
    """
    stats = span_stats(tr.spans)
    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        if name in stats:
            out[f"{name}_s"] = (median(stats[name]["durations"]), "s")
            out[f"{name}_n"] = (len(stats[name]["durations"]), "count")
    if "inference.epoch" in stats:
        out["inference.epoch_self_s"] = (median(stats["inference.epoch"]["self"]), "s")
    for stage, seconds in untraced.items():
        layers = children_total(tr.spans, f"cli.{stage}")
        if layers is not None and stage not in errors:
            out[f"cli.{stage}_other_s"] = (seconds - layers, "s")
    terms = fit_rep.first_terms
    if terms is not None and hasattr(terms, "pair_i") and hasattr(terms, "ev_i"):
        out["model.survival_rows"] = (int(terms.pair_i.size), "count")
        out["model.event_rows"] = (int(terms.ev_i.size), "count")
    if fit_rep.sampled_rows and fit_rep.sampled_rows[0]:
        out["model.sampled_rows_frac"] = (
            float(np.mean(fit_rep.sampled_rows)) / fit_rep.full_rows, "1")
    if eval_rep.lsdm:
        conv = [bool(getattr(m, "converged", False)) for m in eval_rep.lsdm.values()]
        out["evaluation.lsdm_converged_frac"] = (sum(conv) / len(conv), "1")
    if eval_rep.branch_dense:
        out["evaluation.dense_branch_frac"] = (
            sum(eval_rep.branch_dense) / len(eval_rep.branch_dense), "1")
    roots = [s for s in tr.spans if s["parent"] is None and s["name"].startswith("cli.")]
    traced = sum(s["end"] - s["start"] for s in roots)
    if traced > 0:
        # traced minus untraced time is the spans' own cost; an A/B of two
        # whole replicas would bury it under run-to-run noise
        in_roots = sum(1 for s in tr.spans if s["name"] != "model.nll_value_grad_threads2")
        added = span_cost() * in_roots
        out["trace.overhead_frac"] = (traced / (traced - added) - 1.0, "1")
    return out
