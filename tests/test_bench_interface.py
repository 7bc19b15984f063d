"""The benchmark's calls into tgne still bind.

``tgnebench/`` runs the CLI with each workload's argv, and its replica of fit
and eval calls the layer functions, with keywords or positionally. A flag,
keyword or function it reaches that tgne no longer has would blank that
workload's metrics; these checks fail on it first.
"""

import inspect
import sys
from pathlib import Path

import pytest

from tgne import evaluation, events, inference, model, prior
from tgne.cli import build_parser

sys.path.append(str(Path(__file__).resolve().parents[1] / "tgnebench"))
from workloads import WORKLOADS  # noqa: E402  (imports the bench's gen by name)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_argv_parses(name):
    wl = WORKLOADS[name]
    parser = build_parser()
    fit = parser.parse_args(wl.fit_argv("events.csv", "fit"))
    ev = parser.parse_args(wl.eval_argv("events.csv", "fit/model.json", "eval"))
    assert (fit.command, fit.epochs, fit.negatives) == ("fit", wl.epochs, wl.negatives)
    assert (ev.command, ev.B, ev.lsdm_iters) == ("eval", wl.B, wl.lsdm_iters)


# (callable, positional argument count, keywords) of the replica's calls; a
# method is listed unbound, so its count includes self
REPLICA_CALLS = [
    # events and setup
    (events.parse_events, 1, {}),
    (events.interval_counts, 2, {}),
    (events.IntervalPartition.uniform, 1, {}),
    (inference.empirical_beta, 2, {}),
    (model.realize_plan, 3, {}),
    # fit
    (prior.kl_to_prior, 2, {}),
    (prior.kl_gradients, 2, {}),
    (inference.Adam, 4, {}),
    (inference.Adam.step, 5, {}),
    # model files
    (inference.save_model, 2, {}),
    (inference.write_loss_csv, 2, {}),
    (inference.write_embeddings_csv, 2, {}),
    (inference.load_model, 1, {}),
    # eval
    (evaluation.restrict_counts, 2, {}),
    (evaluation.fit_lsdm, 5, {}),
    (evaluation.auc, 1, {}),
    (evaluation.node_uncertainty, 3, {}),
    (evaluation.neighbor_distance, 4, {}),
    (events.CountTensor.degree, 3, {}),
    (events.CountTensor.pairs_active_in, 2, {}),
    # calls with keywords
    (events.split_edges, 3, {"seed": 0}),
    (inference.Hyperparams, 0, {"K": 15, "epochs": 6, "seed": 0, "negatives_per_node": 20}),
    (prior.PriorConfig, 0, {"tau": 1.0, "part": None, "d": 2, "tau0": 1.0}),
    (inference.init_state, 2, {"seed": 0}),
    (model.SamplingPlan, 0, {"negatives_per_node": 20, "seed": 0, "excluded_pairs": None}),
    (model.nll_value_grad, 5, {"riemann_r": 10, "want_grad": True}),
    (inference.FittedModel, 0, {"state": None, "hyper": None, "part": None, "loss_trace": None,
                                "node_labels": None, "time_range": None, "directed": False}),
    (evaluation.LsdmOpts, 0, {"iters": 30, "lr": 0.05, "seed": 0}),
    (evaluation.build_instances, 3, {"seed": 0}),
    (evaluation.score_instances, 2, {"fm": None, "train_counts": None, "lsdm_models": None,
                                     "seed": 0, "B": 10}),
    (evaluation.uncertainty_regression, 4, {"B": 10, "seed": 0}),
    (evaluation.rate_vs_uncertainty_table, 4, {"B": 10, "seed": 0}),
]


@pytest.mark.parametrize("fn, positional, keywords", REPLICA_CALLS,
                         ids=[fn.__qualname__ for fn, _, _ in REPLICA_CALLS])
def test_replica_keywords_bind(fn, positional, keywords):
    inspect.signature(fn).bind(*[None] * positional, **keywords)


def test_replica_reads_riemann_r():
    assert isinstance(inference.Hyperparams().riemann_r, int)


def test_replica_reads_plan_row_counts():
    """The replica reads ``model.survival_rows`` and ``model.event_rows`` off
    realize_plan's result through ``hasattr``: a renamed field would blank
    them without an error."""
    ev = events.EventList(src=[0, 1], dst=[1, 2], time=[0.2, 0.7], n=3)
    terms = model.realize_plan(ev, events.IntervalPartition.uniform(2), model.SamplingPlan())
    assert terms.pair_i.size == 3 and terms.ev_i.size == 2
