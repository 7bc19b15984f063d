"""The benchmark's workloads: generated inputs plus the CLI flags run on them.

Every workload fits and evaluates with all five scorers, so every layer runs
on every workload; the sizes and flags decide which layer dominates. ``fit``
and ``eval`` always get the same ``--test-frac`` and ``--split-seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import Sbm

SCORERS = ("tgne", "tgne_predictive", "lsdm", "pa", "random")
TEST_FRAC = 0.1
SPLIT_SEED = 0
FIT_SEED = 0
EVAL_SEED = 0
K = 15


@dataclass(frozen=True)
class Workload:
    name: str
    sbm: Sbm
    epochs: int
    B: int
    lsdm_iters: int
    negatives: int | None = None
    auc_gate: float | None = None  # minimum held-out tgne AUC, where meaningful

    def fit_argv(self, events: str, out: str) -> list[str]:
        argv = [
            "fit", "--events", events, "--out", out,
            "--epochs", str(self.epochs), "--K", str(K), "--seed", str(FIT_SEED),
            "--test-frac", str(TEST_FRAC), "--split-seed", str(SPLIT_SEED),
        ]
        if self.negatives is not None:
            argv += ["--negatives", str(self.negatives)]
        return argv

    def eval_argv(self, events: str, model: str, out: str) -> list[str]:
        return [
            "eval", "--events", events, "--model", model, "--out", out,
            "--scorers", ",".join(SCORERS), "--B", str(self.B),
            "--lsdm-iters", str(self.lsdm_iters), "--seed", str(EVAL_SEED),
            "--test-frac", str(TEST_FRAC), "--split-seed", str(SPLIT_SEED),
        ]


WORKLOADS = {
    # the paper's fixture and the user's whole pipeline at small n; held-out
    # AUC over generator seeds 1-60 is 0.849-0.904 (median 0.88), so the
    # gate sits below what a seed alone moves it to (see README.md)
    "fixture": Workload("fixture", Sbm(60, 8.0, 0.3), epochs=100, B=200,
                        lsdm_iters=800, auc_gate=0.82),
    # the fixture's graph at 5x the event rate: ingest and per-event work
    "dense": Workload("dense", Sbm(60, 40.0, 1.5), epochs=60, B=20, lsdm_iters=200),
    # many nodes, few events per pair: negative sampling and O(n^2) eval loops
    "sparse": Workload("sparse", Sbm(750, 0.03, 0.002), epochs=6, B=10,
                       lsdm_iters=30, negatives=20),
    # seconds-long smoke size for the self-tests; not a benchmark workload
    "toy": Workload("toy", Sbm(16, 6.0, 0.3), epochs=30, B=4, lsdm_iters=10),
}

BENCH_WORKLOADS = ("fixture", "dense", "sparse")
