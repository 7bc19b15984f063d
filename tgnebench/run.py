"""tgne benchmark: `tgne fit` and `tgne eval` wall time on generated workloads.

    python3 tgnebench/run.py --workload fixture --seed 1 --seconds 30 --trace 0
    python3 tgnebench/run.py --workload all --seed 1

Run from the repository root. Each workload runs in one fresh process that
imports the package from ``src/``. With ``--trace 0`` the CLI runs in-process
(``tgne.cli.main``) on an events file generated from ``--seed``, repeated for
about ``--seconds`` seconds (at least three times), and every output is
checked; times are reported at a fixed reference speed (see speed.py).
With ``--trace 1`` the run gives per-layer times instead (see tracing.py). The
last line of standard output is one JSON object; a results file with the
environment and spans goes to ``.tgnebench_runs/results/``. See README.md.
"""

from __future__ import annotations

import os

# pinned before numpy loads, so the whole load comes from this one process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".tgnebench_runs"
SETUPS_PER_REPEAT = 3
MIN_REPEATS = 3

END_TO_END = {  # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "test_auc_tgne": ("1", "higher"),
}


def _die(message: str) -> None:
    print(f"tgnebench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy

    sources = sorted((SRC / "tgne").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def setup_once(wl, events_path: Path) -> float:
    """Events CSV to first epoch ready: parse, split, bias start, first plan."""
    import numpy as np
    from tgne.events import IntervalPartition, parse_events, split_edges
    from tgne.inference import empirical_beta
    from tgne.model import SamplingPlan, realize_plan
    from workloads import FIT_SEED, K, SPLIT_SEED, TEST_FRAC

    start = time.perf_counter()
    ev = parse_events(events_path)
    excluded = frozenset(split_edges(ev, TEST_FRAC, 0.0, seed=SPLIT_SEED).held_out())
    empirical_beta(ev, excluded)
    if wl.negatives is None:
        plan = SamplingPlan(excluded_pairs=excluded)
    else:  # the first plan fit() draws: third child of the fit seed
        seq_plan = np.random.SeedSequence(FIT_SEED).spawn(4)[2]
        seed = int(np.random.default_rng(seq_plan).integers(2**63))
        plan = SamplingPlan(negatives_per_node=wl.negatives, seed=seed,
                            excluded_pairs=excluded)
    realize_plan(ev, IntervalPartition.uniform(K), plan)
    return time.perf_counter() - start


def cli_fit(ledger, wl, events: Path, fit_dir: Path) -> float | None:
    """`tgne fit` in-process; its wall time, or None if it failed."""
    from tgne.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = main(wl.fit_argv(str(events), str(fit_dir)))
        seconds = time.perf_counter() - start
    return seconds if ledger.record("tgne fit exit code", rc == 0, f"exit {rc}") else None


def cli_eval(ledger, wl, events: Path, fit_dir: Path, eval_dir: Path) -> float | None:
    """`tgne eval` on the fit's model; its wall time, or None if it failed."""
    from tgne.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = main(wl.eval_argv(str(events), str(fit_dir / "model.json"), str(eval_dir)))
        seconds = time.perf_counter() - start
    return seconds if ledger.record("tgne eval exit code", rc == 0, f"exit {rc}") else None


def timed_run(wl, seconds: float, events: Path, info: dict, work: Path, ledger):
    """End-to-end metrics: repeats of fit + eval for about `seconds`."""
    import checks
    import speed
    from workloads import K

    # each operation's wall time and its time at the reference speed
    setups, fits, evals, dirs = [], [], [], []
    start = time.perf_counter()
    while True:
        r = len(dirs)
        # set-up samples spread over the run, like the command samples
        for _ in range(SETUPS_PER_REPEAT):
            with speed.Window() as window:
                wall = setup_once(wl, events)
            setups.append((wall, window.rescale(wall)))
        fit_dir, eval_dir = work / f"r{r}" / "fit", work / f"r{r}" / "eval"
        with speed.Window() as fit_window:
            fit_s = cli_fit(ledger, wl, events, fit_dir)
        eval_s = None
        if fit_s is not None:
            with speed.Window() as eval_window:
                eval_s = cli_eval(ledger, wl, events, fit_dir, eval_dir)
        if eval_s is not None:
            fits.append((fit_s, fit_window.rescale(fit_s)))
            evals.append((eval_s, eval_window.rescale(eval_s)))
            checks.check_repeat(ledger, fit_dir, eval_dir, nodes=info["nodes"], K=K,
                                events=info["events"], auc_gate=wl.auc_gate)
        dirs.append((fit_dir, eval_dir))
        elapsed = time.perf_counter() - start
        if r + 1 >= MIN_REPEATS and elapsed * (r + 2) / (r + 1) > seconds:
            break
    ledger.check("model.json identical across repeats", checks.identical,
                 [f / "model.json" for f, _ in dirs])
    ledger.check("auc.json identical across repeats", checks.identical,
                 [e / "auc.json" for _, e in dirs])
    try:
        auc = checks.held_out_auc(dirs[0][1])
    except (OSError, KeyError, ValueError):
        auc = 0.0  # already counted as a failed check
    # Times are at the reference speed (speed.py): the host's speed moves a
    # wall time averaged over a whole run by 15-25 %.
    metrics = {
        "setup_s": median(ref for _, ref in setups),
        "fit_s": mean(ref for _, ref in fits) if fits else 0.0,
        "eval_s": mean(ref for _, ref in evals) if evals else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_auc_tgne": auc,
    }
    extra = {
        "repeats": len(dirs),
        "wall": {"setup_s": median(w for w, _ in setups),
                 "fit_s": mean(w for w, _ in fits) if fits else 0.0,
                 "eval_s": mean(w for w, _ in evals) if evals else 0.0},
        # (wall, at reference speed) per operation
        "setup_s_samples": setups, "fit_s_samples": fits, "eval_s_samples": evals,
    }
    return {k: (v, END_TO_END[k][0]) for k, v in metrics.items()}, extra


def traced_run(wl, events: Path, info: dict, work: Path, ledger, run_id: str):
    """Per-layer metrics: each untraced CLI command, then its traced replica.

    Command and replica run back to back, so that the `cli.*_other_s`
    residuals compare times taken under similar machine load.
    """
    import checks
    import tracing
    from workloads import K

    fit_dir, eval_dir = work / "cli" / "fit", work / "cli" / "eval"
    extra = {}
    try:
        import tgne.evaluation
        import tgne.events
        import tgne.inference
        import tgne.model
        import tgne.prior
    except ImportError as exc:
        extra["trace_error"] = f"{type(exc).__name__}: {exc}"
        tgne = None
    tr = tracing.Tracer(wl.name, run_id)
    fit_rep = eval_rep = None
    errors = {}
    fit_s = cli_fit(ledger, wl, events, fit_dir)
    if fit_s is not None and tgne is not None:
        fit_rep = tracing.FitReplica(tr, wl, tgne)
        tracing.run_stage(tr, "fit", errors, fit_rep.run, events, work / "traced")
    eval_s = None if fit_s is None else cli_eval(ledger, wl, events, fit_dir, eval_dir)
    if eval_s is None:
        return {}, extra, tr.spans
    checks.check_repeat(ledger, fit_dir, eval_dir, nodes=info["nodes"], K=K,
                        events=info["events"], auc_gate=wl.auc_gate)
    if tgne is None:
        return {}, extra, tr.spans
    eval_rep = tracing.EvalReplica(tr, wl, tgne)
    tracing.run_stage(tr, "eval", errors, eval_rep.run, events, fit_dir / "model.json")
    if errors:  # a renamed or removed layer function: its metrics are absent
        extra["trace_error"] = "; ".join(f"{k}: {v}" for k, v in errors.items())
    if fit_rep.state is not None and fit_rep.first_terms is not None:
        try:
            tracing.threads2_probe(tr, fit_rep, tgne.model)
        except TypeError as exc:
            extra["threads2_error"] = f"{type(exc).__name__}: {exc}"
    cli_losses = [float(r.split(",")[1])
                  for r in (fit_dir / "loss.csv").read_text().splitlines()[1:]]
    extra["replica_loss_matches_cli"] = fit_rep.losses == cli_losses
    extra["cli_fit_s"], extra["cli_eval_s"] = fit_s, eval_s
    metrics = tracing.layer_metrics(tr, fit_rep, eval_rep,
                                    {"fit": fit_s, "eval": eval_s}, errors)
    stats = tracing.span_stats(tr.spans)
    extra["span_totals"] = {
        name: {"calls": len(s["durations"]), "total_s": sum(s["durations"]),
               "self_s": sum(s["self"])}
        for name, s in stats.items()
    }
    return metrics, extra, tr.spans


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import checks
    import gen
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    run_id = f"{name}-seed{seed}-trace{int(traced)}-pid{os.getpid()}"
    work = RUNS / "work" / run_id
    work.mkdir(parents=True, exist_ok=True)
    ledger = checks.Ledger()
    spans = []
    try:
        events = work / "events.csv"
        info = gen.write_events(wl.sbm, seed, events)
        if traced:
            metrics, extra, spans = traced_run(wl, events, info, work, ledger, run_id)
        else:
            metrics, extra = timed_run(wl, seconds, events, info, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "run_id": run_id, "environment": environment(), "input": info,
        "failed_frac": ledger.failed_frac, "failures": ledger.failures,
        **result, **extra,
    }
    out = RUNS / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{run_id}.json").write_text(json.dumps(record, indent=2))
    if spans:
        with open(out / f"{run_id}.spans.jsonl", "w", encoding="utf-8") as handle:
            for s in spans:
                handle.write(json.dumps(s) + "\n")
    report(name, result, ledger, extra)
    return result


def report(name: str, result: dict, ledger, extra: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"# workload {name}")
    for metric, m in result["metrics"].items():
        better = END_TO_END.get(metric, ("", "-"))[1]
        print(f"{metric:<42} {m['value']:>14.6g} {m['unit']:<6} {better}")
    print(f"{'failed_frac':<42} {ledger.failed_frac:>14.6g} {'1':<6} lower"
          f"  ({ledger.failed}/{ledger.attempted} operations failed)")
    for line in ledger.failures:
        print(f"FAILED {line}")
    for metric, wall in extra.get("wall", {}).items():
        print(f"{metric + ' (wall, not rescaled)':<42} {wall:>14.6g} s")
    for key in ("trace_error", "threads2_error"):
        if key in extra:
            print(f"absent layer metrics: {extra[key]}")


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every benchmark workload, each in a fresh process, one after another."""
    from workloads import BENCH_WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in BENCH_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            total["correct"] = False
            total["failed"] += 1
            total["attempted"] += 1
            continue
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tgne" / "__init__.py").is_file():
        _die(f"no tgne package under {SRC}; run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    # one line per unconverged LSDM interval; evaluation.lsdm_converged_frac has it
    warnings.filterwarnings("ignore", message="interval .* distance-model fit stopped",
                            category=RuntimeWarning)

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
