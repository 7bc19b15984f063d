"""Self-tests of the benchmark at toy size (seconds). Run from the repository root:

    python3 -m pytest -q tgnebench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
from workloads import BENCH_WORKLOADS, K, WORKLOADS  # noqa: E402

TOY = WORKLOADS["toy"]


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generator_gives_same_bytes_for_same_seed():
    first = gen.to_csv(*gen.generate(TOY.sbm, 7))
    assert first == gen.to_csv(*gen.generate(TOY.sbm, 7))
    assert first != gen.to_csv(*gen.generate(TOY.sbm, 8))


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in benchmark_json()["workloads"]) == BENCH_WORKLOADS


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "toy", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark_json()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


@pytest.fixture(scope="module")
def toy_outputs(tmp_path_factory):
    from tgne.cli import main

    root = tmp_path_factory.mktemp("toy")
    events = root / "events.csv"
    info = gen.write_events(TOY.sbm, 5, events)
    fit_dir, eval_dir = root / "fit", root / "eval"
    assert main(TOY.fit_argv(str(events), str(fit_dir))) == 0
    assert main(TOY.eval_argv(str(events), str(fit_dir / "model.json"), str(eval_dir))) == 0
    return info, fit_dir, eval_dir


def _ledger(info, fit_dir, eval_dir) -> checks.Ledger:
    ledger = checks.Ledger()
    checks.check_repeat(ledger, fit_dir, eval_dir, nodes=info["nodes"], K=K,
                        events=info["events"], auc_gate=0.0)
    return ledger


def _nan_last_loss(text: str) -> str:
    lines = text.splitlines()
    lines[-1] = lines[-1].split(",")[0] + ",nan"
    return "\n".join(lines) + "\n"


def _drop_last_row(text: str) -> str:
    return "\n".join(text.splitlines()[:-1]) + "\n"


def _other_split_seed(text: str) -> str:
    cfg = json.loads(text)
    cfg["split_seed"] += 1
    return json.dumps(cfg)


@pytest.mark.parametrize("stage,name,corrupt,check", [
    ("fit", "loss.csv", _nan_last_loss, "loss finite and decreasing"),
    ("eval", "uncertainty_nodes.csv", _drop_last_row, "uncertainty_nodes rows"),
    ("eval", "rate_vs_uncertainty.csv", _drop_last_row, "rate_vs_uncertainty rows"),
    ("eval", "config.json", _other_split_seed, "fit/eval split flags agree"),
    ("eval", "auc.json", lambda text: "{}", "test_auc_tgne gate"),
])
def test_corrupted_output_trips_its_check(toy_outputs, stage, name, corrupt, check):
    info, fit_dir, eval_dir = toy_outputs
    clean = _ledger(info, fit_dir, eval_dir)
    assert clean.failed == 0, clean.failures
    path = (fit_dir if stage == "fit" else eval_dir) / name
    original = path.read_text()
    path.write_text(corrupt(original))
    try:
        bad = _ledger(info, fit_dir, eval_dir)
    finally:
        path.write_text(original)
    assert bad.attempted == clean.attempted
    assert bad.failed == 1 and bad.failures[0].startswith(check)
    assert bad.failed_frac > clean.failed_frac


def test_differing_repeats_trip_the_hash_check(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"auc": 1}')
    b.write_text('{"auc": 2}')
    ledger = checks.Ledger()
    ledger.check("identical", checks.identical, [a, a])
    ledger.check("identical", checks.identical, [a, b])
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_speed_window_probes_during_the_operation_and_restores_sigalrm():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Window() as window:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
        wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(window.probes) >= 2 and 0.0 < window.cost_s < wall
    expected = (wall - window.cost_s) * speed.PROBE_REF_S / window.probe_s
    assert window.rescale(wall) == pytest.approx(expected)


def test_speed_window_probes_once_after_a_short_operation():
    with speed.Window() as window:
        pass
    assert len(window.probes) == 1 and window.cost_s == 0.0
