import importlib.util
import json
import math
import sys
from pathlib import Path

from tgne.inference import load_model

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_sbm_experiment.py"
_spec = importlib.util.spec_from_file_location("run_sbm_experiment", _SCRIPT)
run_sbm_experiment = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_sbm_experiment)


def test_short_run_writes_every_table(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(_SCRIPT), "--epochs", "2", "--K", "3",
                                      "--out", str(tmp_path)])
    run_sbm_experiment.main()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"tau1", "tau50"}
    for tag, row in summary.items():
        assert math.isfinite(row["uncertainty_slope"])
        assert math.isfinite(row["mean_frame_displacement"])
        assert (tmp_path / f"uncertainty_nodes_{tag}.csv").is_file()
        fm = load_model(tmp_path / f"model_{tag}.json")
        assert fm.part.K == 3 and fm.hyper.tau == row["tau"]
