import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _output_dir(root: Path, name: str) -> Path:
    out = root / name
    out.mkdir()
    (out / "instances.csv").write_bytes(b"split,i\r\ntrain,0\r\n")
    config = {"events": f"/{name}/events.csv", "model": f"/{name}/model.json",
              "out": str(out), "seed": 0}
    (out / "config.json").write_text(json.dumps(config, indent=2))
    (out / "auc.json").write_text(json.dumps({"dataset": f"/{name}/events.csv", "K": 15}))
    return out


@pytest.fixture
def dirs(tmp_path):
    return _output_dir(tmp_path, "a"), _output_dir(tmp_path, "b")


def test_paths_ignored(dirs, capsys):
    assert compare_outputs.main([str(d) for d in dirs]) == 0
    assert "identical" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: (d / "instances.csv").write_bytes(b"split,i\r\ntrain,1\r\n"),
        lambda d: (d / "instances.csv").unlink(),
        lambda d: (d / "extra.csv").write_bytes(b""),
        lambda d: (d / "config.json").write_text(json.dumps({"seed": 1})),
        lambda d: (d / "auc.json").write_text(json.dumps({"dataset": "x", "K": 14})),
    ],
)
def test_any_other_difference_exits_one(dirs, capsys, edit):
    edit(dirs[1])
    assert compare_outputs.main([str(d) for d in dirs]) == 1
    assert capsys.readouterr().out.strip()
