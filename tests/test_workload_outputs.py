import json

from conftest import load_script

workload_outputs = load_script("workload_outputs")
compare_outputs = load_script("compare_outputs")


def test_toy_workload_writes_fit_and_eval_outputs_that_repeat(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert workload_outputs.main(["--workload", "toy", "--seed", "1", "--out", str(out)]) == 0
    assert {"model.json", "loss.csv", "embeddings.csv", "config.json"} <= {
        p.name for p in (a / "fit").iterdir()}
    auc = json.loads((a / "eval" / "auc.json").read_text())
    assert set(auc["auc"]["test"]) == {"tgne", "tgne_predictive", "lsdm", "pa", "random"}
    assert (a / "events.csv").read_bytes().startswith(b"source,dest,timestamp\n")
    assert compare_outputs.differences(a, b) == []
