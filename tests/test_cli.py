import argparse
import ast
import csv
import io
import json
import math
import re
import warnings
from pathlib import Path

import pytest

from tgne import cli
from tgne.cli import build_parser, main
from tgne.evaluation import rate_vs_uncertainty_table
from tgne.events import parse_events
from tgne.inference import load_model
from tgne.simulate import SbmSpec, sbm_generate

from conftest import load_script


def csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def run(args) -> int:
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run(["simulate", "--out", out, "--n", 24, "--seed", 3]) == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("fit")
    code = run(
        ["fit", "--events", sim_dir / "events.csv", "--out", out,
         "--K", 8, "--epochs", 25, "--seed", 1, "--test-frac", 0.1, "--split-seed", 5]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_outputs_exist_and_parse(self, sim_dir):
        ev = parse_events(sim_dir / "events.csv")
        assert ev.n == 24
        labels = (sim_dir / "labels.csv").read_text().strip().splitlines()
        assert labels[0] == "node,segment,cluster"
        assert len(labels) == 1 + 24 * 3
        assert json.loads((sim_dir / "config.json").read_text())["n"] == 24

    def test_default_spec_is_sixty_nodes(self, tmp_path):
        out = tmp_path / "d"
        assert run(["simulate", "--out", out]) == 0
        ev = parse_events(out / "events.csv")
        assert ev.n == 60

    def test_seed_reproducibility_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--out", a, "--seed", 7, "--n", 20]) == 0
        assert run(["simulate", "--out", b, "--seed", 7, "--n", 20]) == 0
        assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()
        assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()

    def test_events_bytes_match_csv_writer(self, tmp_path):
        out = tmp_path / "s"
        assert run(["simulate", "--out", out, "--seed", 7, "--n", 20]) == 0
        ev = sbm_generate(SbmSpec(n=20, intra_rate=8.0, inter_rate=0.3, seed=7)).events
        rows = [
            [ev.node_labels[a], ev.node_labels[b], repr(t)]
            for a, b, t in zip(ev.src.tolist(), ev.dst.tolist(), ev.time.tolist())
        ]
        expected = csv_writer_bytes(["source", "dest", "timestamp"], rows)
        assert (out / "events.csv").read_bytes() == expected

    def test_zero_rates_header_only(self, tmp_path):
        out = tmp_path / "z"
        assert run(
            ["simulate", "--out", out, "--intra-rate", 0, "--inter-rate", 0]
        ) == 0
        lines = (out / "events.csv").read_text().strip().splitlines()
        assert lines == ["source,dest,timestamp"]


class TestFit:
    def test_outputs(self, fit_dir, sim_dir):
        model = json.loads((fit_dir / "model.json").read_text())
        assert model["K"] == 8 and model["n"] == 24
        loss_lines = (fit_dir / "loss.csv").read_text().strip().splitlines()
        assert len(loss_lines) == 1 + 25
        emb_lines = (fit_dir / "embeddings.csv").read_text().strip().splitlines()
        assert len(emb_lines) == 1 + 24 * 9
        nodes = (fit_dir / "nodes.csv").read_text().strip().splitlines()
        assert nodes[0] == "label,id" and len(nodes) == 25
        echoed = json.loads((fit_dir / "config.json").read_text())
        assert echoed["epochs"] == 25 and echoed["test_frac"] == 0.1

    def test_rising_loss_warns_once(self, tmp_path):
        """A fit whose loss ends above its start names both losses in one
        warning and still writes its outputs; the same fit at the default
        learning rates is silent."""
        sim = tmp_path / "sim"
        assert run(["simulate", "--out", sim, "--n", 12, "--seed", 1]) == 0
        args = ["fit", "--events", sim / "events.csv", "--epochs", 50]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args + ["--out", tmp_path / "calm"]) == 0
        out = tmp_path / "diverged"
        with pytest.warns(RuntimeWarning) as record:
            assert run(args + ["--out", out, "--lr-beta", 100]) == 0
        losses = [float(line.split(",")[1]) for line in
                  (out / "loss.csv").read_text().splitlines()[1:]]
        assert losses[-1] > 400 * abs(losses[0])  # -748 -> 348,050
        assert [str(w.message) for w in record] == [
            f"the loss ended above where it started: {losses[0]:.6g} at epoch 1, "
            f"{losses[-1]:.6g} at epoch 50; try smaller learning rates"
        ]
        assert (out / "model.json").is_file()

    def test_rerun_identical_model(self, tmp_path, sim_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["fit", "--events", sim_dir / "events.csv", "--K", 4,
                "--epochs", 10, "--seed", 2]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        for name in ("model.json", "parsed_events.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_echoed_config_reproduces_outputs(self, tmp_path, sim_dir):
        """Re-running from a run's config.json echo rebuilds identical outputs."""
        first = tmp_path / "first"
        assert run(
            ["fit", "--events", sim_dir / "events.csv", "--out", first,
             "--K", 4, "--epochs", 8, "--seed", 6]
        ) == 0
        second = tmp_path / "second"
        assert run(
            ["fit", "--events", sim_dir / "events.csv", "--out", second,
             "--config", first / "config.json"]
        ) == 0
        for name in ("model.json", "loss.csv", "embeddings.csv", "nodes.csv",
                     "parsed_events.npy"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_config_with_deleted_thread_keys_reproduces_outputs(self, tmp_path, sim_dir):
        """A config.json from a version that had --threads still re-runs identically."""
        first = tmp_path / "first"
        assert run(
            ["fit", "--events", sim_dir / "events.csv", "--out", first,
             "--K", 4, "--epochs", 8, "--seed", 6]
        ) == 0
        old = json.loads((first / "config.json").read_text())
        old.update(threads=2, strict_deterministic=True)
        cfg = tmp_path / "old_config.json"
        cfg.write_text(json.dumps(old))
        second = tmp_path / "second"
        assert run(
            ["fit", "--events", sim_dir / "events.csv", "--out", second, "--config", cfg]
        ) == 0
        assert "threads" not in json.loads((second / "config.json").read_text())
        for name in ("model.json", "loss.csv", "embeddings.csv", "nodes.csv",
                     "parsed_events.npy"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--strict-deterministic"]])
    def test_deleted_thread_flags_usage_error(self, sim_dir, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--events", str(sim_dir / "events.csv"),
                  "--out", str(tmp_path / "x"), *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--batch", "5"], ["--mc-samples", "2"]])
    def test_deleted_sampling_flags_usage_error(self, sim_dir, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--events", str(sim_dir / "events.csv"),
                  "--out", str(tmp_path / "x"), *flag])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_config_with_deleted_sampling_keys_at_defaults_reproduces_outputs(self, tmp_path,
                                                                             sim_dir):
        """A config.json that echoes --batch and --mc-samples at their defaults
        (null, 1) still re-runs identically and no longer echoes them."""
        first = tmp_path / "first"
        assert run(
            ["fit", "--events", sim_dir / "events.csv", "--out", first,
             "--K", 4, "--epochs", 8, "--seed", 6]
        ) == 0
        old = json.loads((first / "config.json").read_text())
        old.update(batch=None, mc_samples=1)
        cfg = tmp_path / "old_config.json"
        cfg.write_text(json.dumps(old))
        second = tmp_path / "second"
        assert run(
            ["fit", "--events", sim_dir / "events.csv", "--out", second, "--config", cfg]
        ) == 0
        echoed = json.loads((second / "config.json").read_text())
        assert "batch" not in echoed and "mc_samples" not in echoed
        for name in ("model.json", "loss.csv", "embeddings.csv", "nodes.csv",
                     "parsed_events.npy"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("key, value, shown", [
        ("batch", 20, "20"), ("batch", 0, "0"), ("mc_samples", 4, "4"),
        ("mc_samples", None, "null"),
    ])
    def test_deleted_sampling_key_off_default_exits_one_before_output(
        self, sim_dir, tmp_path, capsys, key, value, shown
    ):
        """Ignoring "batch": 20 would run another fit than the file asks for."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "x"
        assert run(["fit", "--events", sim_dir / "events.csv", "--out", out,
                    "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"--config key {key!r} is {shown}" in err
        assert f"fit --{key.replace('_', '-')} was deleted" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("tau", -1.0, "tau must be > 0, got -1.0"),
        ("tau", 0.0, "tau must be > 0, got 0.0"),
        ("tau", "nan", "tau must be finite, got nan"),
        ("tau0", 0.0, "tau0 must be > 0, got 0.0"),
        ("tau0", "inf", "tau0 must be finite, got inf"),
        ("lr_phi", -0.01, "lr_phi must be > 0, got -0.01"),
        ("lr_phi", "nan", "lr_phi must be finite, got nan"),
        ("lr_beta", -1e-5, "lr_beta must be >= 0, got -1e-05"),
        ("lr_beta", "inf", "lr_beta must be finite, got inf"),
        ("beta_init", "nan", "beta_init must be finite, got nan"),
        ("beta_init", "-inf", "beta_init must be finite, got -inf"),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_bad_float_hyperparams_exit_one_before_output(self, sim_dir, tmp_path, capsys,
                                                         key, value, message, via):
        out = tmp_path / "x"
        args = ["fit", "--events", sim_dir / "events.csv", "--out", out, "--epochs", 3]
        if via == "flag":
            # with "=", as argparse would read -1e-05 as a flag
            args.append(f"--{key.replace('_', '-')}={value}")
        else:
            cfg = tmp_path / "run.json"
            # json writes the non-finite floats as NaN and Infinity, which json.load reads
            cfg.write_text(json.dumps({key: float(value)}))
            args += ["--config", cfg]
        assert run(args) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_lr_beta_zero_is_accepted(self, sim_dir, tmp_path):
        out = tmp_path / "x"
        assert run(["fit", "--events", sim_dir / "events.csv", "--out", out, "--K", 3,
                    "--epochs", 2, "--lr-beta", 0]) == 0
        assert (out / "model.json").exists()

    def test_config_file_with_flag_override(self, tmp_path, sim_dir):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"epochs": 5, "K": 3, "seed": 9}))
        out = tmp_path / "out"
        assert run(
            ["fit", "--events", sim_dir / "events.csv", "--out", out,
             "--config", cfg, "--K", 4]
        ) == 0
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["epochs"] == 5      # from config file
        assert echoed["K"] == 4           # flag overrides file
        model = json.loads((out / "model.json").read_text())
        assert model["K"] == 4

    def test_missing_events_file_exits_one(self, tmp_path, capsys):
        assert run(["fit", "--events", tmp_path / "nope.csv", "--out", tmp_path / "o"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--negatives", "0"), ("--negatives", "-3")])
    def test_sampling_flags_below_one_usage_error(self, sim_dir, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--events", str(sim_dir / "events.csv"),
                  "--out", str(tmp_path / "x"), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "0"), ("--K", "0"), ("--d", "-1"),
    ])
    def test_count_flags_below_one_usage_error(self, sim_dir, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--events", str(sim_dir / "events.csv"),
                  "--out", str(tmp_path / "x"), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_deleted_riemann_flag_usage_error(self, sim_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--events", str(sim_dir / "events.csv"),
                  "--out", str(tmp_path / "x"), "--riemann-r", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, name", [("negatives", "negatives_per_node")])
    def test_sampling_config_below_one_exits_one(self, sim_dir, tmp_path, capsys, key, name):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 0}))
        assert run(["fit", "--events", sim_dir / "events.csv", "--out", tmp_path / "x",
                    "--config", cfg]) == 1
        assert f"error: {name} must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("epochs", 0), ("K", 0), ("d", -1),
    ])
    def test_count_config_below_one_exits_one_before_output(self, sim_dir, tmp_path, capsys,
                                                            key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "x"
        assert run(["fit", "--events", sim_dir / "events.csv", "--out", out,
                    "--config", cfg]) == 1
        assert f"error: {key} must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_rate_model_config_exits_one_before_output(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rate_model": "Euclidean"}))
        out = tmp_path / "x"
        assert run(["fit", "--events", sim_dir / "events.csv", "--out", out,
                    "--config", cfg]) == 1
        assert "error: rate_model must be one of" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_one_before_output(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"epoch": 3, "K": 2}))
        out = tmp_path / "x"
        assert run(["fit", "--events", sim_dir / "events.csv", "--out", out,
                    "--config", cfg]) == 1
        assert "error: unknown --config key 'epoch' for fit" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_full_run_outputs(self, tmp_path, sim_dir, fit_dir):
        out = tmp_path / "eval"
        code = run(
            ["eval", "--events", sim_dir / "events.csv", "--model",
             fit_dir / "model.json", "--out", out, "--test-frac", 0.1,
             "--split-seed", 5, "--B", 30, "--lsdm-iters", 60]
        )
        assert code == 0
        doc = json.loads((out / "auc.json").read_text())
        assert doc["K"] == 8
        for split in ("train", "test"):
            assert set(doc["auc"][split]) == {"tgne", "lsdm", "pa", "random"}
            for v in doc["auc"][split].values():
                assert 0.0 <= v <= 1.0
        assert 0.35 <= doc["auc"]["test"]["random"] <= 0.65
        with open(out / "instances.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {
            "split", "i", "j", "k", "label",
            "score_tgne", "score_lsdm", "score_pa", "score_random",
        }
        with open(out / "uncertainty_nodes.csv") as fh:
            node_rows = list(csv.DictReader(fh))
        assert len(node_rows) == 24 * 8
        with open(out / "uncertainty_edges.csv") as fh:
            edge_rows = list(csv.DictReader(fh))
        assert set(edge_rows[0]) == {"i", "j", "k", "N", "lambda_mean", "lambda_std"}
        with open(out / "rate_vs_uncertainty.csv") as fh:
            rate_rows = list(csv.DictReader(fh))
        ev = parse_events(sim_dir / "events.csv")
        assert len(rate_rows) == 2 * ev.m

    def test_random_scorer_near_half_on_fixture(self, tmp_path, sim_dir, fit_dir):
        out = tmp_path / "eval_r"
        code = run(
            ["eval", "--events", sim_dir / "events.csv", "--model",
             fit_dir / "model.json", "--out", out, "--test-frac", 0.0,
             "--scorers", "random", "--B", 10]
        )
        assert code == 0
        doc = json.loads((out / "auc.json").read_text())
        assert 0.45 <= doc["auc"]["train"]["random"] <= 0.55

    def test_rerun_identical_outputs(self, tmp_path, sim_dir, fit_dir):
        args = ["eval", "--events", sim_dir / "events.csv", "--model",
                fit_dir / "model.json", "--test-frac", 0.1, "--split-seed", 5,
                "--scorers", "tgne,tgne_predictive,lsdm,pa,random", "--B", 8,
                "--lsdm-iters", 20, "--seed", 4]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        for name in ("auc.json", "instances.csv", "uncertainty_nodes.csv",
                     "uncertainty_edges.csv", "rate_vs_uncertainty.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rate_table_bytes_match_csv_writer(self, tmp_path, sim_dir, fit_dir):
        out = tmp_path / "eval_rate"
        assert run(
            ["eval", "--events", sim_dir / "events.csv", "--model", fit_dir / "model.json",
             "--out", out, "--test-frac", 0.1, "--split-seed", 5, "--scorers", "random",
             "--B", 6, "--seed", 2]
        ) == 0
        fm = load_model(fit_dir / "model.json")
        table = rate_vs_uncertainty_table(
            parse_events(sim_dir / "events.csv"), fm.state, fm.hyper.rate_model, fm.part,
            B=6, seed=2,
        )
        columns = [table.i, table.j, table.t, table.k, table.is_negative.astype(int),
                   table.rate, table.rate_std, table.n_events]
        rows = list(zip(*(col.tolist() for col in columns)))
        header = ["i", "j", "t", "k", "is_negative", "rate", "rate_std", "N"]
        assert (out / "rate_vs_uncertainty.csv").read_bytes() == csv_writer_bytes(header, rows)
        # every eval table round-trips through csv unchanged: same quoting and line ends
        for name in ("instances.csv", "uncertainty_nodes.csv", "uncertainty_edges.csv"):
            data = (out / name).read_bytes()
            with open(out / name, newline="") as fh:
                parsed = list(csv.reader(fh))
            assert data.endswith(b"\r\n")
            assert data == csv_writer_bytes(parsed[0], parsed[1:])

    def test_lsdm_fit_summary_and_one_warning(self, tmp_path, sim_dir, fit_dir):
        args = ["eval", "--events", sim_dir / "events.csv", "--model", fit_dir / "model.json",
                "--test-frac", 0.1, "--split-seed", 5, "--scorers", "lsdm", "--B", 2]
        capped = tmp_path / "capped"
        with pytest.warns(RuntimeWarning) as record:
            assert run(args + ["--out", capped, "--lsdm-iters", 3]) == 0
        stopped = [str(w.message) for w in record if "distance-model" in str(w.message)]
        assert len(stopped) == 1
        assert stopped[0].startswith("interval k = 1, 2, 3, 4, 5, 6, 7, 8: distance-model fit stopped")
        fits = json.loads((capped / "auc.json").read_text())["lsdm_fit"]
        assert list(fits) == [str(k) for k in range(1, 9)]
        for fit in fits.values():
            assert set(fit) == {"converged", "iterations", "evaluations", "grad_inf", "nll"}
            assert fit["converged"] is False and fit["iterations"] <= 3
            assert fit["grad_inf"] >= 1e-4

    def test_no_lsdm_fit_without_the_scorer(self, tmp_path, sim_dir, fit_dir):
        out = tmp_path / "nolsdm"
        assert run(["eval", "--events", sim_dir / "events.csv", "--model",
                    fit_dir / "model.json", "--out", out, "--scorers", "pa", "--B", 2]) == 0
        assert "lsdm_fit" not in json.loads((out / "auc.json").read_text())

    def test_deleted_lsdm_lr_usage_error(self, sim_dir, fit_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--events", str(sim_dir / "events.csv"), "--model",
                  str(fit_dir / "model.json"), "--out", str(tmp_path / "x"),
                  "--lsdm-lr", "0.05"])
        assert exc.value.code == 2

    def test_config_with_deleted_lsdm_lr_reproduces_outputs(self, tmp_path, sim_dir, fit_dir):
        """A config.json from a version that had --lsdm-lr still re-runs identically."""
        first = tmp_path / "first"
        assert run(
            ["eval", "--events", sim_dir / "events.csv", "--model", fit_dir / "model.json",
             "--out", first, "--test-frac", 0.1, "--split-seed", 5, "--B", 4,
             "--lsdm-iters", 20, "--seed", 3]
        ) == 0
        old = json.loads((first / "config.json").read_text())
        assert "lsdm_lr" not in old
        old["lsdm_lr"] = 0.5
        cfg = tmp_path / "old_config.json"
        cfg.write_text(json.dumps(old))
        second = tmp_path / "second"
        assert run(
            ["eval", "--events", sim_dir / "events.csv", "--model", fit_dir / "model.json",
             "--out", second, "--config", cfg]
        ) == 0
        assert "lsdm_lr" not in json.loads((second / "config.json").read_text())
        for name in ("instances.csv", "uncertainty_nodes.csv", "uncertainty_edges.csv",
                     "rate_vs_uncertainty.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        first_auc = json.loads((first / "auc.json").read_text())
        second_auc = json.loads((second / "auc.json").read_text())
        assert first_auc["auc"] == second_auc["auc"]
        assert first_auc["lsdm_fit"] == second_auc["lsdm_fit"]

    def test_two_nodes_exit_one_with_reason(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text("source,dest,timestamp\na,b,1\na,b,2\nb,a,3\na,b,5\n")
        assert run(["fit", "--events", events, "--out", tmp_path / "fit",
                    "--K", 2, "--epochs", 3]) == 0
        capsys.readouterr()
        # the reconstruction benchmark has no negatives on one pair, whatever the scorer
        code = run(["eval", "--events", events, "--model", tmp_path / "fit" / "model.json",
                    "--out", tmp_path / "eval", "--test-frac", 0, "--B", 2, "--scorers", "pa"])
        assert code == 1
        assert "needs n >= 3" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--strict-deterministic"],
                                      ["--directed"], ["--no-directed"]])
    def test_fit_only_flags_rejected(self, sim_dir, fit_dir, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--events", str(sim_dir / "events.csv"), "--model",
                  str(fit_dir / "model.json"), "--out", str(tmp_path / "x"), *flag])
        assert exc.value.code == 2

    def test_directed_fit_evaluated_as_directed(self, tmp_path):
        # every pair interacts in both orientations, so a directed run has
        # stored pairs (i, j) with i > j and an undirected one has none
        pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")] * 2
        rows = [f"{a},{b},{t}\n{b},{a},{t + 0.5}\n" for t, (a, b) in enumerate(pairs)]
        events = tmp_path / "events.csv"
        events.write_text("source,dest,timestamp\n" + "".join(rows))
        assert run(["fit", "--events", events, "--out", tmp_path / "fit", "--K", 2,
                    "--epochs", 3, "--directed"]) == 0
        out = tmp_path / "eval"
        assert run(["eval", "--events", events, "--model", tmp_path / "fit" / "model.json",
                    "--out", out, "--test-frac", 0, "--scorers", "tgne"]) == 0
        assert json.loads((out / "config.json").read_text())["directed"] is True
        with open(out / "instances.csv") as fh:
            positives = [row for row in csv.DictReader(fh) if row["label"] == "1"]
        assert any(int(row["i"]) > int(row["j"]) for row in positives)

    def test_relabelled_events_exit_one(self, sim_dir, fit_dir, tmp_path, capsys):
        with open(sim_dir / "events.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        first = rows[1][0]  # the label the fit gave id 0
        events = tmp_path / "events.csv"
        with open(events, "w", newline="") as fh:
            csv.writer(fh).writerows([["x" if f == first else f for f in r] for r in rows])
        out = tmp_path / "eval"
        assert run(["eval", "--events", events, "--model", fit_dir / "model.json",
                    "--out", out]) == 1
        assert f"node id 0 is {first!r} in the model but 'x' in the events" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_missing_model_flag_usage_error(self, sim_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--events", str(sim_dir / "events.csv"),
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_lsdm_iters_below_one_usage_error(self, sim_dir, fit_dir, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--events", str(sim_dir / "events.csv"), "--model",
                  str(fit_dir / "model.json"), "--out", str(tmp_path / "x"),
                  "--lsdm-iters", value])
        assert exc.value.code == 2
        assert f"argument --lsdm-iters: must be >= 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0, -1])
    def test_lsdm_iters_config_below_one_exits_one_before_output(
        self, sim_dir, fit_dir, tmp_path, capsys, value
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lsdm_iters": value}))
        out = tmp_path / "x"
        assert run(["eval", "--events", sim_dir / "events.csv", "--model",
                    fit_dir / "model.json", "--out", out, "--config", cfg]) == 1
        assert f"error: lsdm iters must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scorer_exits_one_before_any_work(self, sim_dir, fit_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run(["eval", "--events", sim_dir / "events.csv", "--model",
                    fit_dir / "model.json", "--out", out, "--scorers", "lsdm,bogus"])
        assert code == 1
        assert "unknown scorer 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_scorer_exits_one_before_any_file_is_read(self, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run(["eval", "--events", tmp_path / "missing.csv", "--model",
                    tmp_path / "missing.json", "--out", out, "--scorers", "tgne,tgne,pa"])
        assert code == 1
        assert "scorer 'tgne' is named twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("names", ["", ",,", " , "])
    def test_no_scorer_exits_one_before_any_file_is_read(self, tmp_path, capsys, names):
        out = tmp_path / "eval"
        code = run(["eval", "--events", tmp_path / "missing.csv", "--model",
                    tmp_path / "missing.json", "--out", out, "--scorers", names])
        assert code == 1
        assert "--scorers names no scorer" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_one_before_output(self, sim_dir, fit_dir, tmp_path,
                                                        capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lsdm_iter": 5}))
        out = tmp_path / "x"
        assert run(["eval", "--events", sim_dir / "events.csv", "--model",
                    fit_dir / "model.json", "--out", out, "--config", cfg]) == 1
        assert "error: unknown --config key 'lsdm_iter' for eval" in capsys.readouterr().err
        assert not out.exists()

    def test_echoed_config_with_directed_reruns(self, sim_dir, fit_dir, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        args = ["eval", "--events", sim_dir / "events.csv", "--model", fit_dir / "model.json"]
        assert run(args + ["--out", first, "--scorers", "pa", "--split-seed", 5]) == 0
        cfg = first / "config.json"
        assert json.loads(cfg.read_text())["directed"] is False
        assert run(args + ["--out", second, "--config", cfg]) == 0
        assert (first / "instances.csv").read_bytes() == (second / "instances.csv").read_bytes()

    def test_dot_model_run_is_finite(self, sim_dir, tmp_path):
        fit_out, out = tmp_path / "fit", tmp_path / "eval"
        assert run(["fit", "--events", sim_dir / "events.csv", "--out", fit_out, "--K", 4,
                    "--epochs", 20, "--seed", 1, "--rate-model", "dot"]) == 0
        assert run(["eval", "--events", sim_dir / "events.csv", "--model",
                    fit_out / "model.json", "--out", out, "--scorers", "tgne,tgne_predictive",
                    "--test-frac", 0.1]) == 0
        for name, column in (("uncertainty_edges.csv", "lambda_std"),
                             ("rate_vs_uncertainty.csv", "rate_std")):
            with open(out / name) as fh:
                values = [float(row[column]) for row in csv.DictReader(fh)]
            assert values and all(v >= 0.0 and v < float("inf") for v in values)

    def test_missing_model_file_exits_one(self, sim_dir, tmp_path):
        code = run(
            ["eval", "--events", sim_dir / "events.csv", "--model",
             tmp_path / "missing.json", "--out", tmp_path / "y"]
        )
        assert code == 1
        assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("command", ["fit", "eval"])
@pytest.mark.parametrize("flag", ["--test-frac", "--val-frac"])
@pytest.mark.parametrize("value", ["nan", "inf", "1.5", "-0.1"])
def test_bad_split_fraction_exits_one_before_output(sim_dir, fit_dir, tmp_path, capsys,
                                                    command, flag, value):
    out = tmp_path / "x"
    args = [command, "--events", sim_dir / "events.csv", "--out", out, f"{flag}={value}"]
    if command == "eval":
        args += ["--model", fit_dir / "model.json", "--scorers", "pa"]
    else:
        args += ["--epochs", 2]
    assert run(args) == 1
    assert "error: need 0 <= test_frac + val_frac < 1" in capsys.readouterr().err
    assert not out.exists()


def _usage_error_before_output(argv, out, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-2"), ("--n", "1"), ("--intra-rate", "-1"), ("--inter-rate", "nan"),
    ("--inter-rate", "inf"),
])
def test_bad_simulate_value_usage_error_before_output(tmp_path, capsys, flag, value):
    out = tmp_path / "x"
    _usage_error_before_output(["simulate", "--out", out, flag, value], out, flag, capsys)


@pytest.mark.parametrize("flag", ["--seed", "--split-seed"])
def test_negative_fit_seed_usage_error_before_output(sim_dir, tmp_path, capsys, flag):
    out = tmp_path / "x"
    argv = ["fit", "--events", sim_dir / "events.csv", "--out", out, flag, "-1"]
    _usage_error_before_output(argv, out, flag, capsys)


@pytest.mark.parametrize("flag", ["--seed", "--split-seed"])
def test_negative_eval_seed_usage_error_before_output(sim_dir, fit_dir, tmp_path, capsys, flag):
    out = tmp_path / "x"
    argv = ["eval", "--events", sim_dir / "events.csv", "--model", fit_dir / "model.json",
            "--out", out, flag, "-3"]
    _usage_error_before_output(argv, out, flag, capsys)


@pytest.mark.parametrize("command, key, value, message", [
    ("simulate", "seed", -2, "--config key 'seed' must be an integer >= 0, got -2"),
    ("simulate", "inter_rate", math.nan, "rates must be finite and >= 0"),
    ("fit", "seed", -1, "--config key 'seed' must be an integer >= 0, got -1"),
    ("fit", "split_seed", -1, "--config key 'split_seed' must be an integer >= 0, got -1"),
    ("eval", "seed", 1.5, "--config key 'seed' must be an integer >= 0, got 1.5"),
    ("eval", "split_seed", -3, "--config key 'split_seed' must be an integer >= 0, got -3"),
])
def test_bad_config_value_exits_one_before_output(sim_dir, fit_dir, tmp_path, capsys, command,
                                                  key, value, message):
    _config_error_before_output(sim_dir, fit_dir, tmp_path, capsys, command, {key: value}, message)


def _config_error_before_output(sim_dir, fit_dir, tmp_path, capsys, command, config, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x"
    args = [command, "--out", out, "--config", cfg]
    if command != "simulate":
        args += ["--events", sim_dir / "events.csv"]
    if command == "eval":
        args += ["--model", fit_dir / "model.json", "--scorers", "pa"]
    assert run(args) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


# a config value of the wrong JSON type once ran coerced (n 5.9 as 5, epochs
# true as 1, directed "false" as true) while config.json echoed the raw value
@pytest.mark.parametrize("config, message", [
    ({"n": 5.9}, "--config key 'n' must be an integer, got 5.9"),
    ({"n": True}, "--config key 'n' must be an integer, got true"),
    ({"seed": 1.0}, "--config key 'seed' must be an integer >= 0, got 1.0"),
    ({"intra_rate": "8"}, '--config key \'intra_rate\' must be a number, got "8"'),
    ({"inter_rate": False}, "--config key 'inter_rate' must be a number, got false"),
])
def test_simulate_config_number_types(sim_dir, fit_dir, tmp_path, capsys, config, message):
    _config_error_before_output(sim_dir, fit_dir, tmp_path, capsys, "simulate", config, message)


@pytest.mark.parametrize("config, message", [
    ({"d": 2.7, "epochs": True, "K": 3.9}, "--config key 'd' must be an integer, got 2.7"),
    ({"epochs": True}, "--config key 'epochs' must be an integer, got true"),
    ({"K": 3.9}, "--config key 'K' must be an integer, got 3.9"),
    ({"negatives": 2.5}, "--config key 'negatives' must be an integer, got 2.5"),
    ({"tau": "1"}, '--config key \'tau\' must be a number, got "1"'),
    ({"beta_init": False}, "--config key 'beta_init' must be a number, got false"),
    ({"test_frac": None}, "--config key 'test_frac' must be a number, got null"),
    ({"directed": "false"}, '--config key \'directed\' must be true or false, got "false"'),
])
def test_fit_config_number_types(sim_dir, fit_dir, tmp_path, capsys, config, message):
    _config_error_before_output(sim_dir, fit_dir, tmp_path, capsys, "fit", config, message)


@pytest.mark.parametrize("config, message", [
    ({"lsdm_iters": 2.5}, "--config key 'lsdm_iters' must be an integer, got 2.5"),
    ({"B": 200.0}, "--config key 'B' must be an integer, got 200.0"),
    ({"seed": True}, "--config key 'seed' must be an integer >= 0, got true"),
    ({"val_frac": "0"}, '--config key \'val_frac\' must be a number, got "0"'),
])
def test_eval_config_number_types(sim_dir, fit_dir, tmp_path, capsys, config, message):
    _config_error_before_output(sim_dir, fit_dir, tmp_path, capsys, "eval", config, message)


def test_config_integer_for_float_key_runs_as_that_float(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 20, "intra_rate": 8, "seed": 7}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--out", a, "--config", cfg]) == 0
    assert run(["simulate", "--out", b, "--n", 20, "--intra-rate", "8.0", "--seed", 7]) == 0
    assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()


def test_failed_simulate_draw_leaves_no_directory(tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["simulate", "--out", out, "--n", 4, "--intra-rate", "1e19"]) == 1
    assert "error: lam value too large" in capsys.readouterr().err
    assert not out.exists()


class TestScore:
    def test_score_triplets(self, tmp_path, fit_dir):
        triplets = tmp_path / "triplets.csv"
        with open(triplets, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "k"])
            writer.writerows([[0, 1, 1], [2, 3, 4], [5, 6, 8]])
        out = tmp_path / "scores.csv"
        assert run(
            ["score", "--model", fit_dir / "model.json", "--triplets", triplets,
             "--out", out]
        ) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(float(r["score"]) >= 0 for r in rows)

    @pytest.mark.parametrize("bad", [[0, 1, 0], [-1, 1, 1], [0, 1, 9], [0, 24, 1]])
    def test_out_of_range_triplet_exits_one(self, tmp_path, fit_dir, capsys, bad):
        # the model has n = 24 nodes and K = 8 intervals; the bad triplet is on line 3
        triplets = tmp_path / "triplets.csv"
        with open(triplets, "w", newline="") as fh:
            csv.writer(fh).writerows([["i", "j", "k"], [0, 1, 1], bad])
        out = tmp_path / "scores.csv"
        code = run(["score", "--model", fit_dir / "model.json", "--triplets", triplets,
                    "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "out of range" in err
        assert not out.exists()

    def test_score_bytes_match_csv_writer(self, tmp_path, fit_dir):
        triplets = tmp_path / "triplets.csv"
        triplets.write_text("i,j,k\n0,1,1\n\n 2,3,4\n5,6,8,extra\n")
        out = tmp_path / "scores.csv"
        assert run(["score", "--model", fit_dir / "model.json", "--triplets", triplets,
                    "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[:3] for r in rows] == [["i", "j", "k"], ["0", "1", "1"], ["2", "3", "4"],
                                          ["5", "6", "8"]]
        assert out.read_bytes() == csv_writer_bytes(
            rows[0], [[int(a), int(b), int(c), float(x)] for a, b, c, x in rows[1:]]
        )

    @pytest.mark.parametrize("flag", ["--B", "--seed"])
    def test_deleted_draw_flags_usage_error(self, tmp_path, fit_dir, flag):
        with pytest.raises(SystemExit) as exc:
            main(["score", "--model", str(fit_dir / "model.json"), "--triplets",
                  str(tmp_path / "t.csv"), "--out", str(tmp_path / "s.csv"), flag, "3"])
        assert exc.value.code == 2

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def _events_variant(sim_dir, name) -> bytes:
    """The simulated events.csv (CRLF rows) rewritten to take another ingest path."""
    data = (sim_dir / "events.csv").read_bytes()
    if name == "crlf":
        return data
    lines = data.decode().split("\r\n")[:-1]
    if name == "quoted":  # labels with a comma and a quote: the row loop reads them
        lines[1:] = [
            f'"n, {a}","say ""{b}""",{t}' for a, b, t in (line.split(",") for line in lines[1:])
        ]
    elif name == "self_loops":  # one drops a label no other row has
        t = lines[5].split(",")[2]
        lines[3:3] = [f"3,3,{t}", f"solo,solo,{t}"]
    return ("\n".join(lines) + "\n").encode()


class TestParsedEventsInEval:
    """eval reads fit's parsed_events.npy in place of parsing --events only
    when the CSV has the bytes fit parsed, and writes the same outputs."""

    @pytest.mark.parametrize("name", ["lf", "crlf", "quoted", "self_loops", "directed"])
    def test_outputs_identical_with_without_and_past_the_file(self, tmp_path, sim_dir,
                                                              monkeypatch, name):
        csv_path = tmp_path / "events.csv"
        csv_path.write_bytes(_events_variant(sim_dir, "lf" if name == "directed" else name))
        fit_out = tmp_path / "fit"
        assert run(["fit", "--events", csv_path, "--out", fit_out, "--K", 4, "--epochs", 5,
                    "--seed", 1, "--test-frac", 0.2, "--split-seed", 3]
                   + (["--directed"] if name == "directed" else [])) == 0
        assert (fit_out / cli.PARSED_EVENTS).is_file()
        calls = []
        parse = cli.parse_events
        monkeypatch.setattr(cli, "parse_events",
                            lambda *a, **kw: calls.append(a) or parse(*a, **kw))

        def evaluate(events, out):
            calls.clear()
            assert run(["eval", "--events", events, "--model", fit_out / "model.json",
                        "--out", out, "--scorers", "tgne,tgne_predictive,pa,random",
                        "--test-frac", 0.2, "--split-seed", 3, "--seed", 2]) == 0
            return len(calls)

        assert evaluate(csv_path, tmp_path / "with_file") == 0
        one_byte_more = tmp_path / "events_plus.csv"  # parses to the same events
        one_byte_more.write_bytes(csv_path.read_bytes() + b"\n")
        assert evaluate(one_byte_more, tmp_path / "other_bytes") == 1
        (fit_out / cli.PARSED_EVENTS).unlink()
        assert evaluate(csv_path, tmp_path / "without_file") == 1
        differences = load_script("compare_outputs").differences
        for other in ("other_bytes", "without_file"):
            assert differences(tmp_path / "with_file", tmp_path / other) == []
        doc = json.loads((tmp_path / "with_file" / "config.json").read_text())
        assert doc["directed"] is (name == "directed")


def test_readme_names_only_existing_flags():
    """Every --flag README.md names outside its pip commands is a flag of some
    tgne subcommand, so a deleted flag cannot linger in the docs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = {
        flag
        for line in readme.splitlines() if "pip " not in line
        for flag in re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", line)
    }
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices.values()
    flags = {s for sub in subcommands for a in sub._actions for s in a.option_strings}
    assert named and named <= flags, sorted(named - flags)


def test_cli_reads_no_private_name_of_the_package():
    """cli.py calls only public names of the tgne modules: it imports no
    ``_``-prefixed name from the package and reads no such attribute of a
    name it imports from there (a module such as ``evl``)."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    package = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "tgne")]
    names = {alias.asname or alias.name for node in package for alias in node.names}
    private = [f"line {node.lineno}: {alias.name}" for node in package for alias in node.names
               if alias.name.startswith("_")]
    private += [
        f"line {node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and isinstance(node.value, ast.Name) and node.value.id in names
    ]
    assert names and not private, private
