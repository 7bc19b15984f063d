"""Command-line pipeline: simulate, fit, eval, score.

Every command echoes its fully resolved configuration into the output
directory as ``config.json``; a ``--config run.json`` file provides defaults
that explicit flags override. Exit codes: 0 success, 1 runtime failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import warnings
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import evaluation as evl
from .events import (
    EventList,
    float_text,
    interval_counts,
    pair_rows,
    parse_events,
    split_edges,
    unique_codes,
    write_csv_chunks,
    write_csv_columns,
    write_events_csv,
    write_nodes_csv,
)
from .inference import (
    Hyperparams,
    fit,
    load_model,
    save_model,
    write_embeddings_csv,
    write_loss_csv,
)
from .simulate import SbmSpec, sbm_generate, write_labels_csv

_SIM_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SbmSpec)}

_FIT_DEFAULTS = {
    "d": 2,
    "K": 15,
    "tau": 1.0,
    "tau0": None,
    "epochs": 500,
    "lr_phi": 0.01,
    "lr_beta": 1e-5,
    "rate_model": "euclidean",
    "negatives": None,
    "seed": 0,
    "beta_init": None,
    "directed": False,
    "test_frac": 0.0,
    "val_frac": 0.0,
    "split_seed": 0,
}

_EVAL_DEFAULTS = {
    "scorers": "tgne,lsdm,pa,random",
    "B": 200,
    "seed": 0,
    "test_frac": 0.1,
    "val_frac": 0.0,
    "split_seed": 0,
    "lsdm_iters": 800,
}

_SCORE_DEFAULTS = {"scorer": "tgne"}

# the number type of each key whose default is None; every other key with an
# int, float or bool default takes values of its default's type
_OPTIONAL_NUMBERS = {"tau0": float, "negatives": int, "beta_init": float}

# the JSON values each of those types accepts from a config file, and their
# name; bool is no number
_CONFIG_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
}

_ANY = object()

# config keys of deleted flags, which older config.json files hold, each with
# the one value it may take (_ANY: read and ignored). A key whose flag changed
# the fit takes only the value that ran the fit that remains.
_RETIRED_KEYS = {
    "fit": {"riemann_r": _ANY, "threads": _ANY, "strict_deterministic": _ANY,
            "batch": None, "mc_samples": 1},
    "eval": {"directed": _ANY, "lsdm_lr": _ANY, "threads": _ANY, "strict_deterministic": _ANY},
    "score": {"B": _ANY, "seed": _ANY},
}


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge built-in defaults, config-file values, and explicit flags.

    A config key must be a flag of the command, a key the command echoes into
    its ``config.json``, or the key of a deleted flag at a value it accepts
    (``_RETIRED_KEYS``); any other raises.
    """
    config = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError("--config must contain a JSON object")
        retired = _RETIRED_KEYS.get(args.command, {})
        known = defaults.keys() | vars(args).keys() | retired.keys()
        unknown = sorted(config.keys() - (known - {"func"}))
        if unknown:
            raise ValueError(f"unknown --config key {unknown[0]!r} for {args.command}")
        for key, only in retired.items():
            if key in config and only is not _ANY and config[key] != only:
                raise ValueError(
                    f"--config key {key!r} is {json.dumps(config[key])}, but {args.command} "
                    f"--{key.replace('_', '-')} was deleted; only its old default "
                    f"{json.dumps(only)} is accepted"
                )
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, default)
        resolved[key] = value
    # a flag's value was checked by its type; a config value is checked here,
    # so that what runs is what config.json echoes (bool is no number)
    for key, value in resolved.items():
        kind = _OPTIONAL_NUMBERS.get(key, type(defaults[key]))
        if kind not in _CONFIG_TYPES or (value is None and defaults[key] is None):
            continue
        allowed, name = _CONFIG_TYPES[kind]
        is_seed = key in ("seed", "split_seed")
        if type(value) not in allowed or (is_seed and value < 0):
            name += " >= 0" if is_seed else ""
            raise ValueError(f"--config key {key!r} must be {name}, got {json.dumps(value)}")
    for key in vars(args):
        if key not in resolved and key not in ("func", "config"):
            resolved[key] = getattr(args, key)
    return resolved


def _echo_config(resolved: dict, outdir: Path) -> None:
    payload = {k: v for k, v in resolved.items()}
    for key, value in payload.items():
        if isinstance(value, Path):
            payload[key] = str(value)
    with open(outdir / "config.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def cmd_simulate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _SIM_DEFAULTS)
    spec = SbmSpec(
        n=resolved["n"],
        intra_rate=float(resolved["intra_rate"]),
        inter_rate=float(resolved["inter_rate"]),
        seed=resolved["seed"],
    )
    sample = sbm_generate(spec)  # a failed draw leaves no directory
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_events_csv(sample.events, outdir / "events.csv")
    write_labels_csv(sample, outdir / "labels.csv")
    _echo_config(resolved, outdir)
    print(
        f"wrote {sample.events.m} events over {spec.n} nodes "
        f"({len(sample.events.unique_pairs())} unique pairs) to {outdir}"
    )
    return 0


def _make_split(ev: EventList, resolved: dict):
    test_frac = float(resolved["test_frac"])
    val_frac = float(resolved["val_frac"])
    if test_frac == 0.0 and val_frac == 0.0:
        return None
    return split_edges(ev, test_frac, val_frac, seed=int(resolved["split_seed"]))


def cmd_fit(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _FIT_DEFAULTS)
    # Hyperparams checks the counts a --config file gives, as the flags' types
    # check theirs, and every float value, before any output is written
    hp = Hyperparams(
        d=int(resolved["d"]),
        K=int(resolved["K"]),
        tau=float(resolved["tau"]),
        tau0=None if resolved["tau0"] is None else float(resolved["tau0"]),
        epochs=int(resolved["epochs"]),
        lr_phi=float(resolved["lr_phi"]),
        lr_beta=float(resolved["lr_beta"]),
        rate_model=str(resolved["rate_model"]),
        negatives_per_node=None if resolved["negatives"] is None else int(resolved["negatives"]),
        seed=int(resolved["seed"]),
        beta_init=None if resolved["beta_init"] is None else float(resolved["beta_init"]),
    )
    ev = parse_events(args.events, directed=bool(resolved["directed"]))
    split = _make_split(ev, resolved)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fm = fit(ev, hp, split=split)
    save_model(fm, outdir / "model.json")
    write_loss_csv(fm, outdir / "loss.csv")
    write_embeddings_csv(fm, outdir / "embeddings.csv")
    write_nodes_csv(ev, outdir / "nodes.csv")
    resolved["events"] = str(args.events)
    _echo_config(resolved, outdir)
    print(
        f"fit {ev.n} nodes / {ev.m} events for {hp.epochs} epochs: "
        f"loss {fm.loss_trace[0]:.4f} -> {fm.loss_trace[-1]:.4f}"
    )
    return 0


def _write_instances_csv(path, splits, scorers):
    """``splits``: (name, InstanceTable, {scorer: score array}) in output order."""
    names, tables, scores = zip(*splits)
    columns = [[name for name, table in zip(names, tables) for _ in range(len(table))]]
    columns += [np.concatenate([getattr(t, c) for t in tables]) for c in ("i", "j", "k", "label")]
    columns += [np.concatenate([sc[s] for sc in scores]) for s in scorers]
    header = ["split", "i", "j", "k", "label"] + [f"score_{s}" for s in scorers]
    write_csv_columns(path, header, columns)


def cmd_eval(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _EVAL_DEFAULTS)
    scorers = [s.strip() for s in str(resolved["scorers"]).split(",") if s.strip()]
    if not scorers:
        raise ValueError(f"--scorers names no scorer; choose from {evl.SCORER_NAMES}")
    unknown = [s for s in scorers if s not in evl.SCORER_NAMES]
    if unknown:
        raise ValueError(f"unknown scorer {unknown[0]!r}; choose from {evl.SCORER_NAMES}")
    repeated = [s for at, s in enumerate(scorers) if s in scorers[:at]]
    if repeated:
        raise ValueError(f"scorer {repeated[0]!r} is named twice in --scorers")
    seed = int(resolved["seed"])
    opts = evl.LsdmOpts(iters=int(resolved["lsdm_iters"]), seed=seed)
    fm = load_model(args.model)
    # the model fixes the orientation and the label -> id map
    resolved["directed"] = fm.directed
    ev = parse_events(args.events, directed=fm.directed)
    if ev.node_labels != fm.node_labels:
        labels = zip_longest(fm.node_labels, ev.node_labels)  # None past the shorter
        at, (a, b) = next((i, ab) for i, ab in enumerate(labels) if ab[0] != ab[1])
        raise ValueError(
            f"node id {at} is {a!r} in the model but {b!r} in the events ({fm.state.n} and "
            f"{ev.n} nodes); fit and eval must use the same dataset"
        )
    if ev.n < 3:
        # the rate table pairs each event with a swapped-destination negative
        raise ValueError(f"eval needs n >= 3 nodes, got n={ev.n}")
    split = _make_split(ev, resolved)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    part = fm.part
    counts = interval_counts(ev, part)
    rng = np.random.SeedSequence(seed)

    if split is None:
        part_codes = {"train": unique_codes(ev.src * ev.n + ev.dst)}
    else:
        part_codes = {"train": split.train_codes, "val": split.val_codes, "test": split.test_codes}
    # each part's pairs as (m, 2) rows; validation and test only when non-empty
    split_sets = {
        name: pair_rows(codes, ev.n)
        for name, codes in part_codes.items()
        if name == "train" or codes.size
    }
    train_pairs = split_sets["train"]
    train_counts = evl.restrict_counts(counts, train_pairs)
    lsdm_models = None
    if "lsdm" in scorers:
        lsdm_models = evl.fit_lsdm_intervals(train_counts, train_pairs, fm.state.d, opts)
        stopped = [k for k, m in lsdm_models.items() if not m.converged]
        if stopped:
            worst = max(lsdm_models[k].grad_inf for k in stopped)
            warnings.warn(
                f"interval k = {', '.join(map(str, stopped))}: distance-model fit stopped "
                f"at the --lsdm-iters cap of {opts.iters} (gradient inf-norm up to "
                f"{worst:.3g}, tolerance {evl.LSDM_GRAD_TOL:g}); see lsdm_fit in auc.json",
                RuntimeWarning,
            )

    auc_out: dict[str, dict[str, float]] = {}
    shortfall_out: dict[str, int] = {}
    instance_splits = []
    inst_seeds = rng.spawn(len(split_sets))
    for (name, pairs), sseq in zip(split_sets.items(), inst_seeds):
        child = np.random.default_rng(sseq)
        instances, shortfall = evl.build_instances(
            counts, pairs, part, seed=int(child.integers(2**63))
        )
        shortfall_out[name] = sum(shortfall.values())
        per_scorer = {}
        scores = {}
        for scorer in scorers:
            scored = evl.score_instances(
                instances,
                scorer,
                fm=fm,
                train_counts=train_counts,
                lsdm_models=lsdm_models,
                seed=int(child.integers(2**63)),
            )
            scores[scorer] = scored.score
            per_scorer[scorer] = evl.auc(scored)
        auc_out[name] = per_scorer
        instance_splits.append((name, instances, scores))

    summary = {
        "dataset": str(args.events),
        "K": part.K,
        "auc": auc_out,
        "shortfall": shortfall_out,
    }
    if lsdm_models is not None:
        summary["lsdm_fit"] = {
            k: {
                "converged": m.converged,
                "iterations": m.iterations,
                "evaluations": m.evaluations,
                "grad_inf": m.grad_inf,
                "nll": float(m.nll_trace[-1]),
            }
            for k, m in lsdm_models.items()
        }
    with open(outdir / "auc.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    _write_instances_csv(outdir / "instances.csv", instance_splits, scorers)

    # node-level uncertainty table, one row per (node, interval)
    u, nd, deg = evl.node_table(fm, counts)
    n, K = u.shape
    write_csv_columns(
        outdir / "uncertainty_nodes.csv", ["node", "k", "u", "neighbor_dist", "degree"],
        [
            np.repeat(np.arange(n), K), np.tile(np.arange(1, K + 1), n), u.ravel(),
            ["" if x == "nan" else x for x in float_text(nd.ravel())], deg.ravel(),
        ],
    )

    # edge-level posterior-predictive uncertainty over the training pairs,
    # one batch of rows at a time
    write_csv_chunks(
        outdir / "uncertainty_edges.csv", ["i", "j", "k", "N", "lambda_mean", "lambda_std"],
        evl.edge_table(fm.state, train_counts, fm.hyper.rate_model, part),
    )

    rates = evl.rate_vs_uncertainty_table(ev, fm.state, fm.hyper.rate_model, part, seed=seed)
    times = float_text(ev.time)  # the negatives repeat the events' times
    write_csv_columns(
        outdir / "rate_vs_uncertainty.csv",
        ["i", "j", "t", "k", "is_negative", "rate", "rate_std", "N"],
        [
            rates.i, rates.j, times + times, rates.k, rates.is_negative.astype(np.int64),
            rates.rate, rates.rate_std, rates.n_events,
        ],
    )

    resolved["events"] = str(args.events)
    resolved["model"] = str(args.model)
    _echo_config(resolved, outdir)
    for name, per_scorer in auc_out.items():
        summary = ", ".join(f"{s}={v:.3f}" for s, v in per_scorer.items())
        print(f"AUC [{name}]: {summary}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _SCORE_DEFAULTS)
    fm = load_model(args.model)
    scorer = str(resolved["scorer"])
    if scorer not in ("tgne", "tgne_predictive"):
        raise ValueError("score supports the model-based scorers: tgne, tgne_predictive")
    triplets, lines = [], []
    with open(args.triplets, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError("triplets file is empty")
        for row in reader:
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"line {reader.line_num}: expected 3 fields, got {len(row)}")
            try:
                triplets.append([int(x) for x in row[:3]])
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
            lines.append(reader.line_num)
    if not triplets:
        raise ValueError("no triplets to score")
    ii, jj, kk = np.asarray(triplets, dtype=np.int64).T
    evl.check_triplets(fm, ii, jj, kk, lines=lines)
    table = evl.InstanceTable(ii, jj, kk, np.full(ii.size, np.nan), np.zeros(ii.size, np.int64))
    scores = evl.score_instances(table, scorer, fm=fm).score
    out_path = Path(args.out)
    write_csv_columns(out_path, ["i", "j", "k", "score"], [ii, jj, kk, scores])
    print(f"scored {len(triplets)} triplets with {scorer} -> {out_path}")
    return 0


def _int_at_least(lo: int):
    """An argparse type: an integer >= ``lo`` (argparse names the flag on failure)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


_positive_int, _seed = _int_at_least(1), _int_at_least(0)


def _rate(text: str) -> float:
    """An argparse type: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgne",
        description="Latent Gaussian trajectories for continuous-time interaction networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate the block-model fixture")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--config", help="JSON file with default flag values")
    p_sim.add_argument("--n", type=_int_at_least(2), help="number of nodes (>= 2)")
    p_sim.add_argument("--intra-rate", dest="intra_rate", type=_rate)
    p_sim.add_argument("--inter-rate", dest="inter_rate", type=_rate)
    p_sim.add_argument("--seed", type=_seed)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit latent trajectories to an event file")
    p_fit.add_argument("--events", required=True, help="events.csv (source,dest,timestamp)")
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--config", help="JSON file with default flag values")
    p_fit.add_argument("--d", type=_positive_int, help="latent dimension (>= 1)")
    p_fit.add_argument("--K", type=_positive_int, help="number of intervals (>= 1)")
    p_fit.add_argument("--tau", type=float)
    p_fit.add_argument("--tau0", type=float)
    p_fit.add_argument("--epochs", type=_positive_int, help="training epochs (>= 1)")
    p_fit.add_argument("--lr-phi", dest="lr_phi", type=float)
    p_fit.add_argument("--lr-beta", dest="lr_beta", type=float)
    p_fit.add_argument("--rate-model", dest="rate_model", choices=["euclidean", "dot"])
    p_fit.add_argument(
        "--negatives", type=_positive_int, help="negative samples per node per epoch (>= 1)"
    )
    p_fit.add_argument("--seed", type=_seed)
    p_fit.add_argument(
        "--beta-init", dest="beta_init", type=float,
        help="rate bias start value (default: empirical log rate per active pair)",
    )
    p_fit.add_argument("--directed", action=argparse.BooleanOptionalAction)
    p_fit.add_argument("--test-frac", dest="test_frac", type=float)
    p_fit.add_argument("--val-frac", dest="val_frac", type=float)
    p_fit.add_argument("--split-seed", dest="split_seed", type=_seed)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="reconstruction benchmark + uncertainty tables")
    p_eval.add_argument("--events", required=True)
    p_eval.add_argument("--model", required=True, help="model.json from fit")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--config", help="JSON file with default flag values")
    p_eval.add_argument("--scorers", help="comma-separated: tgne,tgne_predictive,lsdm,pa,random")
    p_eval.add_argument(
        "--B", type=int,
        help="ignored: the posterior-predictive moments are exact for both rate models",
    )
    p_eval.add_argument("--seed", type=_seed)
    p_eval.add_argument("--test-frac", dest="test_frac", type=float)
    p_eval.add_argument("--val-frac", dest="val_frac", type=float)
    p_eval.add_argument("--split-seed", dest="split_seed", type=_seed)
    p_eval.add_argument(
        "--lsdm-iters", dest="lsdm_iters", type=_positive_int,
        help="L-BFGS-B iteration cap of each interval's lsdm fit (>= 1)",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_score = sub.add_parser("score", help="score explicit (i,j,k) triplets with a fitted model")
    p_score.add_argument("--model", required=True)
    p_score.add_argument("--triplets", required=True, help="CSV with header i,j,k")
    p_score.add_argument("--out", required=True, help="output CSV path")
    p_score.add_argument("--config", help="JSON file with default flag values")
    p_score.add_argument("--scorer", choices=["tgne", "tgne_predictive"])
    p_score.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime failures exit 1; argparse handles usage (2)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
