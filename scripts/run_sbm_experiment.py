#!/usr/bin/env python3
"""Block-model fixture experiment: prior-scale effects on the embedding.

Simulates the 60-node switching-community network, fits it at two prior
scales, and exports plot-ready tables: per-node uncertainty over time,
edge-level posterior-predictive spread vs interaction counts (with the
regression slope per scale), and mean inter-frame displacements.
"""

import argparse
import csv
import json
from pathlib import Path

import numpy as np

from tgne.events import interval_counts
from tgne.evaluation import node_uncertainty, uncertainty_regression
from tgne.inference import Hyperparams, fit, mean_frame_displacement, save_model
from tgne.simulate import default_sbm_spec, sbm_generate, write_labels_csv
from tgne.events import write_events_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/sbm_experiment"))
    ap.add_argument("--taus", type=float, nargs="+", default=[1.0, 50.0])
    ap.add_argument("--epochs", type=int, default=500)
    ap.add_argument("--K", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--beta-init", type=float, default=None,
                    help="bias init; default = empirical log rate per active pair")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    sample = sbm_generate(default_sbm_spec(seed=args.seed))
    ev = sample.events
    write_events_csv(ev, args.out / "events.csv")
    write_labels_csv(sample, args.out / "labels.csv")
    print(f"fixture: {ev.n} nodes, {ev.m} events, {len(ev.unique_pairs())} pairs")

    summary = {}
    for tau in args.taus:
        hp = Hyperparams(
            tau=tau, K=args.K, epochs=args.epochs, seed=args.seed,
            beta_init=args.beta_init,
        )
        fm = fit(ev, hp)
        tag = f"tau{tau:g}"
        save_model(fm, args.out / f"model_{tag}.json")
        counts = interval_counts(ev, fm.part)

        with open(args.out / f"uncertainty_nodes_{tag}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node", "k", "u", "degree", "is_switcher"])
            for i in range(ev.n):
                for k in range(1, fm.part.K + 1):
                    writer.writerow([
                        i, k, repr(node_uncertainty(fm.state, i, k)),
                        counts.degree(i, k), int(i == 0),
                    ])

        # the euclidean model's posterior std is exact: no draws to set
        slope = uncertainty_regression(fm.state, counts, fm.hyper.rate_model, fm.part)
        disp = mean_frame_displacement(fm.state)
        summary[tag] = {
            "tau": tau,
            "final_loss": float(fm.loss_trace[-1]),
            "uncertainty_slope": slope,
            "mean_frame_displacement": disp,
            "mean_sigma": float(fm.state.sigma.mean()),
        }
        print(f"tau={tau:g}: loss {fm.loss_trace[-1]:.1f}, slope {slope:+.3e}, "
              f"displacement {disp:.3f}")

    with open(args.out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"wrote {args.out}/summary.json")


if __name__ == "__main__":
    main()
