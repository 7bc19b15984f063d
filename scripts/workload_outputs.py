#!/usr/bin/env python3
"""Write the fit and eval outputs of one benchmark workload.

    python3 scripts/workload_outputs.py --workload fixture --seed 1 --out DIR

Generates the workload's events with ``tgnebench/gen.py`` at ``--seed`` and
runs ``tgne fit`` and then ``tgne eval`` in-process with the argv that
``tgnebench/workloads.py`` gives the benchmark, writing ``DIR/events.csv``,
``DIR/fit/`` and ``DIR/eval/``. The package is imported from ``src/`` of
the checkout this script sits in, so running the script of two checkouts
and then ``scripts/compare_outputs.py`` on their two directories checks
that a change leaves every output byte-identical. Exits 1 if fit or eval
does.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tgnebench")]

import gen  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from tgne.cli import main as tgne_main  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="events seed (default 1)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    events, fit_dir = args.out / "events.csv", args.out / "fit"
    gen.write_events(wl.sbm, args.seed, events)
    rc = tgne_main(wl.fit_argv(str(events), str(fit_dir)))
    if rc == 0:
        rc = tgne_main(wl.eval_argv(str(events), str(fit_dir / "model.json"),
                                    str(args.out / "eval")))
    return 1 if rc else 0


if __name__ == "__main__":
    sys.exit(main())
