"""Output checks: every CLI command and every check is one counted operation.

A failed operation is recorded with its reason and never stops the run, so
``failed / attempted`` (``failed_frac``) counts every fault a run can see.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


class Ledger:
    """Attempted and failed operations of one run, with a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok

    def check(self, name: str, fn, *args) -> bool:
        """Run a check returning (ok, detail); a raised error counts as a failure."""
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a missing or unreadable output fails its check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        return self.record(name, ok, detail)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _data_rows(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return [row for row in rows[1:] if row]


def loss_decreases(fit_dir: Path):
    losses = [float(row[1]) for row in _data_rows(fit_dir / "loss.csv")]
    if not losses or not all(math.isfinite(x) for x in losses):
        return False, "loss.csv is empty or holds a non-finite loss"
    return losses[-1] < losses[0], f"first {losses[0]!r}, last {losses[-1]!r}"


def same_split(fit_dir: Path, eval_dir: Path):
    keys = ("test_frac", "val_frac", "split_seed")
    cfg = [json.loads((d / "config.json").read_text()) for d in (fit_dir, eval_dir)]
    got = [{k: c[k] for k in keys} for c in cfg]
    return got[0] == got[1], f"fit {got[0]} vs eval {got[1]}"


def held_out_auc(eval_dir: Path) -> float:
    doc = json.loads((eval_dir / "auc.json").read_text())
    return float(doc["auc"]["test"]["tgne"])


def auc_at_least(eval_dir: Path, gate: float):
    value = held_out_auc(eval_dir)
    return value >= gate, f"test AUC {value:.4f} vs gate {gate}"


def row_count(path: Path, expected: int):
    got = len(_data_rows(path))
    return got == expected, f"{path.name}: {got} rows, expected {expected}"


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def identical(paths: list[Path]):
    digests = {file_sha256(p) for p in paths}
    return len(digests) == 1, f"{len(digests)} distinct hashes over {len(paths)} repeats"


def check_repeat(ledger: Ledger, fit_dir: Path, eval_dir: Path, *, nodes: int,
                 K: int, events: int, auc_gate) -> None:
    """The per-repeat checks on one fit + eval output pair."""
    ledger.check("loss finite and decreasing", loss_decreases, fit_dir)
    ledger.check("fit/eval split flags agree", same_split, fit_dir, eval_dir)
    if auc_gate is not None:
        ledger.check("test_auc_tgne gate", auc_at_least, eval_dir, auc_gate)
    ledger.check("uncertainty_nodes rows", row_count,
                 eval_dir / "uncertainty_nodes.csv", nodes * K)
    ledger.check("rate_vs_uncertainty rows", row_count,
                 eval_dir / "rate_vs_uncertainty.csv", 2 * events)
