#!/usr/bin/env python3
"""Compare two tgne fit or eval output directories file by file.

    python3 scripts/compare_outputs.py DIR_A DIR_B

Every file under either directory must exist under both with the same bytes.
The only fields left out of the comparison are paths, which differ between
two runs in two directories: the ``events``, ``model``, ``out`` and
``config`` fields of ``config.json`` and the ``dataset`` field of
``auc.json``. The rest of those two files is compared as JSON text. Prints
one line per difference and exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PATH_FIELDS = {
    "config.json": ("events", "model", "out", "config"),
    "auc.json": ("dataset",),
}


def _content(path: Path) -> bytes:
    """The file's bytes, or for a file with path fields its JSON without them."""
    fields = PATH_FIELDS.get(path.name)
    if fields is None:
        return path.read_bytes()
    obj = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(obj, dict):
        for key in fields:
            obj.pop(key, None)
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def differences(dir_a: Path, dir_b: Path) -> list[str]:
    """One line per file that is missing from one side or differs."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    out = [f"only in {dir_a}: {rel}" for rel in sorted(files_a - files_b)]
    out += [f"only in {dir_b}: {rel}" for rel in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        if _content(dir_a / rel) != _content(dir_b / rel):
            out.append(f"differs: {rel}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"not a directory: {d}")
    diffs = differences(args.dir_a, args.dir_b)
    for line in diffs:
        print(line)
    if not diffs:
        print(f"identical: {args.dir_a} and {args.dir_b}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
