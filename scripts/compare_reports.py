#!/usr/bin/env python3
"""Compare two ``deltaq verify --out`` JSONL reports line by line.

Lines are compared on the fields that describe an outcome (id, parameters,
status, both renders and the witness); timings are ignored.  Prints the line
count and the first differences, and exits 1 if either report is empty, any
line differs or the files have different line counts, 0 otherwise: two empty
reports prove nothing.

Example:
    deltaq verify --suite all --out before.jsonl   # on one tree
    deltaq verify --suite all --out after.jsonl    # on the other
    python scripts/compare_reports.py before.jsonl after.jsonl
"""

from __future__ import annotations

import argparse
import json

FIELDS = ("identity_id", "params", "status", "lhs_render", "rhs_render", "witness")
SHOWN = 10  # differences printed in full


def _load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = _load(args.before), _load(args.after)
    empty = [path for path, lines in ((args.before, before), (args.after, after)) if not lines]
    if empty:
        print(f"empty report: {', '.join(empty)}")
        return 1

    differ = 0
    for lineno, (a, b) in enumerate(zip(before, after), start=1):
        fields = [f for f in FIELDS if a.get(f) != b.get(f)]
        if not fields:
            continue
        differ += 1
        if differ <= SHOWN:
            print(f"line {lineno}: {a.get('identity_id')} {a.get('params')}")
            for f in fields:
                print(f"  {f}: {a.get(f)!r}\n  {' ' * len(f)}  {b.get(f)!r}")
    if len(before) != len(after):
        print(f"line counts differ: {len(before)} vs {len(after)}")
    print(f"{min(len(before), len(after))} lines compared, {differ} differ")
    return 1 if differ or len(before) != len(after) else 0


if __name__ == "__main__":
    raise SystemExit(main())
