#!/usr/bin/env python3
"""Run every identity suite and print a per-suite scoreboard.

Examples:
    python scripts/run_all_suites.py
    python scripts/run_all_suites.py --suites qbinom kernels --nmax 5
    python scripts/run_all_suites.py --out-dir reports/
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from deltaq import verify as ver


def _scoreline(counts: dict[str, int]) -> str:
    return "  ".join(f"{counts[status]:>5} {status}" for status in ver.STATUSES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suites", nargs="*", default=None, choices=sorted(ver.SUITES),
        help="suites to run (default: every suite except the combined 'all')",
    )
    parser.add_argument("--nmax", type=int, default=None,
                        help="cap the default sweep size of every identity")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="write one JSONL report per suite into this directory")
    args = parser.parse_args(argv)
    if args.nmax is not None and args.nmax < 1:
        parser.error("need nmax >= 1")
    suites = args.suites or [name for name in ver.SUITES if name != "all"]
    if args.out_dir:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    everything = []
    for suite in suites:
        started = time.perf_counter()
        reports = ver.run_suite(suite, nmax=args.nmax)
        if args.out_dir:
            ver.write_jsonl(reports, str(args.out_dir / f"{suite}.jsonl"))
        elapsed = time.perf_counter() - started
        everything += reports
        print(f"{suite:<12} {len(reports):>5} cases  "
              f"{_scoreline(ver.summarize(reports))}  ({elapsed:.1f}s)")
        for report in reports:
            if report.status in ("mismatch", "error"):
                print(f"  !! {report.identity_id} {report.params} {report.status}: "
                      f"{report.witness}")
    grand = ver.summarize(everything)
    print(f"{'total':<12} {len(everything):>5} cases  {_scoreline(grand)}")
    return 1 if grand["mismatch"] or grand["error"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
