#!/usr/bin/env python3
"""Report the rank of span{ Delta_{s_nu} e_n } against the ambient dimension p(n).

Each rank is taken at the point (q,t) = (123456789, 987654321) mod 2^61-1
(``delta_ops.point_label()``) by ``delta_ops.span_rank_at_point``,
the route ``deltaq verify --id span_dim`` certifies with, feeding images in
increasing |nu| and stopping once the span is full.  The rank at the point is
a lower bound on the rank over Q(q,t), and it never exceeds p(n), so
"full? yes" certifies rank = p(n); "no" proves nothing.

Examples:
    python scripts/span_report.py
    python scripts/span_report.py --nmin 3 --nmax 5 --nu-size-max 2
"""

from __future__ import annotations

import argparse
import time

from deltaq import delta_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--nmin", type=int, default=2)
    parser.add_argument("--nmax", type=int, default=5)
    parser.add_argument("--nu-size-max", type=int, default=None,
                        help="largest |nu| to feed (default: n)")
    args = parser.parse_args(argv)
    if not (1 <= args.nmin <= args.nmax):
        parser.error("need 1 <= nmin <= nmax")
    if args.nu_size_max is not None and args.nu_size_max < 1:
        parser.error("need nu-size-max >= 1")
    print(f"{'n':>3} {'rank':>5} {'p(n)':>5} {'images':>7} {'full?':>6} {'time':>8}")
    for n in range(args.nmin, args.nmax + 1):
        started = time.perf_counter()
        report = delta_ops.span_rank_at_point(n, args.nu_size_max)
        elapsed = time.perf_counter() - started
        print(
            f"{report.n:>3} {report.rank:>5} {report.dim:>5} {report.nu_count:>7} "
            f"{'yes' if report.rank == report.dim else 'no':>6} {elapsed:>7.1f}s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
