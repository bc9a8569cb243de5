#!/usr/bin/env python3
"""Frontier table: the largest n at which each identity family still verifies in time.

    python3 bench/frontier.py

For each family the caches start cold and the sizes n = 1, 2, ... are verified
in ascending order, as a sweep would, each size being all of the family's
cases at that n (``workloads.FAMILIES``).  The frontier is the last n whose
cases all verify ``equal`` within LIMIT_S seconds together; the sweep stops
at the first size that runs out of time, fails, or passes NMAX.

This is a reference figure, not a gated benchmark metric: it moves in steps.
"""

from __future__ import annotations

import signal
import sys
import time

import spans
from run import import_deltaq
from workloads import FAMILIES

LIMIT_S = 20  # seconds allowed for all cases of one size
NMAX = 24  # largest size tried


class OutOfTime(BaseException):
    """Raised by the alarm; a BaseException so no handler inside deltaq swallows it."""


def _alarm(signum, frame):
    raise OutOfTime


def verify_size(verify, identity, cases, limit):
    """Seconds to verify the cases, or the reason they did not verify in time."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    started = time.perf_counter()
    try:
        for params in cases:
            try:
                report = verify.run_one(identity, params)
            except Exception as exc:  # recorded as the reason the sweep stopped
                return None, f"{type(exc).__name__} at {params}"
            if report.status != "equal":
                return None, f"{report.status} at {params}: {report.witness[:80]}"
    except OutOfTime:
        return None, f"over {limit:g} s"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - started, ""


def main() -> int:
    import_deltaq()
    from deltaq import verify

    caches = spans.lru_caches(spans.deltaq_modules())
    print("| family | frontier n | cases at n | s at n | stopped at n+1 |")
    print("| --- | ---: | ---: | ---: | --- |")
    for identity in sorted(FAMILIES):
        spans.clear_caches(caches)
        best = (0, 0, 0.0)
        reason = f"reached n = {NMAX}"
        for n in range(1, NMAX + 1):
            cases = list(FAMILIES[identity](n))
            if not cases:
                continue
            seconds, why = verify_size(verify, identity, cases, LIMIT_S)
            if seconds is None:
                reason = why
                break
            best = (n, len(cases), seconds)
        n, count, seconds = best
        print(f"| {identity} | {n} | {count} | {seconds:.2f} | {reason} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
