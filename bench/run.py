#!/usr/bin/env python3
"""Run one deltaq benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload qbinom-moments --seed 1 --seconds 22 --trace 0

Run from anywhere inside a source checkout: deltaq is imported from the
``src/`` directory next to this one, never from an installed copy.

``--trace 0`` measures the end-to-end metrics.  It times deltaq's import in
fresh interpreters (``setup_s``), then verifies the workload's whole case set
through ``verify.run_one`` in rounds, each from cold caches, and reports the
median round (``wall_s``, ``top_n_s``) and the process's peak resident set.
There is always one round; another starts only if, taking as long as the
round before it, it would end within ``--seconds``.  Rounds are timed on
``SpeedClock``: wall time rescaled to the reference machine speed, because
the speed of the shared host drifts by up to half over seconds to minutes.
The raw wall times go to standard error.

``--trace 1`` measures the per-layer metrics.  It runs one untraced round and
one traced round, both from cold caches and both timed on ``SpeedClock``, and
reports the traced round's layer totals plus the tracing overhead;
``--seconds`` does not apply.

A case fails when it raises or returns any status but ``equal``.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the per-layer table and every cache size go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
SETUP_PROBE = "import time, deltaq.cli; print(time.perf_counter())"

# The speed probe: a fixed pure-Python loop timed every PROBE_EVERY_S during the
# rounds.  REFERENCE_PROBE_S is its duration when the 2-core reference machine
# (Intel Xeon, 2.1 GHz, Python 3.11) runs undisturbed.
PROBE_LOOPS = 50_000
PROBE_EVERY_S = 0.25
REFERENCE_PROBE_S = 0.0033

END_TO_END_UNITS = {"wall_s": "s", "top_n_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metrics printed by --trace 1: name -> unit.  Names ending in
# .calls / .s / .self_s come from the spans of that function.
PER_LAYER_UNITS = {
    "qfield.field_ops": "count",
    "qfield.cancel.calls": "count",
    "qfield.cancel.s": "s",
    "qfield.qbinom.calls": "count",
    "qfield.qpoch_at.calls": "count",
    "qfield.subs.calls": "count",
    "qfield.subs.s": "s",
    "qfield.render.s": "s",
    "qfield.cache_entries": "count",
    "qfield.cache_hit_ratio": "ratio",
    "symfunc.apply_transform.calls": "count",
    "symfunc.apply_transform.s": "s",
    "symfunc.basis_convert.calls": "count",
    "symfunc.basis_convert.s": "s",
    "symfunc.sym.calls": "count",
    "symfunc.sym.s": "s",
    "symfunc.render.s": "s",
    "symfunc.cache_entries": "count",
    "tableaux.ssyt.s": "s",
    "tableaux.cache_entries": "count",
    "hall_littlewood.kostka_foulkes.calls": "count",
    "hall_littlewood.kostka_foulkes.s": "s",
    "hall_littlewood.hl_P.calls": "count",
    "hall_littlewood.hl_P.s": "s",
    "hall_littlewood.modified_macdonald_t0.s": "s",
    "hall_littlewood.modified_macdonald_full.s": "s",
    "hall_littlewood.fillings": "count",
    "hall_littlewood.cache_entries": "count",
    "delta_ops.remmel_coeff.calls": "count",
    "delta_ops.remmel_coeff.s": "s",
    "delta_ops.delta_prime_t0.s": "s",
    "delta_ops.delta_full.calls": "count",
    "delta_ops.delta_full.s": "s",
    "delta_ops.span_dimension_report.self_s": "s",
    "parking.pfs": "count",
    "parking.perms_tried": "count",
    "parking.pf_yield": "ratio",
    "parking.all_on.s": "s",
    "parking.fundamental_monomials.calls": "count",
    "parking.delta_side_combinatorial.self_s": "s",
    "parking.cache_entries": "count",
    "partition.partitions_of.calls": "count",
    "partition.cache_entries": "count",
    "verify.cases": "count",
    "verify.run_one.s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_deltaq():
    """Import deltaq from this checkout's src/, refusing any other copy."""
    if not (SRC / "deltaq" / "__init__.py").is_file():
        raise SystemExit(f"error: no deltaq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deltaq

    if Path(deltaq.__file__).resolve().parent != (SRC / "deltaq").resolve():
        raise SystemExit(f"error: imported deltaq from {deltaq.__file__}, not {SRC}")


def measure_setup() -> float:
    """Median time from launching an interpreter until deltaq's CLI is imported.

    Each sample is rescaled to the reference machine speed by the median of
    three probes timed just before the launch (see ``SpeedClock``).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    samples = []
    for _ in range(SETUP_SAMPLES):
        probes = []
        for _ in range(3):
            probe_started = time.perf_counter()
            _probe_loop()
            probes.append(time.perf_counter() - probe_started)
        launched = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        raw = float(done.stdout.split()[-1]) - launched
        samples.append(raw * REFERENCE_PROBE_S / statistics.median(probes))
    return statistics.median(samples)


def _probe_loop() -> int:
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return total


class SpeedClock:
    """Time at reference machine speed, for timings that survive a drifting host.

    While active, a SIGALRM handler times ``_probe_loop`` every PROBE_EVERY_S.
    The real time between two probes advances this clock by that time times
    REFERENCE_PROBE_S / (median of the last five probe durations), so a
    stretch during which the host ran the process at half speed counts half.
    Probe time itself is not counted, by this clock or by ``raw``.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._state = (0.0, 0.0, time.perf_counter(), 1.0)  # (scaled, raw, last real, factor)

    def _probe(self, signum=None, frame=None):
        started = time.perf_counter()
        scaled, raw, last, factor = self._state
        scaled += (started - last) * factor
        raw += started - last
        _probe_loop()
        ended = time.perf_counter()
        self.probes.append(ended - started)
        factor = REFERENCE_PROBE_S / statistics.median(self.probes[-5:])
        self._state = (scaled, raw, ended, factor)

    def read(self) -> tuple[float, float]:
        """(scaled, raw) seconds so far, probe time excluded."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            scaled, raw, last, factor = self._state
            elapsed = time.perf_counter() - last
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return scaled + elapsed * factor, raw + elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_round(verify, cases, clock):
    """Verify every case once.

    Returns ((wall, top-size wall) on the scaled clock, the same on the raw
    clock, reports, failures).
    """
    reports, failures = [], []
    top = [0.0, 0.0]
    started = clock.read()
    for case in cases:
        case_started = clock.read()
        try:
            report = verify.run_one(case.identity, case.params)
        except Exception as exc:  # a raising case is counted and the round goes on
            report = None
            failures.append(f"{case.identity} {case.params}: {type(exc).__name__}: {exc}")
        else:
            if report.status != "equal":
                failures.append(f"{case.identity} {case.params}: {report.status} {report.witness}")
        if case.top:
            case_ended = clock.read()
            top[0] += case_ended[0] - case_started[0]
            top[1] += case_ended[1] - case_started[1]
        reports.append(report)
    ended = clock.read()
    return ((ended[0] - started[0], top[0]), (ended[1] - started[1], top[1]),
            reports, failures)


def _outputs(reports):
    return [None if r is None else (r.status, r.lhs_render, r.rhs_render) for r in reports]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, cases, seconds, verify):
    setup = measure_setup()
    caches = spans.lru_caches(spans.deltaq_modules())
    rounds, problems = [], []
    started = time.perf_counter()
    with SpeedClock() as clock:
        while True:
            spans.clear_caches(caches)
            gc.collect()
            scaled, raw, reports, failures = run_round(verify, cases, clock)
            if not rounds:
                # the peak of one verification, before later rounds add their own garbage
                peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                first = reports
            elif _outputs(reports) != _outputs(first):
                problems.append(f"round {len(rounds) + 1} output differs from round 1")
            rounds.append((scaled, raw, None, failures))
            if time.perf_counter() - started + raw[0] > seconds:
                break
    check_started = time.perf_counter()
    problems += workload.check(cases, first)
    check_s = time.perf_counter() - check_started
    values = {
        "wall_s": statistics.median(r[0][0] for r in rounds),
        "top_n_s": statistics.median(r[0][1] for r in rounds),
        "setup_s": setup,
        "peak_rss_mb": peak_mib,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    probes = statistics.quantiles(clock.probes, n=4)
    print(f"{workload.name}: {len(rounds)} rounds of {len(cases)} cases; "
          f"wall at reference speed {[round(r[0][0], 3) for r in rounds]}, "
          f"raw wall {[round(r[1][0], 3) for r in rounds]}; {len(clock.probes)} probes, "
          f"quartiles {[round(p * 1000, 2) for p in probes]} ms "
          f"(reference {REFERENCE_PROBE_S * 1000:.2f} ms); output checks {check_s:.2f} s",
          file=sys.stderr)
    return rounds, problems, metrics


def per_layer(workload, cases, verify):
    mods = spans.deltaq_modules()
    caches = spans.lru_caches(mods)
    tracer = spans.Tracer()
    with SpeedClock() as clock:
        spans.clear_caches(caches)
        gc.collect()
        untraced = run_round(verify, cases, clock)
        spans.clear_caches(caches)
        gc.collect()
        tracer.install(mods)
        try:
            traced = run_round(verify, cases, clock)
        finally:
            tracer.uninstall()
    problems = [] if _outputs(traced[2]) == _outputs(untraced[2]) else [
        "traced output differs from untraced output"]
    problems += workload.check(cases, traced[2])

    totals = tracer.layer_totals()
    stats = spans.cache_stats(caches)
    values = dict(tracer.counts)
    for name, row in totals.items():
        for field, value in row.items():
            values[f"{name}.{field}"] = value
    for module in spans.MODULES:
        rows = [row for key, row in stats.items() if key.startswith(module + ".")]
        values[f"{module}.cache_entries"] = sum(r["entries"] for r in rows)
        lookups = sum(r["hits"] + r["misses"] for r in rows)
        values[f"{module}.cache_hit_ratio"] = (
            sum(r["hits"] for r in rows) / lookups if lookups else 0.0)
    tried = values.get("parking.perms_tried", 0)
    values["parking.pf_yield"] = values.get("parking.pfs", 0) / tried if tried else 0.0
    values["verify.cases"] = totals["verify.run_one"]["calls"]
    values["trace.spans"] = len(tracer.span_start)
    values["trace.wall_s"] = traced[0][0]
    values["trace.untraced_wall_s"] = untraced[0][0]
    values["trace.overhead_s"] = traced[0][0] - untraced[0][0]

    print(f"{workload.name}: raw wall untraced {untraced[1][0]:.3f} s, traced {traced[1][0]:.3f} s",
          file=sys.stderr)
    print_layer_table(workload.name, totals, tracer.counts, stats, values)
    metrics = {name: metric(values.get(name, 0), unit) for name, unit in PER_LAYER_UNITS.items()}
    return [untraced, traced], problems, metrics


def print_layer_table(name, totals, counts, stats, values):
    out = sys.stderr
    print(f"# {name} at reference speed: traced {values['trace.wall_s']:.3f} s, untraced "
          f"{values['trace.untraced_wall_s']:.3f} s, overhead {values['trace.overhead_s']:.3f} s, "
          f"{values['trace.spans']} spans", file=out)
    print(f"{'span':48} {'calls':>10} {'s':>10} {'self_s':>10}", file=out)
    for span, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        if row["calls"]:
            print(f"{span:48} {row['calls']:>10} {row['s']:>10.3f} {row['self_s']:>10.3f}", file=out)
    for key, value in sorted(counts.items()):
        print(f"{key:48} {value:>10.6g}", file=out)
    print(f"{'lru_cache':48} {'entries':>10} {'hits':>10} {'misses':>10}", file=out)
    for key, row in sorted(stats.items()):
        print(f"{key:48} {row['entries']:>10} {row['hits']:>10} {row['misses']:>10}", file=out)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_deltaq()
    from deltaq import verify

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cases = workload.cases(args.seed)
    if args.trace:
        rounds, problems, metrics = per_layer(workload, cases, verify)
    else:
        rounds, problems, metrics = end_to_end(workload, cases, args.seconds, verify)
    failures = [f for r in rounds for f in r[3]]
    for line in sorted(set(failures)) + problems:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(cases) * len(rounds),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
