"""Command-line interface.

Subcommands:

* ``deltaq verify``   -- run an identity suite (or one id) and optionally write JSONL
* ``deltaq expand``   -- print a named expansion in the Schur basis
* ``deltaq pf``       -- count parking functions, or list them path by path as statistics CSV
* ``deltaq deltaside``-- print the combinatorial operator side for given n, k

Every subcommand reports invalid input as ``error: <message>`` on stderr and
exits with status 2: a ``ValueError``, such as a malformed ``--params`` or one
that repeats a key, or an ``OSError``, such as a ``verify --out`` file that
cannot be opened, which ``verify`` opens before the first case runs.
``verify --params`` must give exactly the keys of each
selected identity's first default case, each an int or a list as there, and
``expand --params`` exactly the keys its ``--what`` needs; otherwise the
command names what does not fit and exits with status 2 before computing
anything.
``verify`` turns each case's own exception into an ``error`` report instead and
exits with status 1 when any case mismatches or errors.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys

from . import delta_ops as do
from . import hall_littlewood as hl
from . import parking as pk
from . import qfield
from . import symfunc as sf
from . import verify as ver
from .partition import Partition, parse_partition


def _split_params(text: str) -> dict:
    """Parse 'k=1,m=3,nu=[2,1]' into a dict with int or int-list values.

    Items are split at the commas outside brackets; one trailing comma is ignored,
    and a key given twice is a ``ValueError``.
    """
    out: dict = {}
    pieces = re.split(r",(?![^\[]*\])", text)
    if not pieces[-1]:
        pieces.pop()
    for item in pieces:
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValueError(f"malformed parameter {item!r}")
        if key in out:
            raise ValueError(f"repeated parameter {key!r}")
        if value.startswith("["):
            out[key] = list(parse_partition(value))
        elif re.fullmatch(r"-?[0-9]+", value):
            out[key] = int(value)
        else:
            raise ValueError(f"invalid literal for int() with base 10: {value!r}")
    return out


def _parse_mu(text: str) -> Partition:
    text = text.strip()
    if not text.startswith("["):
        text = "[" + text + "]"
    return parse_partition(text)


def _misfits(case: dict, params: dict) -> list[str]:
    """How ``params`` fails to fit ``case``, a dict of the keys one run takes and their shapes.

    The missing keys, or else the keys ``case`` lacks, then every value that
    is not a list where ``case`` has one, or not an int where it has an int.
    """
    missing = [key for key in case if key not in params]
    unknown = [key for key in params if key not in case]
    out = []
    if missing or unknown:
        out.append(f"needs {', '.join(missing)} in --params" if missing
                   else f"takes no {', '.join(unknown)} in --params")
    for key, value in case.items():
        want_list = isinstance(value, list)
        if key in params and isinstance(params[key], list) != want_list:
            shape = "a list such as [2,1]" if want_list else "an int"
            out.append(f"needs {key} as {shape}, got {params[key]}")
    return out


def _unfit(ids, params: dict) -> list[str]:
    """'<id> needs <keys> in --params', '<id> takes no <keys> in --params' or
    '<id> needs <key> as <shape>' per problem of each identity.

    An identity takes exactly the keys of its first default case, each of the same shape.
    """
    return [f"{name} {problem}" for name in ids
            for problem in _misfits(next(ver.REGISTRY[name].default_cases(None)), params)]


def _cmd_verify(args) -> int:
    params = _split_params(args.params) if args.params else None
    if params is not None:
        unfit = _unfit((args.id,) if args.id else ver.SUITES[args.suite], params)
        if unfit:
            raise ValueError("; ".join(unfit))
    if args.out:  # fail before any case runs; an old report is replaced only by a finished run
        open(args.out, "a").close()
    reports = ver.run_suite(args.suite, args.id, params, args.nmax)
    if args.out:
        ver.write_jsonl(reports, args.out)
    for report in reports:
        line = f"{report.identity_id} {report.params} {report.status} ({report.elapsed_ms:.1f} ms)"
        if report.witness:
            line += f" :: {report.witness}"
        print(line)
    counts = ver.summarize(reports)
    print(
        f"total {len(reports)}: {counts['equal']} equal, "
        f"{counts['mismatch']} mismatch, {counts['skipped']} skipped, {counts['error']} error"
    )
    return 1 if counts["mismatch"] or counts["error"] else 0


def _required(params: dict, what: str, *names: str) -> list:
    """The values of the named parameters: ``nu`` a list of ints, every other one an int.

    A missing or unknown parameter, or one of the wrong shape, is invalid input.
    """
    problems = _misfits({name: [] if name == "nu" else 0 for name in names}, params)
    if problems:
        raise ValueError("; ".join(f"--what {what} {problem}" for problem in problems))
    return [params[name] for name in names]


def _expand_target(args) -> sf.SymFunc:
    what = args.what
    params = _split_params(args.params) if args.params else {}
    if what in ("P", "Q", "Htilde0", "Htilde"):
        if not args.mu:
            raise ValueError(f"--what {what} needs --mu")
        _required(params, what)
        mu = _parse_mu(args.mu)
        if what == "P":
            return hl.hl_P(mu)
        if what == "Q":
            return hl.hl_Q(mu)
        if what == "Htilde0":
            return hl.modified_macdonald_t0(mu)
        return hl.modified_macdonald_full(mu)
    if what in ("lhs_nu", "rhs_nu"):
        nu, n = _required(params, what, "nu", "n")
        nu = Partition(tuple(nu))
        return do.lhs_nu(nu, n) if what == "lhs_nu" else do.rhs_nu(nu, n)
    if what in ("lhs_hook", "rhs_hook"):
        k, m, n = _required(params, what, "k", "m", "n")
        hp = do.HookParams(k=k, m=m, n=n)
        return do.lhs_hook_closed(hp) if what == "lhs_hook" else do.rhs_hook(hp)
    left, right = do.ghry_sides(*_required(params, what, "n", "k"))  # --what ghry
    if left != right:
        print("note: the two sides differ; printing the left side", file=sys.stderr)
    return left


def _cmd_expand(args) -> int:
    target = _expand_target(args)
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["partition", "coefficient"])
        for lam in sorted(target.terms, reverse=True):
            writer.writerow([lam.render(), qfield.render(target.terms[lam])])
    else:
        print(sf.render(target))
    return 0


def _cmd_pf(args) -> int:
    count = pk.parking_count(args.n)  # rejects n < 1 before anything is written
    if args.stats:
        writer = csv.writer(sys.stdout)
        writer.writerow(["cars", "areas", "area", "dinv", "word", "ides"])
        for path in pk.DyckPath.all_paths(args.n):  # one path's parking functions at a time
            for pf in pk.ParkingFunction.all_on(path):
                writer.writerow([
                    " ".join(map(str, pf.cars)),
                    " ".join(map(str, pf.path.areas)),
                    pf.area,
                    pf.dinv(),
                    " ".join(map(str, pf.word())),
                    " ".join(map(str, pf.ides())),
                ])
    else:
        print(f"{count} parking functions of size {args.n}")
    return 0


def _cmd_deltaside(args) -> int:
    result = pk.delta_side_combinatorial(args.n, args.k, t_zero=args.t0)
    print(sf.render(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaq",
        description="Exact q,t-symmetric-function computations and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--suite", default="all", choices=sorted(ver.SUITES),
                          help="identity family to sweep (default: all)")
    p_verify.add_argument("--id", default=None, choices=sorted(ver.REGISTRY),
                          help="single identity id")
    p_verify.add_argument("--params", default=None,
                          help="explicit parameters, e.g. k=1,m=3,n=5 or nu=[2,1],n=5")
    p_verify.add_argument("--nmax", type=int, default=None,
                          help="cap the default sweep size")
    p_verify.add_argument("--out", default=None, help="write JSONL report here")
    p_verify.set_defaults(func=_cmd_verify)

    p_expand = sub.add_parser("expand", help="print an expansion in the Schur basis")
    p_expand.add_argument("--what", required=True,
                          choices=["P", "Q", "Htilde0", "Htilde", "lhs_nu", "rhs_nu",
                                   "lhs_hook", "rhs_hook", "ghry"])
    p_expand.add_argument("--mu", default=None, help="partition, e.g. [2,1]")
    p_expand.add_argument("--params", default=None,
                          help="parameters for the parametric expansions")
    p_expand.add_argument("--csv", action="store_true", help="emit partition,coefficient CSV")
    p_expand.set_defaults(func=_cmd_expand)

    p_pf = sub.add_parser("pf", help="enumerate parking functions")
    p_pf.add_argument("--n", type=int, required=True)
    p_pf.add_argument("--stats", action="store_true",
                      help="CSV with cars, areas, area, dinv, word, ides")
    p_pf.set_defaults(func=_cmd_pf)

    p_ds = sub.add_parser("deltaside", help="combinatorial operator side")
    p_ds.add_argument("--n", type=int, required=True)
    p_ds.add_argument("--k", type=int, required=True)
    p_ds.add_argument("--t0", action="store_true", help="keep only the t-degree-0 part")
    p_ds.set_defaults(func=_cmd_deltaside)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # invalid input; verify reports case failures itself
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
