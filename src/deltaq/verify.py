"""Identity registry, the case runner, and JSONL reporting.

Every checkable identity in the package is one :class:`Identity` record under
a stable id: a ``sides`` function that computes both sides exactly from a
plain parameter dict, the hypothesis under which the identity is claimed (a
predicate plus its text), optional extra predicates, and a default parameter
sweep.  :meth:`Identity.check` is the single runner: it skips a case only
when the hypothesis fails, turns any exception into an ``error`` report, and
renders both sides in the ``symfunc`` grammar.  A scalar side is given only
as a Laurent pair (``QPoly``, e), never as a ``qfield.Coef``; it stays a
canonical pair up to its report text, the degree-0 expansion ``s[]*(coef)``
written by ``qfield.render_laurent``.

``run_suite`` checks one identity or a whole suite, each with its default
parameter sweep or one given case; ``write_jsonl`` writes the reports as JSON
lines.  The CLI and ``scripts/run_all_suites.py`` wrap both.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict
from typing import Any, Callable, Iterable, Iterator

from . import delta_ops as do
from . import hall_littlewood as hl
from . import parking as pk
from . import qfield
from . import symfunc as sf
from .partition import Partition, partitions_of
from .qfield import ZERO, qpoch_poly
from .symfunc import SymFunc

STATUSES = ("equal", "mismatch", "skipped", "error")


# -- reports -----------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    params: dict
    status: str  # one of STATUSES
    lhs_render: str
    rhs_render: str
    witness: str
    elapsed_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _sym_witness(lhs: SymFunc, rhs: SymFunc) -> str:
    """First Schur component (in render order) where the two sides differ."""
    for lam in sorted(set(lhs.terms) | set(rhs.terms), reverse=True):
        a = lhs.terms.get(lam, ZERO)
        b = rhs.terms.get(lam, ZERO)
        if a != b:
            return (
                f"first differing component s{lam.render()}: "
                f"lhs ({qfield.render(a)}) vs rhs ({qfield.render(b)})"
            )
    return ""


def _scalar_pair(side):
    """A scalar side (QPoly, e) as its canonical pair; any other side as it is."""
    if isinstance(side, tuple) and len(side) == 2 and isinstance(side[0], qfield.QPoly):
        return qfield.laurent(*side)
    return side


def _compare_sides(lhs, rhs, params: dict) -> str:
    if lhs == rhs:
        return ""
    if isinstance(lhs, SymFunc):
        return _sym_witness(lhs, rhs)
    return (f"first differing component s[]: lhs ({qfield.render_laurent(*lhs)}) "
            f"vs rhs ({qfield.render_laurent(*rhs)})")


def _render_sides(lhs, rhs, params: dict) -> tuple[str, str]:
    """Both renders, a scalar pair as s[]*(coef) or 0; an equal rhs reuses the lhs text."""
    def render(side) -> str:
        if isinstance(side, SymFunc):
            return sf.render(side)
        poly, e = side
        return f"s[]*({qfield.render_laurent(poly, e)})" if poly else "0"
    text = render(lhs)
    return text, text if lhs == rhs else render(rhs)


# -- the identity record and its runner --------------------------------------------

@dataclass(frozen=True)
class Identity:
    """One checkable identity.

    ``sides(params)`` returns (lhs, rhs): two SymFuncs, two scalars as pairs
    (QPoly, e) standing for poly * q^e, which ``check`` puts in canonical
    form, or any pair that ``compare`` and ``render`` understand.  The
    default ``compare`` and ``render`` take every side that is not a SymFunc
    for such a pair, so a scalar of any other type is an ``error``.
    ``compare`` and ``extra`` return "" when their predicate holds and a
    witness otherwise; ``extra`` is the predicate beyond equality (hook
    support, a third route).
    """

    identity_id: str
    description: str
    sides: Callable[[dict], tuple[Any, Any]]
    hypothesis: Callable[[dict], bool]
    hypothesis_text: str
    default_cases: Callable[[int | None], Iterator[dict]]
    extra: Callable[[Any, Any, dict], str] | None = None
    compare: Callable[[Any, Any, dict], str] = _compare_sides
    render: Callable[[Any, Any, dict], tuple[str, str]] = _render_sides

    def check(self, params: dict) -> IdentityReport:
        started = time.perf_counter()
        lhs_render = rhs_render = ""
        try:
            if not self.hypothesis(params):
                status, witness = "skipped", f"hypothesis {self.hypothesis_text} fails"
            else:
                lhs, rhs = map(_scalar_pair, self.sides(params))
                failed = [self.compare(lhs, rhs, params)]
                if self.extra is not None:
                    failed.append(self.extra(lhs, rhs, params))
                witness = "; ".join(w for w in failed if w)
                status = "mismatch" if witness else "equal"
                lhs_render, rhs_render = self.render(lhs, rhs, params)
        except Exception as exc:  # an implementation limit or a fault, never a skip
            status, witness = "error", f"{type(exc).__name__}: {exc}"
        return IdentityReport(
            identity_id=self.identity_id,
            params=params,
            status=status,
            lhs_render=lhs_render,
            rhs_render=rhs_render,
            witness=witness,
            elapsed_ms=round((time.perf_counter() - started) * 1000.0, 3),
        )


# -- hypotheses, sides and extra predicates --------------------------------------------

_HOOK = "0 <= k, k+1 <= m, m < n"


def _is_hook(p: dict) -> bool:
    return 0 <= p["k"] and p["k"] + 1 <= p["m"] < p["n"]


def _hook_params(p: dict) -> do.HookParams:
    return do.HookParams(k=p["k"], m=p["m"], n=p["n"])


def _is_partition(parts) -> bool:
    return all(isinstance(x, int) and x > 0 for x in parts) and (
        list(parts) == sorted(parts, reverse=True))


def _nu(p: dict) -> Partition:
    return Partition(tuple(p["nu"]))


def _hook_support(lhs: SymFunc, rhs: SymFunc, params: dict) -> str:
    return "" if sf.is_hook_only(lhs) and sf.is_hook_only(rhs) else "support leaves the hooks"


def _kernel_route(lhs: SymFunc, rhs: SymFunc, params: dict) -> str:
    kernel = do.remmel_sum(_hook_params(params))
    if kernel == lhs:
        return ""
    return "kernel-route expansion disagrees: " + (_sym_witness(kernel, lhs) or "?")


def _moment_system(p: dict) -> tuple[tuple, tuple]:
    """prop33a at every j = 1..n: the moment vector against the coefficient vector."""
    hp = _hook_params(p)
    lhs, rhs = zip(*(do.prop33a(hp, j) for j in range(1, hp.n + 1)))
    return lhs, rhs


def _compare_moments(lhs: tuple, rhs: tuple, params: dict) -> str:
    bad = [j for j, (a, b) in enumerate(zip(lhs, rhs), start=1) if a != b]
    return f"failing j values: {bad}" if bad else ""


def _render_moments(lhs: tuple, rhs: tuple, params: dict) -> tuple[str, str]:
    n = params["n"]
    return f"moments j=1..{n}", f"length-graded coefficients j=1..{n}"


def _span_sides(p: dict) -> tuple[do.SpanReport, int]:
    """The rank of the images at a point mod 2^61-1 against the bound it must exceed.

    The rank at the point is a lower bound on the rank over Q(q,t), so rank > n
    proves the identity; ``_compare_rank`` reports any smaller rank as an error.
    """
    return do.span_rank_at_point(p["n"]), p["n"]


def _compare_rank(report: do.SpanReport, n: int, params: dict) -> str:
    if report.rank <= n:  # a lower bound that does not exceed n proves nothing
        raise ValueError(f"inconclusive: rank {report.rank} <= n = {n} at "
                         f"{do.point_label(report.point)}")
    return ""


def _render_rank(report: do.SpanReport, n: int, params: dict) -> tuple[str, str]:
    return (f"rank {report.rank} from {report.nu_count} images",
            f"required > {n}; ambient dimension p({n}) = {report.dim}; "
            f"rank at {do.point_label(report.point)}")


def _q_to_t(f: SymFunc) -> SymFunc:
    """f with q renamed t in every coefficient; f's coefficients involve q alone."""
    return SymFunc({lam: c.swapped() for lam, c in f.terms.items()})


# -- default sweeps ------------------------------------------------------------------

def _upto(first: int, default: int, at: Callable[[int], Iterable[dict]]):
    """The cases ``at(size)`` for every size first..nmax (default ``default``)."""
    def cases(nmax):
        for size in range(first, (nmax or default) + 1):
            yield from at(size)
    return cases


def _exactly(default: int, at: Callable[[int], Iterable[dict]]):
    """The cases ``at(size)`` for the one size nmax (default ``default``)."""
    return lambda nmax: iter(at(nmax or default))


def _hooks(n: int, kmin: int = 0) -> Iterator[dict]:
    """Hook parameters kmin <= k < m < n, m outer."""
    for m in range(1, n):
        for k in range(kmin, m):
            yield {"k": k, "m": m, "n": n}


def _windows(key: str, lengths: Callable[[int, int, int], Iterable[int]]):
    """Every hook of size n, each with ``key`` over ``lengths(k, m, n)``."""
    return lambda n: ({**h, key: x} for h in _hooks(n) for x in lengths(h["k"], h["m"], n))


def _kernel_indices(n: int) -> Iterator[dict]:
    return ({"n": n, "i": i} for i in range(1, n + 1))


def _all_k(n: int) -> Iterator[dict]:
    return ({"n": n, "k": k} for k in range(1, n + 1))


def _nus(sizes: Callable[[int], range]):
    """Every partition nu with |nu| in sizes(n), paired with n."""
    return lambda n: ({"nu": list(nu), "n": n} for size in sizes(n) for nu in partitions_of(size))


def _cases_cor32(nmax):
    top = nmax or 8
    for m in range(1, top + 1):
        for k in range(0, top + 1):
            for ell in range(k + 2, 11):
                yield {"k": k, "m": m, "ell": ell}


def _cases_span(nmax):
    for n in range(4, 8) if nmax is None else range(1, nmax + 1):
        yield {"n": n}


def _moment_windows(k: int, m: int, n: int) -> range:
    return range(k + 2, m + 2)


# -- registry -------------------------------------------------------------------------

_prop33b = Identity(
    "prop33b",
    "kernel-coefficient moments against shifted Pochhammers, inverse grading",
    lambda p: do.prop33b(_hook_params(p), p["ell"]),
    lambda p: _is_hook(p) and p["ell"] >= 1, _HOOK + ", ell >= 1",
    _exactly(12, _windows("ell", _moment_windows)),
)

REGISTRY: dict[str, Identity] = {
    c.identity_id: c
    for c in (
        Identity(
            "prop31",
            "alternating q-binomial sum collapses to a single product",
            lambda p: do.prop31(p["k"], p["m"], p["ell"]),
            lambda p: 0 <= p["k"] and p["k"] + 2 <= p["ell"] <= p["m"] + 1,
            "0 <= k, k+2 <= ell <= m+1",
            # size m+1
            _upto(2, 11, lambda n: ({"k": k, "m": n - 1, "ell": ell}
                                    for k in range(n - 1) for ell in range(k + 2, n + 1))),
        ),
        Identity(
            "cor32",
            "companion alternating q-binomial sum collapses to a single product",
            lambda p: do.cor32(p["k"], p["m"], p["ell"]),
            lambda p: 0 <= p["k"] and p["ell"] >= p["k"] + 2, "0 <= k, ell >= k+2",
            _cases_cor32,
        ),
        Identity(
            "prop33a",
            "kernel-coefficient moments against shifted Pochhammers, direct grading",
            lambda p: do.prop33a(_hook_params(p), p["j"]),
            lambda p: _is_hook(p) and p["j"] >= 1, _HOOK + ", j >= 1",
            _exactly(12, _windows("j", _moment_windows)),
        ),
        _prop33b,
        Identity(
            "eq10",
            "hook image: closed inverse-q expansion equals length-graded expansion "
            "and the kernel route",
            lambda p: (do.lhs_hook_closed(_hook_params(p)), do.rhs_hook(_hook_params(p))),
            _is_hook, _HOOK,
            _upto(2, 6, lambda n: _hooks(n, kmin=1)),
            extra=_kernel_route,
        ),
        Identity(
            "eq12",
            "direct length-graded expansion of h_n[X(1-q^i)]/(1-q^i)",
            lambda p: (do.shifted_cauchy(p["n"], p["i"], inverse_q=False),
                       do.hook_kernel(p["n"], p["i"])),
            lambda p: p["n"] >= 1 and p["i"] >= 1, "n >= 1, i >= 1",
            _upto(1, 7, _kernel_indices),
        ),
        Identity(
            "eq16",
            "inverse length-graded expansion of h_n[X(1-q^i)]/(1-q^i)",
            lambda p: (do.shifted_cauchy(p["n"], p["i"], inverse_q=True),
                       do.hook_kernel(p["n"], p["i"])),
            lambda p: p["n"] >= 1 and p["i"] >= 1, "n >= 1, i >= 1",
            _upto(1, 7, _kernel_indices),
        ),
        Identity(
            "eq13_system",
            "full moment system (all j) for one hook parameter pair",
            _moment_system,
            _is_hook, _HOOK,
            _exactly(12, _hooks),
            compare=_compare_moments,
            render=_render_moments,
        ),
        Identity(
            "eq17",
            "inverse-grading moments swept over every length, including out-of-range",
            _prop33b.sides,
            _prop33b.hypothesis, _prop33b.hypothesis_text,
            _exactly(12, _windows("ell", lambda k, m, n: range(1, n + 1))),
        ),
        Identity(
            "thm41",
            "eigenvalue-weighted inverse-q expansion equals the operator image",
            lambda p: (do.lhs_expansion_thm41(_nu(p), p["n"]), do.lhs_nu(_nu(p), p["n"])),
            lambda p: _is_partition(p["nu"]) and 1 <= sum(p["nu"]) < p["n"],
            "nu a partition, 1 <= |nu| < n",
            _upto(2, 5, _nus(lambda n: range(1, n))),
        ),
        Identity(
            "cor42",
            "hook case of the operator image equals the closed expansion",
            lambda p: (do.lhs_nu(_hook_params(p).nu, p["n"]),
                       do.lhs_hook_closed(_hook_params(p))),
            _is_hook, _HOOK,
            _upto(2, 5, _hooks),
        ),
        Identity(
            "thm43",
            "principal Schur evaluation equals its charge-graded double sum",
            lambda p: do.schur_principal_eval(_nu(p), p["j"]),
            lambda p: _is_partition(p["nu"]) and sum(p["nu"]) >= 1 and p["j"] >= 1,
            "nu a partition, |nu| >= 1, j >= 1",
            # size |nu|
            _upto(1, 6, lambda size: ({"nu": list(nu), "j": j}
                                      for nu in partitions_of(size) for j in range(1, 9))),
        ),
        Identity(
            "thm44",
            "operator image equals the direct-q length-graded expansion",
            lambda p: (do.lhs_nu(_nu(p), p["n"]), do.rhs_nu(_nu(p), p["n"])),
            lambda p: _is_partition(p["nu"]) and 1 <= sum(p["nu"]) <= p["n"],
            "nu a partition, 1 <= |nu| <= n",
            _upto(1, 5, _nus(lambda n: range(1, n + 1))),
            extra=_hook_support,
        ),
        Identity(
            "ghry23",
            "two expansions of the length-k Hall-Littlewood aggregate, hook support",
            lambda p: do.ghry_sides(p["n"], p["k"]),
            lambda p: 1 <= p["k"] <= p["n"], "1 <= k <= n",
            _upto(1, 6, _all_k),
            extra=_hook_support,
        ),
        Identity(
            "hook_support",
            "h_n[X(1-q^u)] is supported on hooks with alternating coefficients",
            lambda p: (do.h_plethysm(p["n"], p["u"]),
                       do.hook_kernel(p["n"], p["u"], qpoch_poly(p["u"], 1))),
            lambda p: p["n"] >= 1 and p["u"] >= 1, "n >= 1, u >= 1",
            _upto(1, 8, lambda n: ({"n": n, "u": u} for u in (1, 2, 3))),
            extra=_hook_support,
        ),
        Identity(
            "deltaconj_t0",
            "rise-product parking sum at t=0 equals the primed operator image",
            # the operator for e_(k-1) = s_(1^(k-1))
            lambda p: (pk.delta_side_combinatorial(p["n"], p["k"], t_zero=True),
                       do.delta_prime_t0((1,) * (p["k"] - 1), p["n"])),
            lambda p: 1 <= p["k"] <= p["n"], "1 <= k <= n",
            _upto(1, 6, _all_k),
        ),
        Identity(
            "deltaconj_q0",
            "rise-product parking sum at q=0 equals the renamed t=0 operator image",
            lambda p: (pk.delta_side_combinatorial(p["n"], p["k"], q_zero=True),
                       _q_to_t(do.delta_prime_t0((1,) * (p["k"] - 1), p["n"]))),
            lambda p: 1 <= p["k"] <= p["n"], "1 <= k <= n",
            _upto(1, 5, _all_k),
        ),
        Identity(
            "wmu_consistency",
            "closed t=0 normalization factor equals its cell-product form",
            lambda p: (hl.w_t0(Partition(tuple(p["mu"]))),
                       hl.w_t0_cell_product(Partition(tuple(p["mu"])))),
            lambda p: _is_partition(p["mu"]) and sum(p["mu"]) >= 1,
            "mu a partition, |mu| >= 1",
            _upto(1, 6, lambda n: ({"mu": list(mu)} for mu in partitions_of(n))),
        ),
        Identity(
            "span_dim",
            "plain-Delta images span more than n dimensions",
            _span_sides,
            # below 4, rank <= p(n) <= n by counting dimensions
            lambda p: p["n"] >= 4, "n >= 4",
            _cases_span,
            compare=_compare_rank,
            render=_render_rank,
        ),
    )
}


SUITES: dict[str, tuple[str, ...]] = {
    "qbinom": ("prop31", "cor32", "prop33a", "prop33b"),
    "hook": ("eq10", "eq13_system", "eq17", "cor42", "hook_support"),
    "kernels": ("eq12", "eq16", "ghry23"),
    "nu": ("thm41", "thm43", "thm44"),
    "t0-delta": ("deltaconj_t0",),
    "q0-delta": ("deltaconj_q0",),
    "consistency": ("wmu_consistency",),
    "span": ("span_dim",),
}
SUITES["all"] = tuple(i for name in
                      ("qbinom", "hook", "kernels", "nu", "t0-delta",
                       "q0-delta", "consistency", "span")
                      for i in SUITES[name])


def run_one(identity_id: str, params: dict) -> IdentityReport:
    entry = REGISTRY.get(identity_id)
    if entry is None:
        raise KeyError(f"unknown identity id {identity_id!r}")
    return entry.check(params)


def run_suite(suite: str = "all", identity_id: str | None = None,
              params: dict | None = None, nmax: int | None = None) -> list[IdentityReport]:
    """Check one identity, or every identity of a suite, in registry order.

    With ``params`` every identity runs that one case; otherwise each runs its
    default sweep, capped by ``nmax``; an ``nmax`` below 1 is a ValueError.
    """
    if nmax is not None and nmax < 1:
        raise ValueError(f"nmax must be at least 1, got {nmax}")
    if identity_id is not None:
        ids: Iterable[str] = (identity_id,)
    elif suite in SUITES:
        ids = SUITES[suite]
    else:
        raise KeyError(f"unknown suite {suite!r}")
    reports: list[IdentityReport] = []
    for name in ids:
        cases = [params] if params is not None else REGISTRY[name].default_cases(nmax)
        reports.extend(run_one(name, case) for case in cases)
    return reports


def write_jsonl(reports: list[IdentityReport], path: str) -> None:
    with open(path, "w") as fh:
        for report in reports:
            fh.write(report.to_json() + "\n")


def summarize(reports: list[IdentityReport]) -> dict[str, int]:
    counts = dict.fromkeys(STATUSES, 0)
    for report in reports:
        counts[report.status] += 1
    return counts
