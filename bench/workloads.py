"""The benchmark's workloads: fixed case sets and their independent output checks.

Each workload is a fixed list of ``(identity id, parameters)`` cases, every one
inside its identity's hypothesis, so each must verify ``equal``.  The lists are
written out here rather than taken from ``verify.REGISTRY``'s default sweeps,
so a change to those sweeps cannot change what the benchmark measures.

Every case carries a size n (see ``FAMILIES``).  The cases at a family's
largest size in the workload are its *top* cases; their time is ``top_n_s``.

A check receives the reports of one round, in workload order, and returns a
list of problems.  It compares deltaq's output against values from
:mod:`reference`, which never calls deltaq; where it needs more output than
the reports carry, it calls deltaq after the timed rounds.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator

import reference as ref


@dataclass(frozen=True)
class Case:
    identity: str
    params: dict
    size: int
    top: bool


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[tuple[str, tuple[int, ...]], ...]  # (identity id, sizes)
    check: Callable[[list[Case], list], list[str]]

    def cases(self, seed: int) -> list[Case]:
        """The case set, smallest size first; the seed shuffles cases of equal size.

        Within one size the non-top cases run first, so a cache shared between
        a top case and a smaller family's case of the same size is always filled
        outside ``top_n_s``, whatever the seed.
        """
        out = [Case(identity, params, n, n == max(sizes))
               for identity, sizes in self.families
               for n in sizes for params in FAMILIES[identity](n)]
        rng = random.Random(seed)
        keyed = [(case.size, case.top, rng.random(), i, case) for i, case in enumerate(out)]
        return [row[-1] for row in sorted(keyed)]


# -- the cases of each identity family at one size n ---------------------------------

def _hooks(n: int) -> Iterator[tuple[int, int]]:
    for m in range(1, n):
        for k in range(0, m):
            yield k, m


def prop31(n):
    m = n - 1
    for k in range(0, m):
        for ell in range(k + 2, m + 2):
            yield {"k": k, "m": m, "ell": ell}


def cor32(n):
    for m in range(1, n + 1):
        for k in range(0, n + 1):
            if max(m, k) == n:
                for ell in range(k + 2, 11):
                    yield {"k": k, "m": m, "ell": ell}


def prop33a(n):
    for k, m in _hooks(n):
        for j in range(k + 2, m + 2):
            yield {"k": k, "m": m, "n": n, "j": j}


def prop33b(n):
    for k, m in _hooks(n):
        for ell in range(k + 2, m + 2):
            yield {"k": k, "m": m, "n": n, "ell": ell}


def eq13_system(n):
    for k, m in _hooks(n):
        yield {"k": k, "m": m, "n": n}


def eq17(n):
    for k, m in _hooks(n):
        for ell in range(1, n + 1):
            yield {"k": k, "m": m, "n": n, "ell": ell}


def eq10(n):
    for m in range(2, n):
        for k in range(1, m):
            yield {"k": k, "m": m, "n": n}


def cor42(n):
    for k, m in _hooks(n):
        yield {"k": k, "m": m, "n": n}


def hook_support(n):
    for u in (1, 2, 3):
        yield {"n": n, "u": u}


def eq12(n):
    for i in range(1, n + 1):
        yield {"n": n, "i": i}


def ghry23(n):
    for k in range(1, n + 1):
        yield {"n": n, "k": k}


def thm41(n):
    for size in range(1, n):
        for nu in ref.partitions(size):
            yield {"nu": list(nu), "n": n}


def thm43(n):
    for nu in ref.partitions(n):
        for j in range(1, 9):
            yield {"nu": list(nu), "j": j}


def thm44(n):
    for size in range(1, n + 1):
        for nu in ref.partitions(size):
            yield {"nu": list(nu), "n": n}


def wmu_consistency(n):
    for mu in ref.partitions(n):
        yield {"mu": list(mu)}


def all_k(n):
    for k in range(1, n + 1):
        yield {"n": n, "k": k}


def span_dim(n):
    if n >= 4:  # below 4, rank <= p(n) <= n by dimension count: outside the hypothesis
        yield {"n": n}


# Identity id -> the cases of that identity at size n.  The size is the n of the
# family's sweep; for prop31 it is m + 1, for cor32 max(m, k), for thm43 |nu|
# and for wmu_consistency |mu|.
FAMILIES: dict[str, Callable[[int], Iterator[dict]]] = {
    "prop31": prop31, "cor32": cor32, "prop33a": prop33a, "prop33b": prop33b,
    "eq13_system": eq13_system, "eq17": eq17, "eq10": eq10, "cor42": cor42,
    "hook_support": hook_support, "eq12": eq12, "eq16": eq12, "ghry23": ghry23,
    "thm41": thm41, "thm43": thm43, "thm44": thm44, "wmu_consistency": wmu_consistency,
    "deltaconj_t0": all_k, "deltaconj_q0": all_k, "span_dim": span_dim,
}


# -- independent output checks ------------------------------------------------------

POINTS = (Fraction(2), Fraction(3))


def check_qbinom(cases, reports) -> list[str]:
    """Both sides of prop31/cor32 at q = 2 and q = 3 against the product formula."""
    sides = {"prop31": ref.prop31_sides, "cor32": ref.cor32_sides}
    problems = []
    for case, report in zip(cases, reports):
        formula = sides.get(case.identity)
        if formula is None or report is None:  # a raising case is already counted as failed
            continue
        p = case.params
        for x in POINTS:
            want = formula(p["k"], p["m"], p["ell"], x)
            got = (ref.scalar(report.lhs_render, x), ref.scalar(report.rhs_render, x))
            if got != want:
                problems.append(f"{case.identity} {p} at q={x}: got {got}, want {want}")
    return problems


def check_hl(cases, reports) -> list[str]:
    """P_mu at q=0 is s_mu, and sum_lam f^lam K_(lam,1^n)(1) = n!, for n <= 7."""
    from deltaq import hall_littlewood as hl
    from deltaq import qfield, symfunc as sf

    problems = []
    for n in range(1, 8):
        for mu in ref.partitions(n):
            terms = ref.schur_terms(sf.render(hl.hl_P(mu)))
            at_zero = {lam: ref.evaluate(c, Fraction(0)) for lam, c in terms.items()}
            if {lam: v for lam, v in at_zero.items() if v} != {mu: 1}:
                problems.append(f"P_{list(mu)} at q=0 is not s_{list(mu)}")
        column = (1,) * n
        total = sum(
            ref.standard_tableaux_count(lam)
            * ref.evaluate(qfield.render(hl.kostka_foulkes(lam, column)), Fraction(1))
            for lam in ref.partitions(n)
        )
        if total != factorial(n):
            problems.append(f"sum f^lam K_(lam,1^{n})(1) = {total}, want {factorial(n)}")
    return problems


def check_parking(cases, reports) -> list[str]:
    """Paths per n are Catalan(n) and parking functions per n are (n+1)^(n-1)."""
    from deltaq import parking as pk

    problems = []
    for n in range(1, 8):
        paths = pk.DyckPath.all_paths(n)
        pfs = sum(len(pk.ParkingFunction.all_on(path)) for path in paths)
        if len(paths) != ref.catalan(n):
            problems.append(f"{len(paths)} Dyck paths at n={n}, want {ref.catalan(n)}")
        if pfs != ref.parking_function_count(n):
            problems.append(f"{pfs} parking functions at n={n}, want {ref.parking_function_count(n)}")
    return problems


SPAN_POINT = (Fraction(2, 3), Fraction(5, 7))
_RANK = re.compile(r"rank (\d+) from (\d+) images")


def check_span(cases, reports) -> list[str]:
    """n < rank <= p(n), and rank >= the rank of the same images at (q,t) = (2/3, 5/7)."""
    from deltaq import delta_ops as do
    from deltaq import qfield, symfunc as sf

    problems = []
    for case, report in zip(cases, reports):
        if report is None:
            continue
        n = case.params["n"]
        found = _RANK.fullmatch(report.lhs_render)
        if found is None:
            problems.append(f"span_dim n={n}: unreadable report {report.lhs_render!r}")
            continue
        rank, used = int(found[1]), int(found[2])
        basis = ref.partitions(n)
        if not n < rank <= len(basis):
            problems.append(f"span_dim n={n}: rank {rank} outside ({n}, p({n}) = {len(basis)}]")
        nus = [nu for size in range(1, n + 1) for nu in ref.partitions(size)][:used]
        rows = []
        for nu in nus:
            image = do.delta_full(sf.s(nu), n, prime=False)
            coeffs = {tuple(lam): qfield.render(c) for lam, c in image.terms.items()}
            rows.append([ref.evaluate(coeffs[lam], *SPAN_POINT) if lam in coeffs else Fraction(0)
                         for lam in basis])
        at_point = ref.fraction_rank(rows)
        if rank < at_point:
            problems.append(f"span_dim n={n}: rank {rank} below rank {at_point} at {SPAN_POINT}")
    return problems


def _sizes(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(range(lo, hi + 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("qbinom-moments",
                 (("prop31", _sizes(2, 11)), ("cor32", _sizes(1, 8)), ("prop33a", (12,)),
                  ("prop33b", (12,)), ("eq13_system", (12,)), ("eq17", (12,))),
                 check_qbinom),
        Workload("hl-expansions",
                 (("eq10", _sizes(3, 7)), ("cor42", _sizes(2, 6)),
                  ("hook_support", _sizes(1, 8)), ("eq12", _sizes(1, 7)),
                  ("eq16", _sizes(1, 7)), ("ghry23", _sizes(1, 6)), ("thm41", _sizes(2, 6)),
                  ("thm43", _sizes(1, 6)), ("thm44", _sizes(1, 6)),
                  ("wmu_consistency", _sizes(1, 7))),
                 check_hl),
        Workload("parking-side",
                 (("deltaconj_t0", _sizes(1, 7)), ("deltaconj_q0", _sizes(1, 6))),
                 check_parking),
        Workload("span-rank", (("span_dim", (4, 5)),), check_span),
    )
}
