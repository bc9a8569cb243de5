"""Acceptance gate: one printed pass/fail line per criterion.

Every criterion is an exact-equality sweep (no numeric tolerances anywhere);
lines go to the real stdout so they stay visible under pytest capture.  The
identity ids in the lines are the registry ids from deltaq.verify.
"""

import time

import pytest

from filter_route import counts_aggregate, from_fundamentals, fundamental_monomials
from references import ONE, ZERO, basis_convert, coef, dominates, kf_table, sym

from deltaq import delta_ops as do, hall_littlewood as hl, parking
from deltaq import symfunc as sf
from deltaq import verify as ver
from deltaq.parking import DyckPath
from deltaq.partition import Partition, partitions_of
from deltaq.qfield import QPoly, q


@pytest.fixture
def verdict(capsys):
    """Print one pass/fail line outside pytest capture, then assert."""

    def _verdict(name: str, ok: bool, detail: str, elapsed: float,
                 budget: float | None = None):
        within = budget is None or elapsed < budget
        line = f"{'PASS' if ok and within else 'FAIL'} {name}: {detail} [{elapsed:.1f}s"
        if budget is not None:
            line += f", budget {budget:.0f}s"
        line += "]"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, f"{name}: {detail}"
        assert within, f"{name}: {elapsed:.1f}s exceeded the {budget:.0f}s budget"

    return _verdict


def _sweep(*identity_ids: str) -> tuple[dict, list[str]]:
    counts = dict.fromkeys(ver.STATUSES, 0)
    bad: list[str] = []
    for identity_id in identity_ids:
        entry = ver.REGISTRY[identity_id]
        for params in entry.default_cases(None):
            report = ver.run_one(identity_id, params)
            counts[report.status] += 1
            if report.status != "equal":
                bad.append(f"{identity_id} {params} {report.status}: {report.witness}")
    return counts, bad


def _clean(counts: dict, bad: list[str]) -> tuple[bool, str]:
    ok = counts["equal"] == sum(counts.values())
    detail = f"{counts['equal']} cases all equal"
    if not ok:
        detail = "; ".join(bad[:3]) or str(counts)
    return ok, detail


def test_prop31_alternating_sum(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("prop31")
    ok, detail = _clean(counts, bad)
    verdict("prop31", ok, f"k+2<=ell<=m+1<=11, {detail}",
             time.perf_counter() - started, budget=10)


def test_cor32_companion_sum(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("cor32")
    ok, detail = _clean(counts, bad)
    # outside ell >= k+2 the identity is false; keep the counterexample visible
    lhs, rhs = do.cor32(1, 1, 1)
    ok = ok and lhs == QPoly([-1], 2) and rhs == QPoly()
    verdict("cor32", ok, f"m,k<=8, k+2<=ell<=10, {detail}; "
             "counterexample at ell<k+2 confirmed",
             time.perf_counter() - started, budget=10)


def test_kernel_coefficient_moments(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("prop33a", "prop33b", "eq13_system", "eq17")
    ok, detail = _clean(counts, bad)
    verdict("prop33a/prop33b/eq13_system/eq17", ok,
             f"n=12 hooks, moment windows plus full ell=1..12 sweep, {detail}",
             time.perf_counter() - started, budget=30)


def test_shifted_cauchy_expansions(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("eq12", "eq16")
    ok, detail = _clean(counts, bad)
    verdict("eq12/eq16", ok,
             f"direct and inverse expansions hit h_n[X(1-q^i)]/(1-q^i), "
             f"n<=7, i<=n, {detail}",
             time.perf_counter() - started, budget=120)


def test_hook_image_three_routes(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("eq10")
    ok, detail = _clean(counts, bad)
    verdict("eq10", ok,
             f"closed, length-graded, and kernel routes agree, "
             f"1<=k<=m-1<n<=6, {detail}",
             time.perf_counter() - started, budget=300)


def test_general_nu_expansion(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("thm41")
    ok, detail = _clean(counts, bad)
    verdict("thm41", ok, f"1<=|nu|<=n-1, n<=5, {detail}",
             time.perf_counter() - started, budget=300)


def test_hook_specialization_of_expansion(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("cor42")
    ok, detail = _clean(counts, bad)
    verdict("cor42", ok, f"hook nu, all valid (k,m), n<=5, {detail}",
             time.perf_counter() - started)


def test_principal_evaluation_routes(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("thm43")
    ok, detail = _clean(counts, bad)
    verdict("thm43", ok, f"|nu|<=6, 1<=j<=8, {detail}",
             time.perf_counter() - started, budget=60)


def test_general_nu_hook_support(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("thm44")
    ok, detail = _clean(counts, bad)
    verdict("thm44", ok,
             f"lhs_nu = rhs_nu and both hook-only, 1<=|nu|<=n<=5, {detail}",
             time.perf_counter() - started)


def test_length_aggregates(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("ghry23")
    ok, detail = _clean(counts, bad)
    verdict("ghry23", ok, f"both sides equal and hook-only, n<=6, k<=n, {detail}",
             time.perf_counter() - started)


def test_hook_expansion_of_scaled_h(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("hook_support")
    ok, detail = _clean(counts, bad)
    verdict("hook_support", ok,
             f"h_n[X(1-u)] = (1-u) sum (-u)^s s_(n-s,1^s), n<=8, "
             f"u in {{q,q^2,q^3}}, {detail}",
             time.perf_counter() - started)


def test_delta_identity_t0(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("deltaconj_t0")
    ok, detail = _clean(counts, bad)
    verdict("deltaconj_t0", ok,
             f"combinatorial side = primed-Delta image at t=0, n<=6, all k, {detail}",
             time.perf_counter() - started, budget=600)


def test_delta_identity_q0(verdict):
    started = time.perf_counter()
    counts, bad = _sweep("deltaconj_q0")
    ok, detail = _clean(counts, bad)
    verdict("deltaconj_q0", ok,
             f"combinatorial side at q=0 = renamed t=0 operator image, n<=5, {detail}",
             time.perf_counter() - started, budget=600)


def test_llt_symmetry(verdict):
    started = time.perf_counter()
    paths = 0
    bad: list[str] = []
    for n in range(1, 7):
        for path in DyckPath.all_paths(n):
            agg = counts_aggregate(path)
            mono: dict = {}
            for alpha, coeffs in agg.items():
                for expvec, c in fundamental_monomials(alpha, n).items():
                    slot = mono.setdefault(expvec, {})
                    for key, ct in coeffs.items():
                        slot[key] = slot.get(key, 0) + c * ct
            # raises if the aggregate is asymmetric
            if parking._monomials_to_symfunc(mono, n) != from_fundamentals(agg):
                bad.append(str(path.areas))
            paths += 1
    verdict("llt_symmetry", not bad,
             "every per-path aggregate symmetric and equal to its straightening, "
             f"n<=6 ({paths} paths)" + ("" if not bad else " -- " + "; ".join(bad[:3])),
             time.perf_counter() - started)


def test_span_rank_exceeds_n(verdict):
    started = time.perf_counter()
    details = []
    ok = True
    for params in ver.REGISTRY["span_dim"].default_cases(None):
        report = ver.run_one("span_dim", params)
        ok = ok and report.status == "equal"
        details.append(f"n={params['n']}: {report.status}, {report.lhs_render}")
    verdict("span_dim", ok, "; ".join(details), time.perf_counter() - started)


def test_infrastructure(verdict):
    started = time.perf_counter()
    problems: list[str] = []

    # basis-conversion round trips through the Schur basis, degrees <= 8
    for n in range(1, 9):
        for basis in "mehp":
            for lam in partitions_of(n):
                f = sym(basis, {lam: 1})
                if basis_convert(f, basis) != {lam: ONE}:
                    problems.append(f"round trip {basis} {lam.render()}")

    # Kostka-Foulkes unitriangularity and positivity, degrees <= 8
    for n in range(1, 9):
        for (lam, mu), kf in kf_table(n).items():
            if lam == mu:
                if kf != ONE:
                    problems.append(f"diagonal {lam.render()}")
            elif not dominates(lam, mu):
                if kf != ZERO:
                    problems.append(f"triangularity {lam.render()},{mu.render()}")
            if kf != ZERO:
                if kf.denom != ONE.numer or any(
                    int(c) <= 0 or et for (_, et), c in kf.numer.terms()
                ):
                    problems.append(f"positivity {lam.render()},{mu.render()}")

    # Cauchy kernel: sum_lam P_lam (x) Q_lam diagonalizes over power sums, n <= 5
    for n in range(1, 6):
        parts = partitions_of(n)
        pairing: dict[tuple[Partition, Partition], object] = {}
        for lam in parts:
            pp = basis_convert(hl.hl_P(lam), "p")
            qq = basis_convert(hl.hl_Q(lam), "p")
            for r1, c1 in pp.items():
                for r2, c2 in qq.items():
                    pairing[(r1, r2)] = pairing.get((r1, r2), ZERO) + c1 * c2
        for r1 in parts:
            for r2 in parts:
                got = pairing.get((r1, r2), ZERO)
                if r1 != r2:
                    expected = ZERO
                else:
                    expected = ONE / coef(sf.zee(r1))
                    for part in r1:
                        expected *= ONE - q**part
                if got != expected:
                    problems.append(f"cauchy {r1.render()},{r2.render()}")

    # dual displays of the t=0 w weight, n <= 6
    problems.extend(_sweep("wmu_consistency")[1])

    verdict("infrastructure", not problems,
             "round trips deg<=8; Kostka-Foulkes unitriangular/positive deg<=8; "
             "Cauchy kernel n<=5; w dual displays n<=6"
             + ("" if not problems else " -- " + "; ".join(problems[:3])),
             time.perf_counter() - started)
