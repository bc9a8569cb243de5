"""Tests for the Delta operators and the expansions built on top of them.

Small-degree sweeps live here; the wide parameter sweeps with their time
budgets are in test_acceptance.py.
"""

import pytest
from hypothesis import given, settings, strategies as st

import field_route
import references
from references import (FIELD, ONE, ZERO, field, from_poly, is_canonical, lincomb,
                        poly_sum, subs_coeffs, to_field)
from deltaq import delta_ops as d, hall_littlewood as hl, qfield, symfunc as sf
from deltaq.delta_ops import HookParams
from deltaq.partition import Partition, partitions_of
from deltaq.qfield import Coef, QPoly, q, t
from deltaq.symfunc import SymFunc


def all_hooks(n: int):
    for m in range(1, n):
        for k in range(0, m):
            yield HookParams(k=k, m=m, n=n)


def small_nus(n: int):
    for size in range(1, n):
        yield from partitions_of(size)


class TestHookParams:
    def test_nu_shape(self):
        assert HookParams(k=0, m=1, n=2).nu == Partition((1,))
        assert HookParams(k=2, m=4, n=5).nu == Partition((2, 1, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            HookParams(k=-1, m=1, n=3)
        with pytest.raises(ValueError):
            HookParams(k=2, m=2, n=5)  # hook with no positive first part
        with pytest.raises(ValueError):
            HookParams(k=0, m=3, n=3)  # hook not smaller than the degree


class TestOperators:
    def test_base_case_frozen(self):
        # the smallest case, where every route must produce (1-q)(1-q^2) s_(1,1)
        expected = SymFunc({Partition((1, 1)): Coef({(0, 0): 1, (1, 0): -1, (2, 0): -1,
                                                     (3, 0): 1})})
        assert field(expected) == lincomb(((ONE - q) * (ONE - q**2), sf.s((1, 1))))
        params = HookParams(k=0, m=1, n=2)
        assert d.lhs_nu((1,), 2) == expected
        assert d.lhs_hook_closed(params) == expected
        assert d.rhs_hook(params) == expected
        assert d.remmel_sum(params) == expected
        assert d.lhs_expansion_thm41((1,), 2) == expected
        assert d.rhs_nu((1,), 2) == expected

    def test_nabla_e2_frozen(self):
        # e_2 = s_(1,1)
        assert field(d.delta_full(sf.s((1, 1)), 2, prime=False)) == lincomb(
            (1, sf.s(2)), (q + t, sf.s((1, 1))))

    def test_prime_shift_on_top_degree(self):
        # Delta for e_n and primed Delta for e_(n-1) agree on e_n; e_k = s_(1^k)
        for n in range(2, 5):
            assert d.delta_full(sf.s((1,) * n), n, prime=False) == d.delta_full(
                sf.s((1,) * (n - 1)), n, prime=True
            )

    def test_laurent_coefficients_of_f_scale_the_image(self):
        # Delta is linear in f: negative exponents of f's coefficients are cleared and restored
        c = Coef({(-1, 2): 3, (0, -1): -1})
        for n in range(1, 4):
            for nu in small_nus(n + 1):
                for prime in (True, False):
                    got = d.delta_full(SymFunc({nu: c}), n, prime=prime)
                    want = lincomb((c, d.delta_full(sf.s(nu), n, prime=prime)))
                    assert field(got) == want, (nu, n, prime)

    def test_t0_specializes_full(self):
        for n in range(1, 5):
            for nu in small_nus(n):
                full = d.delta_full(sf.s(nu), n, prime=True)
                assert subs_coeffs(full, t_image=ZERO) == field(d.delta_prime_t0(nu, n))

    def test_cell_eigenvalue_matches_evaluate(self):
        # s_nu[B_mu] and s_nu[B_mu - 1] against the power-sum evaluation at the field alphabet
        for size in range(1, 6):
            for mu in partitions_of(size):
                b = sum((q**j * t**i for i, j in mu.cells()), ZERO)
                for nu_size in range(1, 6):
                    for nu in partitions_of(nu_size):
                        f, one = sf.s(nu), {nu: qfield.RING.one}
                        assert FIELD(d._cell_eigenvalue(one, mu, False)) == field_route.evaluate(f, b)
                        assert (FIELD(d._cell_eigenvalue(one, mu, True))
                                == field_route.evaluate(f, b - ONE))

    def test_ring_numerators_clear_negative_exponents(self):
        coeffs = [Coef({(-2, 0): 5, (1, -1): 1}), Coef({(3, 2): -1}), qfield.ZERO]
        numers, (a, b) = d._ring_numerators(coeffs)
        assert (a, b) == (2, 1)
        assert [FIELD(x) for x in numers] == [q**2 * t * to_field(c) for c in coeffs]
        assert d._ring_numerators([Coef({(3, 2): -1})])[1] == (0, 0)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            d.delta_prime_t0((1,), 0)
        with pytest.raises(ValueError):
            d.delta_full(sf.s(1), 0)


class TestHookExpansions:
    def test_operator_matches_closed_form(self):
        for n in range(2, 5):
            for params in all_hooks(n):
                assert d.lhs_nu(params.nu, n) == d.lhs_hook_closed(params)

    def test_closed_form_matches_length_graded(self):
        for n in range(2, 5):
            for params in all_hooks(n):
                assert d.lhs_hook_closed(params) == d.rhs_hook(params)

    def test_kernel_route(self):
        for n in range(2, 5):
            for params in all_hooks(n):
                image = d.remmel_sum(params)
                assert image == d.lhs_hook_closed(params)
                assert sf.is_hook_only(image)

    def test_remmel_coeff_support(self):
        params = HookParams(k=1, m=3, n=5)
        assert field_route.remmel_coeff(0, params) == ZERO
        assert field_route.remmel_coeff(params.m + 2, params) == ZERO
        assert field_route.remmel_coeff(params.m + 1, params) != ZERO

    def test_hook_kernel(self):
        # n <= 8 and i <= 3 is hook_support's default sweep
        for n in range(1, 9):
            for i in (1, 2, 3):
                kernel = d.hook_kernel(n, i)
                assert sf.is_hook_only(kernel)
                u = q**i
                image = field_route.plethysm(references.h(n), ONE - u)
                assert field(kernel) == lincomb((ONE / (ONE - u), image))
                assert field(d.h_plethysm(n, i)) == image, (n, i)
                # with the factor 1 - q^i, the kernel is h_n[X(1-q^i)] (hook_support's rhs)
                assert d.hook_kernel(n, i, qfield.qpoch_poly(i, 1)) == d.h_plethysm(n, i), (n, i)


class TestScalarIdentities:
    def test_prop31(self):
        for m in range(1, 7):
            for k in range(0, m):
                for ell in range(k + 2, m + 2):
                    lhs, rhs = d.prop31(k, m, ell)
                    assert lhs == rhs, (k, m, ell)

    def test_cor32_in_hypothesis(self):
        for m in range(1, 6):
            for k in range(0, m):
                for ell in range(k + 2, 9):
                    lhs, rhs = d.cor32(k, m, ell)
                    assert lhs == rhs, (k, m, ell)

    def test_cor32_needs_ell_at_least_k_plus_2(self):
        # frozen counterexample just outside the hypothesis: -q^2 against 0
        lhs, rhs = d.cor32(1, 1, 1)
        assert lhs == QPoly([-1], 2)
        assert rhs == QPoly()
        assert field_route.cor32(1, 1, 1) == (-(q**2), ZERO)

    def test_sides_are_canonical_pairs_of_the_field_values(self):
        # inside and outside each hypothesis, so unequal and zero sides occur too
        sides = [(d.prop31(k, m, ell), field_route.prop31(k, m, ell))
                 for m in range(1, 6) for k in range(0, m + 1) for ell in range(0, m + 3)]
        sides += [(d.cor32(k, m, ell), field_route.cor32(k, m, ell))
                  for m in range(1, 5) for k in range(0, 5) for ell in range(0, 8)]
        for params in (p for n in range(2, 6) for p in all_hooks(n)):
            for j in range(1, params.n + 2):
                sides.append((d.prop33a(params, j), (
                    field_route.kernel_moment(params, 1 - j, j - 1),
                    field_route.rhs_hook_coeff(params, j))))
                sides.append((d.prop33b(params, j), (
                    field_route.kernel_moment(params, 1, j - 1),
                    field_route.lhs_hook_coeff(params, j))))
        for polys, values in sides:
            for poly, value in zip(polys, values):
                assert is_canonical(poly)
                assert from_poly(poly) == value
        assert sum(not poly for polys, _ in sides for poly in polys) > 0

    def test_prop33_moments(self):
        for n in range(2, 5):
            for params in all_hooks(n):
                for j in range(1, params.m + 3):
                    lhs, rhs = d.prop33a(params, j)
                    assert lhs == rhs, (params, j)
                for ell in range(1, params.m + 3):
                    lhs, rhs = d.prop33b(params, ell)
                    assert lhs == rhs, (params, ell)


class TestRingRoute:
    """The ring-built moments and coefficients against the field route."""

    def test_kernel_moment_matches_field_sum(self):
        # the moments do not depend on n, so the hooks of n = 9 cover every n <= 9
        n = 9
        for params in all_hooks(n):
            for window in range(1, n + 1):
                for shift, length in ((1 - window, window - 1), (1, window - 1)):
                    got = d._kernel_moment(params, shift, length)
                    assert is_canonical(got), (params, shift, length)
                    assert from_poly(got) == (
                        field_route.kernel_moment(params, shift, length)), (params, shift, length)

    def test_kernel_moment_rejects_other_windows(self):
        with pytest.raises(ValueError):
            d._kernel_moment(HookParams(k=0, m=1, n=2), 2, 1)

    def test_remmel_coeff_matches_field_formula(self):
        for params in all_hooks(7):
            k, m = params.k, params.m
            for s in range(0, m + 3):
                want = ZERO
                if 1 <= s <= m + 1:
                    i = m + 1 - s
                    want = ((-1) ** i * q ** (i * (i - 1) // 2 - (k + 1) * m + k * (k + 1) // 2)
                            * field_route.qbinom(m - 1, k) * field_route.qbinom(k + 2, i)
                            * (ONE - q**s))
                assert field_route.remmel_coeff(s, params) == want, (params, s)

    def test_remmel_sum_matches_field_sum(self):
        for n in range(2, 9):
            for params in all_hooks(n):
                assert field(d.remmel_sum(params)) == field_route.remmel_sum(params), params

    def test_lhs_nu_matches_field_plethysm(self):
        # every nu up to |nu| = n + 2, so images that vanish are covered too
        zeros = 0
        for n in range(1, 8):
            for size in range(1, n + 3):
                for nu in partitions_of(size):
                    got = d.lhs_nu(nu, n)
                    assert field(got) == field_route.lhs_nu(nu, n), (nu, n)
                    zeros += not got
        assert zeros > 0


class TestLengthTables:
    """The length-graded t=0 tables and the sums over them against the per-mu field route."""

    def test_graded_P_sums_the_p_table_by_length(self):
        # every entry for n <= 10, past the n <= 7 that the report digests reach:
        # sum_{l(mu)=l} q^(n(mu)) P_mu and sum_{l(mu)=l} q^(-n(mu)) P_mu[X;1/q]
        for n in range(11):
            sums = {False: {}, True: {}}
            for mu, row in hl._p_table(n).items():
                for lam, c in row.items():
                    for inverse_q, term in ((False, c.shift(mu.nstat())),
                                            (True, qfield.reverse(c).shift(-mu.nstat()))):
                        part = sums[inverse_q].setdefault(len(mu), {})
                        part[lam] = poly_sum((part.get(lam, QPoly()),), (term,))
            for inverse_q, want in sums.items():
                want = {ell: {lam: c for lam, c in part.items() if c} for ell, part in want.items()}
                assert d._graded_P(n, inverse_q) == want, (n, inverse_q)

    def test_operator_table_matches_per_mu_sum(self):
        for n in range(1, 9):
            table = d._t0_operator_table(n)
            assert sorted(table) == list(range(1, n + 1))
            for ell, part in table.items():
                got = {lam: from_poly(poly) for lam, poly in part.items()}
                assert got == field_route.operator_table(n, ell).terms, (n, ell)

    def test_lhs_table_matches_field_plethysm(self):
        for n in range(1, 8):
            table = d._lhs_table(n)
            assert sorted(table) == list(range(1, n + 1))
            for ell, part in table.items():
                got = {lam: from_poly(poly) for lam, poly in part.items()}
                want = field_route.plethysm(
                    references.omega(field_route.operator_table(n, ell)), ONE - q)
                assert got == want.terms, (n, ell)

    def test_lhs_table_matches_the_character_plethysm(self):
        # past the field route's n <= 7: omega of the operator table, then X -> X(1-q) by
        # the integer characters, against the reversed Jing columns, n = 8..10
        for n in range(8, 11):
            want = {ell: references.plethysm_one_minus_q({lam.conjugate(): c
                                                          for lam, c in row.items()})
                    for ell, row in d._t0_operator_table(n).items()}
            assert d._lhs_table(n) == want, n

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_table_sum_matches_field_sum(self, data):
        # lengths 1 and 2 have nonzero c_l, length 3 may have c_l = 0 and length 4 has;
        # the products of s_(3) at lengths 1 and 2 cancel exactly
        polys = st.builds(QPoly, st.lists(st.integers(-3, 3), max_size=4), st.integers(-4, 4))
        c1, c2 = data.draw(st.lists(polys.filter(bool), min_size=2, max_size=2))
        coeffs = {1: c1, 2: c2, 3: data.draw(polys), 4: QPoly()}
        cancel, *shapes = partitions_of(3)
        table = {ell: data.draw(st.dictionaries(st.sampled_from(shapes), polys))
                 for ell in coeffs}
        a = data.draw(polys.filter(bool))
        table[1][cancel] = poly_sum((c2, a))
        table[2][cancel] = poly_sum((-1, c1, a))
        calls = []

        def coeff(ell):
            calls.append(ell)
            return coeffs[ell]

        got = d._table_sum(table, coeff)
        want = {}
        for ell, row in table.items():
            for lam, poly in row.items():
                want[lam] = want.get(lam, ZERO) + from_poly(coeffs[ell]) * from_poly(poly)
        assert field(got).terms == {lam: c for lam, c in want.items() if c}
        assert cancel not in got.terms
        assert sorted(calls) == sorted(table)

    def test_delta_prime_t0_matches_per_mu_route(self):
        for n in range(1, 8):
            for size in range(1, n + 1):
                for nu in partitions_of(size):
                    want = field_route.delta_prime_t0(sf.s(nu), n)
                    assert field(d.delta_prime_t0(nu, n)) == want, (nu, n)
        for n in range(1, 9):
            for k in range(1, n + 1):
                want = field_route.delta_prime_t0(references.e(k - 1), n)
                assert field(d.delta_prime_t0((1,) * (k - 1), n)) == want, (n, k)

    def test_inverse_q_sides_match_per_mu_route(self):
        for n in range(1, 8):
            for params in all_hooks(n):
                want = field_route.length_sum_invq(
                    n, lambda ell: field_route.lhs_hook_coeff(params, ell))
                assert field(d.lhs_hook_closed(params)) == want, params
            for i in range(1, 5):
                want = field_route.length_sum_invq(
                    n, lambda ell: field_route.qpoch_at(i + 1, ell - 1))
                assert field(d.shifted_cauchy(n, i, inverse_q=True)) == want, (n, i)
            for k in range(1, n + 1):
                want = field_route.length_sum_invq(n, lambda ell: (
                    field_route.qbinom(ell - 1, k - 1) * field_route.qpoch_at(1, ell)))
                assert field(d.ghry_sides(n, k)[0]) == want, (n, k)
            for size in range(1, n + 1):
                for nu in partitions_of(size):
                    want = field_route.length_sum_invq(n, lambda ell: field_route.evaluate(
                        sf.s(nu), field_route.qbinom(ell - 1, 1)) * field_route.qpoch_at(1, ell))
                    assert field(d.lhs_expansion_thm41(nu, n)) == lincomb((q**size, want)), (nu, n)

    def test_direct_q_sides_match_per_mu_route(self):
        for n in range(1, 8):
            for params in all_hooks(n):
                want = field_route.length_sum(n, lambda j: field_route.rhs_hook_coeff(params, j))
                assert field(d.rhs_hook(params)) == want, params
            for i in range(1, 5):
                want = field_route.length_sum(
                    n, lambda ell: field_route.qpoch_at(i - ell + 1, ell - 1))
                assert field(d.shifted_cauchy(n, i, inverse_q=False)) == want, (n, i)
            for k in range(1, n + 1):
                want = field_route.length_sum(n, lambda ell: (
                    field_route.qpoch_at(1, k) * q ** (-k * (k - 1)) if ell == k else ZERO))
                assert field(d.ghry_sides(n, k)[1]) == want, (n, k)
            for size in range(1, n + 1):
                for nu in partitions_of(size):
                    want = field_route.length_sum(n, lambda ell: (
                        references.charge_content_field_sum(nu, ell - 1)
                        * field_route.qpoch_at(1, ell - 1) * q ** (-ell * (ell - 1))
                        * field_route.qpoch_at(1, ell)))
                    assert field(d.rhs_nu(nu, n)) == lincomb((q**size, want)), (nu, n)


class TestShiftedCauchy:
    def test_variants_hit_target(self):
        for n in range(1, 5):
            for i in range(1, 5):
                target = d.hook_kernel(n, i)
                assert d.shifted_cauchy(n, i, inverse_q=False) == target
                assert d.shifted_cauchy(n, i, inverse_q=True) == target

    def test_target_is_scaled_h(self):
        for n in range(1, 5):
            for i in range(1, 4):
                scaled = field_route.plethysm(references.h(n), ONE - q**i)
                assert scaled == lincomb((ONE - q**i, d.hook_kernel(n, i)))


class TestLengthAggregates:
    def test_ghry_sides(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                left, right = d.ghry_sides(n, k)
                assert left == right
                assert sf.is_hook_only(left)


class TestGeneralNu:
    def test_thm41_expansion(self):
        for n in range(2, 5):
            for nu in small_nus(n):
                assert d.lhs_expansion_thm41(nu, n) == d.lhs_nu(nu, n)

    def test_hook_specialization(self):
        for n in range(2, 6):
            for params in all_hooks(n):
                assert d.lhs_expansion_thm41(params.nu, n) == d.lhs_hook_closed(
                    params
                )

    def test_principal_eval_routes(self):
        for size in range(1, 5):
            for nu in partitions_of(size):
                for j in range(1, 7):
                    direct, graded = d.schur_principal_eval(nu, j)
                    assert direct == graded, (nu, j)

    def test_charge_content_matches_field_sum(self):
        # one cancel over (q;q)_k against one field + and / per rho, |nu| <= 6
        for size in range(1, 7):
            for nu in partitions_of(size):
                for k in range(0, size + 2):
                    want = references.charge_content_field_sum(nu, k)
                    assert references.charge_content(nu, k) == want, (nu, k)

    def test_rhs_nu(self):
        for n in range(2, 5):
            for nu in small_nus(n):
                assert d.rhs_nu(nu, n) == d.lhs_nu(nu, n)


class TestSpan:
    def test_frozen_ranks(self):
        _, rank, dim = field_route.span_dimension_report(3)
        assert (rank, dim) == (3, 3)
        nu_count, rank, dim = field_route.span_dimension_report(4)
        assert (rank, dim) == (5, 5)
        assert nu_count >= rank

    # (nu_count, rank, dim) for nu_size_max = 1..n, as computed by elimination over Q(q,t)
    SPAN_REPORTS = {
        1: [(1, 1, 1)],
        2: [(1, 1, 2), (2, 2, 2)],
        3: [(1, 1, 3), (3, 2, 3), (4, 3, 3)],
        4: [(1, 1, 5), (3, 3, 5), (6, 4, 5), (7, 5, 5)],
        5: [(1, 1, 7), (3, 3, 7), (6, 5, 7), (11, 6, 7), (12, 7, 7)],
    }

    @pytest.mark.parametrize("n", sorted(SPAN_REPORTS))
    def test_reports_match_field_elimination(self, n):
        for s, expected in enumerate(self.SPAN_REPORTS[n], start=1):
            assert field_route.span_dimension_report(n, s) == expected, (n, s)

    @pytest.mark.parametrize("n", sorted(SPAN_REPORTS))
    def test_point_route_matches_field_elimination(self, n):
        for s, expected in enumerate(self.SPAN_REPORTS[n], start=1):
            r = d.span_rank_at_point(n, s)
            assert (r.nu_count, r.rank, r.dim) == expected, (n, s)

    # (nu_count, rank, dim) at n = 6..9, as ranked at the point from the images themselves,
    # with H~_mu from its fillings: an independent route to the same numbers
    POINT_REPORTS = {6: (19, 11, 11), 7: (30, 15, 15), 8: (45, 22, 22), 9: (67, 30, 30)}

    @pytest.mark.parametrize("n", sorted(POINT_REPORTS))
    def test_point_route_frozen_ranks(self, n):
        r = d.span_rank_at_point(n)
        assert (r.nu_count, r.rank, r.dim) == self.POINT_REPORTS[n]

    @pytest.mark.parametrize("n", [3, 4])
    def test_rows_at_point_are_the_cell_eigenvalues_there(self, n):
        p, (a, b) = d.SPAN_PRIME, d.SPAN_POINT

        def at_point(poly):
            return sum(c * pow(a, i, p) * pow(b, j, p) for (i, j), c in poly.terms()) % p

        row = d._eigenvalue_rows(n)
        for nu in small_nus(n + 2):
            exact = [at_point(d._cell_eigenvalue({nu: qfield.RING.one}, mu, prime=False))
                     for mu in partitions_of(n)]
            assert row(nu) == exact, nu

    def test_restricted_nu_range(self):
        # with only |nu| = 1 available the span cannot fill degree 3
        nu_count, rank, _ = field_route.span_dimension_report(3, nu_size_max=1)
        assert rank == 1
        assert nu_count == 1

    @pytest.mark.parametrize("nu_size_max", [0, -3])
    def test_nu_size_max_below_one_raises(self, nu_size_max):
        for route in (field_route.span_dimension_report, d.span_rank_at_point):
            with pytest.raises(ValueError, match="need nu_size_max >= 1"):
                route(4, nu_size_max)
