"""Tests for Schur-based symmetric functions, conversions, and transforms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import field_route
from references import (ONE, ZERO, basis_convert, coef, e, field, from_poly, from_power, h,
                        lincomb, m, omega, one, p, qbinom, read_symfunc, subs, subs_coeffs,
                        swap_qt, sym)
from deltaq import delta_ops as d, qfield, symfunc as sf, verify as ver
from deltaq.partition import Partition, partitions_of
from deltaq.qfield import Coef, QPoly, q, t
from deltaq.symfunc import SymFunc

partitions_upto = lambda size: st.integers(1, size).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)

_small_coef = st.builds(
    lambda a, b, c: Coef({(0, 0): a, (1, 0): b, (0, 1): c}),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
)

_symfunc_strategy = st.integers(1, 5).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(partitions_of(n)), _small_coef, min_size=1, max_size=4
    ).map(SymFunc)
)


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product via the power-sum basis: p_rho p_sigma = p_(rho union sigma)."""
    prod: dict = {}
    for rho, c in basis_convert(f, "p").items():
        for sigma, d in basis_convert(g, "p").items():
            key = Partition(sorted(rho + sigma, reverse=True))
            prod[key] = prod.get(key, ZERO) + c * d
    return from_power(prod)


def hall_inner(f: SymFunc, g: SymFunc):
    """Hall inner product; Schur functions are orthonormal."""
    f, g = field(f), field(g)
    return sum((c * g.terms.get(lam, ZERO) for lam, c in f.terms.items()), ZERO)


class TestContainer:
    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            SymFunc({Partition((1,)): qfield.ONE, Partition((2,)): qfield.ONE})

    def test_zero_and_one(self):
        assert not SymFunc()
        assert set(one().terms) == {Partition(())}
        assert field(sf.s(0)) == one()

    def test_int_shape_shorthand(self):
        assert sf.s(3) == sf.s((3,))
        assert e(1) == h(1) == p(1) == m(1)

    def test_coeff_support_degree(self):
        f = SymFunc({Partition((2, 1)): Coef({(1, 0): 1}), Partition((3,)): qfield.ONE,
                     Partition((1, 1, 1)): qfield.ZERO})
        assert {lam.size for lam in f.terms} == {3}
        assert f.terms.get(Partition((2, 1)), qfield.ZERO) == Coef({(1, 0): 1})
        assert f.terms.get(Partition((1, 1, 1)), qfield.ZERO) == qfield.ZERO
        assert set(f.terms) == {Partition((3,)), Partition((2, 1))}

    @given(_symfunc_strategy, _small_coef)
    @settings(max_examples=40, deadline=None)
    def test_linear_structure(self, f, c):
        # the tests' one sum of SymFuncs, ``references.lincomb``
        assert lincomb((1, f), (-1, f)) == SymFunc()
        assert lincomb((c, f), (-coef(c), f)) == SymFunc()
        assert lincomb((c, lincomb((1, f), (1, f)))) == lincomb((c, f), (c, f))
        assert lincomb((1, f)) == field(f)


class TestCharacters:
    def test_frozen_small_table(self):
        # standard 2-dimensional representation of the symmetric group on 3 letters
        tri = Partition((2, 1))
        assert sf.character(tri, Partition((1, 1, 1))) == 2
        assert sf.character(tri, Partition((2, 1))) == 0
        assert sf.character(tri, Partition((3,))) == -1

    def test_trivial_and_sign(self):
        for n in range(1, 7):
            for rho in partitions_of(n):
                assert sf.character(Partition((n,)), rho) == 1
                sign = (-1) ** (n - len(rho))
                assert sf.character(Partition((1,) * n), rho) == sign

    def test_orthogonality(self):
        # row orthogonality of the character table, degrees up to 6
        for n in range(1, 7):
            parts = partitions_of(n)
            for lam in parts:
                for mu in parts:
                    total = sum(
                        Fraction(
                            sf.character(lam, rho) * sf.character(mu, rho),
                            sf.zee(rho),
                        )
                        for rho in parts
                    )
                    assert total == (1 if lam == mu else 0)

    def test_zee(self):
        assert sf.zee(Partition((3,))) == 3
        assert sf.zee(Partition((2, 1))) == 2
        assert sf.zee(Partition((1, 1, 1))) == 6


class TestConversions:
    @given(partitions_upto(6), st.sampled_from("mehp"))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_schur(self, lam, basis):
        f = sym(basis, {lam: 1})
        back = basis_convert(f, basis)
        assert back == {lam: ONE}

    @given(_symfunc_strategy, st.sampled_from("mehp"))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_general(self, f, basis):
        expansion = basis_convert(f, basis)
        assert sym(basis, expansion) == field(f)

    def test_h_m_duality(self):
        # <h_lam, m_mu> = delta, a cross-basis consistency certificate
        for n in range(1, 6):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    expected = ONE if lam == mu else ZERO
                    assert hall_inner(h(lam), m(mu)) == expected

    def test_p_inner_is_zee(self):
        for n in range(1, 6):
            for rho in partitions_of(n):
                assert hall_inner(p(rho), p(rho)) == coef(sf.zee(rho))

    def test_schur_orthonormal(self):
        for lam in partitions_of(4):
            for mu in partitions_of(4):
                expected = ONE if lam == mu else ZERO
                assert hall_inner(sf.s(lam), sf.s(mu)) == expected


class TestMultiplication:
    def test_pieri(self):
        assert multiply(sf.s((2, 1)), sf.s(1)) == lincomb(
            (1, sf.s((3, 1))), (1, sf.s((2, 2))), (1, sf.s((2, 1, 1))))

    def test_e_h_products(self):
        # the Kostka route to h_lam and e_lam against power-sum products of
        # their one-part factors h_k = s_(k) and e_k = s_(1^k)
        for n in range(1, 7):
            for lam in partitions_of(n):
                h_prod, e_prod = one(), one()
                for part in lam:
                    assert h(part) == field(sf.s(part)) and e(part) == field(sf.s((1,) * part))
                    h_prod = multiply(h_prod, sf.s(part))
                    e_prod = multiply(e_prod, sf.s((1,) * part))
                assert h(lam) == h_prod, lam
                assert e(lam) == e_prod, lam
        assert multiply(h(6), h(5)) == h((6, 5))


class TestOmega:
    @given(partitions_upto(6))
    @settings(max_examples=40, deadline=None)
    def test_omega_on_schur_is_conjugate(self, lam):
        assert omega(sf.s(lam)) == sf.s(lam.conjugate())

    def test_omega_swaps_h_e(self):
        for n in range(1, 7):
            assert omega(h(n)) == e(n)
            assert omega(e(n)) == h(n)

    @given(_symfunc_strategy)
    @settings(max_examples=30, deadline=None)
    def test_involution(self, f):
        assert omega(omega(f)) == f


class TestTransforms:
    """Plethystic facts, checked on ``field_route.plethysm`` and ``field_route.evaluate``."""

    def test_scale_one_minus_q_on_h2(self):
        expected = lincomb((ONE - q, sf.s(2)), (-q * (ONE - q), sf.s((1, 1))))
        assert field_route.plethysm(h(2), ONE - q) == expected

    def test_hook_expansion_route(self):
        # the closed hook formula agrees with the power-sum scaling route
        for n in range(1, 7):
            for i in (1, 2):
                image = field_route.plethysm(h(n), ONE - q**i)
                assert image == lincomb((ONE - q**i, d.hook_kernel(n, i)))
            # u = t: the kernel at u = q with q and t exchanged
            at_t = SymFunc({lam: swap_qt(coef(c)) for lam, c in d.hook_kernel(n, 1).terms.items()})
            assert field_route.plethysm(h(n), ONE - t) == lincomb((ONE - t, at_t))

    def test_evaluate_geometric(self):
        assert field_route.evaluate(sf.s(2), qbinom(2, 1)) == ONE + q + q**2
        assert field_route.evaluate(sf.s((1, 1)), qbinom(2, 1)) == q
        # too few letters kills columns that are too tall
        assert field_route.evaluate(sf.s((1, 1, 1)), qbinom(2, 1)) == ZERO

    def test_evaluate_shifted_geometric_drops_the_one(self):
        # alphabet {q, ..., q^(l-1)} equals q * {1, ..., q^(l-2)}; compare the
        # shifted evaluation with the scale-then-evaluate route
        for lam in partitions_of(3):
            f = sf.s(lam)
            lhs = field_route.evaluate(f, qbinom(4, 1) - ONE)
            assert lhs == field_route.evaluate(field_route.plethysm(f, q), qbinom(3, 1))

    def test_plethysm_by_inverse_alphabet_inverts(self):
        for f in (field(sf.s((2, 1))), lincomb((1, h(3)), (t, e(3))),
                  lincomb((q / (ONE + t), p((2, 2))))):
            scaled = field_route.plethysm(f, ONE - q)
            assert field_route.plethysm(scaled, ONE / (ONE - q)) == f

    @pytest.mark.parametrize("alphabet", [
        (q**2 - t) / (ONE - q * t**3), q**-2 * t**3, -q / t, coef(3) / 2 * q,
    ], ids=["bivariate-fraction", "laurent-monomial", "negative-monomial", "rational"])
    def test_power_sum_image_is_substitution(self, alphabet):
        # p_k[A] = A(q^k, t^k), read off the one-part power sums p_k
        for k in range(1, 5):
            expected = subs(alphabet, q_image=q**k, t_image=t**k)
            assert field_route.evaluate(p(k), alphabet) == expected
            assert field_route.plethysm(p(k), alphabet) == lincomb((expected, p(k)))

    def test_products_of_power_sums(self):
        a = (q**2 - t) / (ONE - q * t**3)
        pk = {k: subs(a, q_image=q**k, t_image=t**k) for k in (1, 2, 3)}
        assert field_route.evaluate(p((3, 1, 1)), a) == pk[3] * pk[1] ** 2
        assert field_route.plethysm(p((2, 2, 1)), a) == lincomb((pk[2] ** 2 * pk[1], p((2, 2, 1))))

    def test_edge_cases(self):
        a = ONE - q * t
        # degree 0: f[A] is the constant itself, f[XA] = f
        constant = lincomb((q + 2, one()))
        assert field_route.evaluate(constant, a) == q + 2
        assert field_route.plethysm(constant, a) == constant
        # f = 0
        assert field_route.evaluate(SymFunc(), a) == ZERO
        assert field_route.plethysm(SymFunc(), a) == SymFunc()
        # the empty alphabet: p_k[0] = 0, so only degree 0 survives
        empty = qbinom(0, 1)
        assert empty == ZERO
        for lam in ((1,), (2, 1), (3,)):
            assert field_route.evaluate(sf.s(lam), empty) == ZERO
            assert field_route.plethysm(sf.s(lam), empty) == SymFunc()
        assert field_route.evaluate(one(), empty) == ONE
        # an int alphabet counts letters: h_2[3] = 6, e_3[2] = 0
        assert field_route.evaluate(h(2), 3) == coef(6)
        assert field_route.evaluate(e(3), 2) == ZERO

    @pytest.mark.parametrize("alphabet", [0, qbinom(1, 1) - ONE], ids=["int-zero", "qbinom-1-1-minus-1"])
    def test_zero_alphabet(self, alphabet):
        # p_k[0] = 0: every positive degree vanishes, degree 0 is kept as is
        for lam in ((1,), (1, 1), (2, 1), (2, 2)):
            assert field_route.evaluate(sf.s(lam), alphabet) == ZERO
            assert field_route.plethysm(sf.s(lam), alphabet) == SymFunc()
        constant = lincomb((q / (ONE - t), one()))
        assert field_route.evaluate(constant, alphabet) == q / (ONE - t)
        assert field_route.plethysm(constant, alphabet) == constant
        assert field_route.evaluate(SymFunc(), alphabet) == ZERO
        assert field_route.plethysm(SymFunc(), alphabet) == SymFunc()

    def test_delta_prime_at_length_one(self):
        # the length-1 eigenvalue s_nu[qbinom(1, 1) - 1] is an evaluation at
        # the zero alphabet; thm44 reaches it first at nu = (1, 1), n = 2, where
        # B_mu - 1 has at most one letter, so s_11 vanishes at every mu
        assert d.delta_prime_t0((1, 1), 2) == SymFunc()
        # Delta'_(e_1) e_2 = nabla e_2 = s_2 + (q + t) s_11
        assert field(d.delta_prime_t0((1,), 2)) == lincomb((1, sf.s(2)), (q, sf.s((1, 1))))
        assert ver.run_one("thm44", {"nu": [1, 1], "n": 2}).status == "equal"

    def test_subs_coeffs(self):
        f = lincomb((q * t + q, sf.s(2)))
        assert subs_coeffs(f, None, ZERO) == lincomb((q, sf.s(2)))
        assert subs_coeffs(f, t, None) == lincomb((t**2 + t, sf.s(2)))


class TestFieldRoute:
    """The ZZ[q] routes against the field route of ``field_route``."""

    def test_principal_poly_matches_evaluate(self):
        # the hook-content product against the power-sum evaluation, zeros included;
        # n <= 8 covers thm43's default sweep (|nu| <= 6, j <= 8, n = j - 1)
        for size in range(0, 11):
            for nu in partitions_of(size):
                for n in range(0, max(size + 1, 8) + 1):
                    want = field_route.principal_eval(nu, n + 1)
                    assert from_poly(sf.principal_poly(nu, n)) == want, (nu, n)

    def test_plethysm_one_minus_q_matches_plethysm(self):
        # Laurent coefficients with negative, mixed and large exponents and entries
        coeffs = [QPoly([1]), QPoly([-3, 0, 2], -4), QPoly([2**40, -1], 3), QPoly([0, 5], -1)]
        for n in range(0, 7):
            for offset in range(len(coeffs)):
                terms = {lam: coeffs[(i + offset) % len(coeffs)]
                         for i, lam in enumerate(partitions_of(n))}
                f = SymFunc({lam: from_poly(c) for lam, c in terms.items()})
                got = {lam: from_poly(c) for lam, c in sf.plethysm_one_minus_q(terms).items()}
                assert got == field_route.plethysm(f, ONE - q).terms, (n, offset)
        assert sf.plethysm_one_minus_q({}) == {}


class TestRenderParse:
    def test_frozen_render(self):
        f = SymFunc({Partition((2, 1)): Coef({(1, 0): 1, (0, 0): 1}),
                     Partition((1, 1, 1)): Coef({(2, 0): -1})})
        assert sf.render(f) == "s[2,1]*(q + 1) + s[1,1,1]*(-q^2)"

    def test_render_zero(self):
        assert sf.render(SymFunc()) == "0"

    @given(_symfunc_strategy)
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, f):
        assert read_symfunc(sf.render(f)) == field(f)


class TestHookPredicates:
    def test_is_hook_only(self):
        assert sf.is_hook_only(lincomb((1, sf.s((3, 1, 1))), (1, sf.s((4, 1)))))
        assert not sf.is_hook_only(sf.s((2, 2)))
        assert sf.is_hook_only(d.hook_kernel(5, 1))
