"""Tests for the Laurent coefficients, the dense ZZ[q] layer and its q-series primitives.

The field Q(q,t) of ``references`` (sympy) is the oracle: its arithmetic and
canonical text are checked first, then the package's values against it.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import field_route
from references import (ONE, ZERO, coef, from_field, from_poly, qbinom, qpoch, qpoch_at, read_coef,
                        render_field, subs, swap_qt, to_field, to_ring)
from deltaq import qfield, symfunc as sf
from deltaq.partition import Partition
from deltaq.qfield import Coef, QPoly, from_pair, q, t

# small random coefficients: polynomial numerators over a few safe denominators
_coef_strategy = st.builds(
    lambda terms, den: sum(
        (coef(c) * q**eq * t**et for (eq, et), c in terms.items()), ZERO
    ) / den,
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.integers(-9, 9).filter(bool),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from([ONE, ONE - q, ONE - t, (ONE - q) * (ONE - t), ONE + q * t]),
)


class TestFieldBasics:
    def test_exact_cancellation(self):
        assert (ONE - q**2) / (ONE - q) == ONE + q

    def test_equality_is_canonical(self):
        a = (q**3 - q) / (q - 1)
        b = q * (q + 1)
        assert a == b

    def test_coef_conversions(self):
        assert coef(3) == ONE + ONE + ONE
        assert coef(q) is not None and coef(q) == q
        # rationals are field quotients; coef takes ints and field elements only
        with pytest.raises(TypeError):
            coef(Fraction(1, 2))

    def test_qpow_negative(self):
        assert q**-2 * q**2 == ONE


class TestSubs:
    def test_numeric_substitution(self):
        f = (ONE - q**2) / (ONE - q)
        assert subs(f, q_image=ONE / 2) == coef(3) / 2

    def test_partial_substitution_keeps_other_variable(self):
        f = q * t + t**2
        assert subs(f, q_image=ZERO) == t**2

    def test_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            subs(ONE / (ONE - q), q_image=ONE)

    def test_rename_q_to_t(self):
        assert subs(q**2 + q, q_image=t) == t**2 + t


class TestRenderParse:
    def test_frozen_renders(self):
        # canonical normalization: denominator leading coefficient positive
        assert render_field(ONE / (ONE - q)) == "(-1)/(q - 1)"
        assert render_field((ONE - q**2) / (ONE - q)) == "q + 1"
        assert render_field(-q) == "-q"
        assert render_field(q**2 * t) == "q^2*t"
        assert render_field(ZERO) == "0"
        assert render_field(coef(5)) == "5"
        assert render_field((q - t) / (q + t)) == "(q - t)/(q + t)"

    def test_lex_canonical_form(self):
        # leading terms differ under grlex and lex; lex (q > t) decides the sign
        cases = {
            ONE / (q - t**2): "1/(q - t^2)",
            (q**2 - t**3) / (t - q**2): "(-q^2 + t^3)/(q^2 - t)",
        }
        for f, text in cases.items():
            assert render_field(f) == text
            assert read_coef(render_field(f)) == f

    @given(_coef_strategy)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, f):
        assert read_coef(render_field(f)) == f


# Laurent polynomials in q,t as counts {(i, j): c}, negative exponents and zero counts included
_laurent_counts = st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                                  st.integers(-2**70, 2**70) | st.integers(-3, 3), max_size=6)


def _field_sum(counts):
    """sum c q^i t^j in Q(q,t), one field operation per term."""
    return sum((coef(c) * q**i * t**j for (i, j), c in counts.items()), ZERO)


class TestCoef:
    """``qfield.Coef`` against the field oracle: same value, same text, same equality."""

    @given(_laurent_counts)
    @example({(-1, 0): 1})
    @example({(0, -2): -3, (1, 0): 1})
    @example({(2, -1): -1})
    @example({(3, 0): 0})
    @settings(max_examples=300, deadline=None)
    def test_render_matches_field_render(self, counts):
        c, want = Coef(counts), _field_sum(counts)
        assert qfield.render(c) == render_field(want)
        assert to_field(c) == want and from_field(want) == c
        assert bool(c) == bool(want)

    @given(_laurent_counts, _laurent_counts, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equality_matches_field_equality(self, a, b, same):
        if same:  # the same value, its counts in another order and with zeros added
            b = {**{key: 0 for key in b if key not in a}, **dict(reversed(list(a.items())))}
        assert (Coef(a) == Coef(b)) == (_field_sum(a) == _field_sum(b))
        if Coef(a) == Coef(b):
            assert hash(Coef(a)) == hash(Coef(b))

    @given(_laurent_counts)
    @settings(max_examples=100, deadline=None)
    def test_swapped_matches_swap_qt(self, counts):
        assert to_field(Coef(counts).swapped()) == swap_qt(_field_sum(counts))

    @given(st.lists(st.integers(-9, 9), max_size=8).map(QPoly), st.integers(-12, 12))
    @settings(max_examples=100, deadline=None)
    def test_from_pair_matches_from_poly(self, poly, e):
        c = from_pair(poly, e)
        assert c == from_field(from_poly(poly, e))
        assert qfield.render(c) == qfield.render_laurent(poly, e)

    def test_frozen_renders(self):
        assert qfield.render(Coef({(-1, 0): 1})) == "1/q"
        assert qfield.render(Coef({(0, -2): -3, (1, 0): 1})) == "(q*t^2 - 3)/t^2"
        assert qfield.render(Coef({(1, -1): -2})) == "(-2*q)/t"
        assert qfield.render(Coef({(0, 1): 1, (2, 0): 1})) == "q^2 + t"
        assert qfield.render(qfield.ZERO) == "0" and qfield.render(qfield.ONE) == "1"
        assert Coef({(1, 1): 0}) == qfield.ZERO and not qfield.ZERO


class TestPochhammer:
    def test_frozen_values(self):
        assert qpoch(0) == ONE
        assert qpoch(1) == ONE - q
        assert qpoch(2) == ONE - q - q**2 + q**3

    def test_shifted_window(self):
        assert qpoch_at(3, 2) == (ONE - q**3) * (ONE - q**4)
        assert qpoch_at(-1, 1) == ONE - q**-1

    def test_zero_factor_inside_window(self):
        # the window (q^-1;q)_3 crosses q^0 = 1, so a factor vanishes
        assert qpoch_at(-1, 3) == ZERO

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            qpoch_at(1, -1)

    @given(st.integers(1, 8), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_splitting(self, s, m):
        # (q^s;q)_{m+1} = (q^s;q)_m * (1 - q^(s+m))
        assert qpoch_at(s, m + 1) == qpoch_at(s, m) * (ONE - q ** (s + m))

    @given(st.integers(1, 10), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_neg_shift_identity(self, n, m):
        # (q^-n; q)_m = q^(m(m-2n-1)/2) (-1)^m (q^(n-m+1); q)_m
        rhs = q ** (m * (m - 2 * n - 1) // 2) * (-1) ** m * qpoch_at(n - m + 1, m)
        assert qpoch_at(-n, m) == rhs


class TestQBinom:
    def test_frozen_value(self):
        # (1-q^4)(1-q^3)/((1-q)(1-q^2)) expanded by hand
        assert qbinom(4, 2) == ONE + q + 2 * q**2 + q**3 + q**4

    def test_out_of_range_is_zero(self):
        assert qbinom(3, -1) == ZERO
        assert qbinom(3, 4) == ZERO

    def test_edges(self):
        assert qbinom(5, 0) == ONE
        assert qbinom(5, 5) == ONE

    @given(st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert qbinom(a, b) == qbinom(a, a - b)

    @given(st.integers(1, 12), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_pascal(self, a, b):
        assert qbinom(a, b) == qbinom(a - 1, b - 1) + q**b * qbinom(a - 1, b)


class TestRingRoute:
    """The ring-built scalars against the field route of ``field_route``."""

    def test_qbinom_matches_pochhammer_quotient(self):
        for a in range(0, 15):
            for b in range(-1, a + 2):
                assert qbinom(a, b) == field_route.qbinom(a, b), (a, b)

    def test_qpoch_at_matches_field_product(self):
        for s in range(-6, 7):
            for m in range(0, 7):
                assert qpoch_at(s, m) == field_route.qpoch_at(s, m), (s, m)

    def test_from_poly_is_canonical(self):
        # the numerator and denominator sympy's own cancellation produces
        for poly in (QPoly(), QPoly([1]), QPoly([-6, 0, 3]), QPoly([0, 0, 2, -1])):
            for e in range(-4, 5):
                got, want = from_poly(poly, e), qfield.FIELD(to_ring(poly)) * q**e
                assert (got.numer, got.denom) == (want.numer, want.denom), (poly, e)

    @given(st.dictionaries(st.integers(0, 12), st.integers(-9, 9), max_size=6),
           st.integers(-8, 8))
    @settings(max_examples=60, deadline=None)
    def test_from_reversed_matches_substitution(self, coeffs, e):
        poly = QPoly.from_terms(coeffs)
        want = subs(qfield.FIELD(to_ring(poly)), q_image=ONE / q) * q**e
        got = from_poly(*qfield.reverse(poly, e))
        assert (got.numer, got.denom) == (want.numer, want.denom)

    @given(_coef_strategy)
    @settings(max_examples=60, deadline=None)
    def test_swap_qt_matches_substitution(self, f):
        got, want = swap_qt(f), subs(f, q_image=t, t_image=q)
        assert (got.numer, got.denom) == (want.numer, want.denom)

    def test_swap_qt_renames_q_to_t(self):
        # a polynomial, a quotient, and denominators whose leading coefficient
        # turns negative once q becomes t (lex order puts q first)
        cases = (q**2 + q, (ONE - q**2) / (ONE - q**3), ONE / (ONE - q),
                 (q + 2) / (ONE - 3 * q**2), ONE / (q - t), (q - 1) / (t - q**2))
        for f in cases:
            got, want = swap_qt(f), subs(f, q_image=t, t_image=q)
            assert (got.numer, got.denom) == (want.numer, want.denom), render_field(f)
        assert render_field(swap_qt(ONE / (ONE - q))) == "(-1)/(t - 1)"
        assert render_field(swap_qt(ONE / (q - t))) == "(-1)/(q - t)"

    def test_qpoch_poly_needs_positive_start(self):
        with pytest.raises(ValueError):
            qfield.qpoch_poly(0, 2)

    def test_long_products_need_no_recursion(self):
        # [a, b]_q (q;q)_c = (q^(a-c+1);q)_c, c = min(b, a-b), a far past the recursion limit
        for a, b in ((2000, 3), (1201, 5), (3000, 2998)):
            product = qfield.qbinom_poly(a, b) * qfield.qpoch_poly(1, min(b, a - b))
            assert product == qfield.qpoch_poly(max(b, a - b) + 1, min(b, a - b)), (a, b)


# coefficients from one bit to above 2^64, so every digit width of the product occurs
_coefficients = st.integers(0, 80).flatmap(lambda bits: st.integers(-2**bits, 2**bits))
_qpolys = st.one_of(
    st.lists(_coefficients, max_size=40).map(QPoly),
    st.builds(lambda e, c: QPoly.from_terms({e: c}), st.integers(0, 30), _coefficients),
)


def _schoolbook(a: QPoly, b: QPoly) -> list:
    """The coefficients of a * b, summed term by term."""
    out = [0] * max(len(a.c) + len(b.c) - 1, 0)
    for i, x in enumerate(a.c):
        for j, y in enumerate(b.c):
            out[i + j] += x * y
    return QPoly(out).c


def _shifted_sum(terms) -> QPoly:
    """sum q^s a b over the triples (s, a, b), every product summed term by term."""
    return sum((QPoly(_schoolbook(a, b)).shift(s) for s, a, b in terms), QPoly())


class TestQPoly:
    """The dense ZZ[q] type against sympy's sparse ``qfield.RING``."""

    def test_normal_form(self):
        assert QPoly([1, 2, 0, 0]).c == [1, 2]
        assert QPoly([0, 0]).c == [] and not QPoly([0, 0])
        assert QPoly.from_terms({3: 2, 0: -1}) == QPoly([-1, 0, 0, 2])
        assert QPoly([5]) == 5 and QPoly() == 0

    @given(_qpolys, _qpolys)
    @settings(max_examples=300, deadline=None)
    def test_product(self, a, b):
        assert to_ring(a * b) == to_ring(a) * to_ring(b)

    @given(_qpolys, _coefficients)
    @settings(max_examples=60, deadline=None)
    def test_int_product(self, a, k):
        assert to_ring(a * k) == to_ring(k * a) == to_ring(a) * k

    def test_products_across_the_schoolbook_cutoff(self):
        big = 2**70 + 3
        for la in range(1, 6):
            for lb in range(1, 12):
                a = QPoly([(-1) ** i * (i + 2) for i in range(la)])
                b = QPoly([big - 7 * j for j in range(lb)])
                assert to_ring(a * b) == to_ring(a) * to_ring(b), (la, lb)

    @given(_qpolys, _qpolys)
    @settings(max_examples=150, deadline=None)
    def test_sum_and_difference(self, a, b):
        ra, rb = to_ring(a), to_ring(b)
        assert to_ring(a + b) == ra + rb
        assert to_ring(a - b) == ra - rb
        assert to_ring(a - a) == qfield.RING.zero and not a - a
        assert to_ring(-a) == -ra
        assert (a == b) == (ra == rb)

    @given(_qpolys, _coefficients)
    @settings(max_examples=60, deadline=None)
    def test_int_sum_and_difference(self, a, k):
        assert to_ring(k - a) == k - to_ring(a)
        assert to_ring(a - k) == to_ring(a) - k
        assert to_ring(k + a) == to_ring(a + k) == to_ring(a) + k

    @given(_qpolys, st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_shift(self, a, e):
        assert to_ring(a.shift(e)) == to_ring(a).mul_monom((e, 0))

    def test_negative_shift_is_rejected(self):
        # q^-1 * poly is not in ZZ[q], even when the constant coefficient is zero
        for poly in (QPoly([1, 2]), QPoly([0, 1]), QPoly()):
            with pytest.raises(ValueError):
                poly.shift(-1)

    @given(_qpolys, st.integers(-40, 40))
    @settings(max_examples=100, deadline=None)
    def test_entries_into_the_field(self, a, e):
        ra = qfield.FIELD(to_ring(a))
        got, want = from_poly(a, e), ra * q**e
        assert (got.numer, got.denom) == (want.numer, want.denom)
        got, want = from_poly(*qfield.reverse(a, e)), subs(ra, q_image=ONE / q) * q**e
        assert (got.numer, got.denom) == (want.numer, want.denom)

    @given(_qpolys, st.integers(-40, 40), st.integers(0, 6), st.booleans(), _qpolys,
           st.integers(-40, 40))
    @settings(max_examples=200, deadline=None)
    def test_laurent_pairs_are_equal_exactly_when_the_field_values_are(self, a, e, k, same, b, f):
        if same:  # the same Laurent polynomial written with k more low zeros
            b, f = a.shift(k), e - k
        pair = qfield.laurent(a, e)
        assert qfield.laurent(*pair) == pair
        assert from_poly(*pair) == from_poly(a, e)
        assert (pair == qfield.laurent(b, f)) == (from_poly(a, e) == from_poly(b, f))

    def test_laurent_of_zero(self):
        assert qfield.laurent(QPoly(), -3) == qfield.laurent(QPoly([0, 0]), 5) == (QPoly(), 0)

    @given(st.one_of(_qpolys, st.builds(lambda zeros, c: QPoly([0] * zeros + c), st.integers(0, 6),
                                        st.lists(st.integers(-3, 3), max_size=6))),
           st.integers(-40, 40))
    @example(QPoly(), -3)
    @example(QPoly([-1]), -1)
    @example(QPoly([0, 0, -7]), -5)
    @example(QPoly([0, 1, -1]), -4)
    @example(QPoly([1, -1, 0, 1, -1]), 2)  # coefficients of +-1 print as bare powers
    @example(QPoly([-1, 1]), -3)
    @example(QPoly([2**70 + 1, 0, -(2**65) - 3, 1]), -1)  # coefficients above 2^64
    @example(QPoly([-(2**64) - 7]), 0)
    @example(QPoly([5]), -1)  # the bare /q
    @example(QPoly([1]), -1)
    @example(QPoly([0, 0, -2]), -6)  # a single negative term at a negative e
    @settings(max_examples=300, deadline=None)
    def test_render_laurent_matches_field_render(self, a, e):
        assert qfield.render_laurent(a, e) == render_field(from_poly(a, e))

    def test_frozen_laurent_renders(self):
        assert qfield.render_laurent(QPoly([-1]), -1) == "(-1)/q"
        assert qfield.render_laurent(QPoly([3]), -2) == "3/q^2"
        assert qfield.render_laurent(QPoly([1, -1]), -3) == "(-q + 1)/q^3"
        assert qfield.render_laurent(QPoly([0, 2, 0, -1]), 1) == "-q^4 + 2*q^2"
        assert qfield.render_laurent(QPoly(), -2) == "0"

    @given(st.lists(st.tuples(st.integers(0, 12), _qpolys, _qpolys), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_dot_matches_sum_of_shifted_products(self, terms):
        want = sum(((a * b).shift(s) for s, a, b in terms), QPoly())
        assert qfield.dot(terms) == want
        assert qfield.dot(iter(terms)) == want
        # the same terms with one factor negated cancel to zero
        assert qfield.dot(terms + [(s, -a, b) for s, a, b in terms]) == QPoly()

    def test_dot_edges(self):
        one_plus_q = QPoly([1, 1])
        assert qfield.dot([]) == QPoly()
        assert qfield.dot([(3, QPoly(), one_plus_q)]) == QPoly()
        # the top coefficients cancel: (1 + q)^2 - q^2
        assert qfield.dot([(0, one_plus_q, one_plus_q), (2, QPoly([-1]), QPoly([1]))]) == (
            QPoly([1, 2]))
        # digits wider than 8 bytes, packed one at a time
        big = QPoly([2**70, -(2**70) + 1, 5])
        terms = [(0, big, big), (4, big, one_plus_q), (1, -big, big)]
        assert qfield._digit_width(2**140 * 9) not in qfield._DIGIT_CODES
        assert qfield.dot(terms) == big * big + (big * one_plus_q).shift(4) - (big * big).shift(1)

    @given(_qpolys, _qpolys, _qpolys)
    @settings(max_examples=200, deadline=None)
    def test_memoized_products_match_schoolbook(self, a, b, c):
        coefficients = [list(x.c) for x in (a, b, c)]
        # every factor is reused against the others, so its memo is read at several widths
        for x, y in ((a, b), (a, c), (b, c), (a, a), (c, a), (b, a)):
            assert (x * y).c == _schoolbook(x, y), (x, y)
        assert [x.c for x in (a, b, c)] == coefficients

    def test_a_narrow_pack_is_not_reused_at_a_wider_width(self):
        small, ones = QPoly([1, -1, 1, 1]), QPoly([1, 1, 1])
        big = QPoly([2**70, 3, -(2**70)])
        assert (small * ones).c == _schoolbook(small, ones)
        assert set(small._packs) == {1}
        # 2^70 * 3 needs 10-byte digits: small is packed again, not read at 1 byte
        assert (small * big).c == _schoolbook(small, big)
        assert set(small._packs) == {1, 10}
        assert (small * ones).c == _schoolbook(small, ones)
        assert small.c == [1, -1, 1, 1] and small._norm == 1

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 14), st.integers(0, 14)),
                    min_size=1, max_size=6), _qpolys)
    @settings(max_examples=100, deadline=None)
    def test_dot_of_shared_cached_factors(self, rows, wide):
        # the same cached factors occur in several terms and in calls at different widths
        shared = qfield.qbinom_poly(9, 4)
        terms = [(s, qfield.qbinom_poly(a, b), qfield.qpoch_poly(1 + b, a % 6)) for s, a, b in rows]
        terms += [(s, shared, shared) for s, _, _ in rows]
        want = _shifted_sum(terms)
        assert qfield.dot(terms) == want
        widened = terms + [(2, shared, wide), (0, wide, terms[0][2])]
        assert qfield.dot(widened) == _shifted_sum(widened)
        assert qfield.dot(terms) == want
        assert qfield.dot(terms[:1]) == _shifted_sum(terms[:1])

    def test_products_leave_cached_coefficients_alone(self):
        cached = [qfield.qbinom_poly(11, 5), qfield.qpoch_poly(3, 6), qfield.qbinom_poly(7, 0)]
        coefficients = [list(p.c) for p in cached]
        big = QPoly([2**70, -1, 5, 7])
        for p in cached:
            for other in (p, big, QPoly([1, 1, 1, 1])):
                assert (p * other).c == _schoolbook(p, other)
            qfield.dot([(1, p, big), (0, p, p), (3, big, p)])
        assert [p.c for p in cached] == coefficients
        assert cached == [qfield.qbinom_poly(11, 5), qfield.qpoch_poly(3, 6), qfield.qbinom_poly(7, 0)]
        assert qfield.qbinom_poly(11, 5)._packs  # the memo stays on the cached value

    def test_derived_values_start_without_memos(self):
        p = QPoly([3, -1, 4, 1, 5])
        assert (p * p).c == _schoolbook(p, p)
        assert p._norm == 5 and p._packs
        r = QPoly([2**70, 0, 1])
        for derived in (-p, p.shift(2), p.shift(0), p + r, r + p, p - r, p * 2, 3 * p, p * p,
                        qfield.laurent(p.shift(3), 1)[0], qfield.reverse(p, 0)[0]):
            assert not hasattr(derived, "_norm") and not hasattr(derived, "_packs"), derived
            assert (derived * r).c == _schoolbook(derived, r)
            assert (derived * p).c == _schoolbook(derived, p)

    def test_dot_rejects_negative_shifts(self):
        for factor in (QPoly([1]), QPoly()):
            with pytest.raises(ValueError):
                qfield.dot([(0, QPoly([1]), QPoly([1])), (-1, factor, QPoly([1]))])

    @pytest.mark.parametrize("c, j", [([1, 0, 1], 1), ([1], 2), ([0, 1], 2), ([1, 0, -1, 1], 2)],
                             ids=["1+q^2 over 1-q", "1 over 1-q^2", "q over 1-q^2",
                                  "1-q^2+q^3 over 1-q^2"])
    def test_inexact_division_by_one_minus_q_power_raises(self, c, j):
        with pytest.raises(ArithmeticError):
            qfield._over_one_minus(c, j)


def qbinom_hook(n: int, shape):
    """Cell product prod_{x in shape} (1 - q^(n - content(x))) / (1 - q^(hook(x)))."""
    out = ONE
    for cell in Partition(shape).cell_stats():
        out *= (ONE - q ** (n - cell.content)) / (ONE - q**cell.hook)
    return out


class TestQBinomHook:
    def test_single_column_and_row(self):
        # one-column shapes give plain binomials, one-row shapes the shifted ones
        assert qbinom_hook(4, (1, 1)) == qbinom(5, 2)
        assert qbinom_hook(4, (2,)) == qbinom(4, 2)

    @given(
        st.integers(1, 6),
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_principal_specialization(self, n, shape):
        # cell product equals the principal evaluation of the conjugate Schur
        # function, up to the q^(n(conjugate)) staircase factor
        lam = Partition(shape)
        conj = lam.conjugate()
        direct = field_route.evaluate(sf.s(conj), qbinom(n, 1))
        assert q ** conj.nstat() * qbinom_hook(n, lam) == direct
