"""Tests for labeled Dyck paths, parking statistics, and the combinatorial side."""

from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

import filter_route
from filter_route import fundamental_monomials
from references import ZERO, coef, e, field, subs, subs_coeffs
from deltaq import delta_ops as d, parking, symfunc as sf
from deltaq.parking import AsymmetricAggregateError, DyckPath, ParkingFunction
from deltaq.partition import Partition, partitions_of
from deltaq.qfield import Coef
from deltaq.symfunc import SymFunc

CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42}


def monomial_route(agg: dict) -> sf.SymFunc:
    """Schur expansion of an F-aggregate {alpha: {(a, b): c}} through n-variable monomials."""
    mono: dict[tuple[int, ...], dict] = {}
    for alpha, coeffs in agg.items():
        for expvec, c in fundamental_monomials(alpha, sum(alpha)).items():
            slot = mono.setdefault(expvec, {})
            for key, ct in coeffs.items():
                slot[key] = slot.get(key, 0) + c * ct
    if not mono:
        return SymFunc()
    return parking._monomials_to_symfunc(mono, len(next(iter(mono))))


def llt_sum(path: DyckPath) -> sf.SymFunc:
    """sum over parking functions on the path of q^(dinv) F_(ides), from ``car_counts``."""
    return filter_route.from_fundamentals(filter_route.counts_aggregate(path))


def schur_sum(path: DyckPath, q_zero: bool = False) -> sf.SymFunc:
    """The same sum from ``parking.schur_counts``, which straightens as it counts."""
    return SymFunc({lam: Coef({(d, 0): c for d, c in enumerate(digits) if c})
                    for lam, digits in parking.schur_counts(path.areas, path.n, q_zero).items()})


def compositions(n: int):
    """Every composition of n >= 1."""
    for size in range(n):
        for cuts in combinations(range(1, n), size):
            yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))


def small_pf() -> st.SearchStrategy[ParkingFunction]:
    return st.integers(1, 4).flatmap(
        lambda n: st.sampled_from(filter_route.all_parking(n))
    )


class TestDyckPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            DyckPath(())
        with pytest.raises(ValueError):
            DyckPath((1,))
        with pytest.raises(ValueError):
            DyckPath((0, 2))
        with pytest.raises(ValueError):
            DyckPath((0, -1))

    def test_counts(self):
        for n, catalan in CATALAN.items():
            assert len(DyckPath.all_paths(n)) == catalan

    def test_stats(self):
        path = DyckPath((0, 1, 1, 0))
        assert path.n == 4
        assert path.area == 2
        assert path.rises() == (1,)

    def test_rise_factor(self):
        # t (1 + z t^(-1)) for the single rise at area 1, path area 1
        assert parking.rise_factor((0, 1)) == {0: {1: 1}, 1: {0: 1}}
        # no rises and area 0: constant 1
        assert parking.rise_factor((0, 0)) == {0: {0: 1}}

    def test_rise_factor_exponents_are_the_subset_sums(self):
        # [z^j] t^(area) prod (1 + z t^(-a_i)) is sum over j-sets S of rises of t^(area - sum_S a_i)
        for n in range(1, 8):
            for path in DyckPath.all_paths(n):
                factor = parking.rise_factor(path.areas)
                for size in range(len(path.rises()) + 1):
                    assert factor[size] == filter_route.rise_exponents(path, size), (path, size)
                    assert min(factor[size]) >= 0

    def test_rise_factor_degree_matches_rises(self):
        for n in range(1, 8):
            for path in DyckPath.all_paths(n):
                factor = parking.rise_factor(path.areas)
                assert max(factor) == len(path.rises())
                assert sum(factor[0].values()) == 1


class TestParkingFunction:
    def test_counts(self):
        for n in range(1, 8):
            assert len(filter_route.all_parking(n)) == (n + 1) ** (n - 1)

    def test_parking_count_sums_the_paths(self):
        # Pollak's (n+1)^(n-1) against the enumeration and against n!/prod c_i! per path
        for n in range(1, 7):
            assert parking.parking_count(n) == len(filter_route.all_parking(n))
        for n in range(1, 10):
            assert parking.parking_count(n) == sum(
                factorial(n) // prod(map(factorial, path.run_sizes()))
                for path in DyckPath.all_paths(n))
        assert parking.parking_count(15) == 72057594037927936
        with pytest.raises(ValueError, match="n must be at least 1"):
            parking.parking_count(0)

    def test_validation(self):
        path = DyckPath((0, 1))
        with pytest.raises(ValueError):
            ParkingFunction(path, (1, 1))
        with pytest.raises(ValueError):
            ParkingFunction(path, (2, 1))  # must increase along the rise

    def test_frozen_n2(self):
        rows = [
            (pf.cars, pf.path.areas, pf.area, pf.dinv(), pf.word(), pf.ides())
            for pf in filter_route.all_parking(2)
        ]
        assert rows == [
            ((1, 2), (0, 0), 0, 1, (2, 1), (1, 1)),
            ((2, 1), (0, 0), 0, 0, (1, 2), (2,)),
            ((1, 2), (0, 1), 1, 0, (2, 1), (1, 1)),
        ]

    @given(small_pf())
    @settings(max_examples=60, deadline=None)
    def test_word_and_ides_shapes(self, pf):
        assert sorted(pf.word()) == list(range(1, pf.n + 1))
        ides = pf.ides()
        assert sum(ides) == pf.n
        assert all(part >= 1 for part in ides)
        assert pf.dinv() >= 0


class TestBlockShuffles:
    """Generation and counting against the filter over all n! permutations."""

    PATHS = [path for n in range(1, 7) for path in DyckPath.all_paths(n)]

    def test_all_on_matches_filter(self):
        for path in self.PATHS:
            assert ParkingFunction.all_on(path) == filter_route.all_on(path), path

    def test_car_counts_total(self):
        # n! / prod c_i! parking functions on a path whose runs have sizes c_i
        path = DyckPath((0, 1, 2, 0, 1, 0))
        assert sum(filter_route.car_counts(path.areas).values()) == 720 // (6 * 2)
        assert sum(filter_route.car_counts(path.areas, True).values()) == sum(
            1 for pf in ParkingFunction.all_on(path) if pf.dinv() == 0)

    def test_llt_sum_matches_filter(self):
        for path in self.PATHS:
            assert llt_sum(path) == filter_route.llt_sum(path), path

    def test_schur_counts_match_the_f_aggregate_route(self):
        # straightened inside the dynamic program against straightened at the end
        for path in self.PATHS:
            assert schur_sum(path) == llt_sum(path), path
            agg = filter_route.counts_aggregate(path)
            at_q0 = {alpha: {key: c for key, c in coeffs.items() if not key[0]}
                     for alpha, coeffs in agg.items()}
            assert schur_sum(path, q_zero=True) == filter_route.from_fundamentals(at_q0), path

    def test_staircases_share_one_program(self):
        # k staircases of height n - k + 1 with n cars: every concatenation of k staircases
        def terms(counts):
            return {(lam, d): c for lam, digits in counts.items()
                    for d, c in enumerate(digits) if c}

        for n in range(1, 9):
            for k in range(1, n + 1):
                for q_zero in (False, True):
                    summed: dict = {}
                    for alpha in compositions(n):
                        if len(alpha) == k:
                            areas = tuple(i for part in alpha for i in range(part))
                            for key, c in terms(parking.schur_counts(areas, n, q_zero)).items():
                                summed[key] = summed.get(key, 0) + c
                    shared = parking.schur_counts(tuple(range(n - k + 1)) * k, n, q_zero)
                    assert terms(shared) == {key: c for key, c in summed.items() if c}, \
                        (n, k, q_zero)

    def test_schur_counts_total_the_parking_functions_on_the_path(self):
        # sum_lam f^lam [s_lam] at q = 1 is n!/prod c_i!, f^lam = chi^lam(1^n)
        for n in range(1, 8):
            ones = Partition((1,) * n)
            for path in DyckPath.all_paths(n):
                total = sum(sf.character(lam, ones) * sum(digits)
                            for lam, digits in parking.schur_counts(path.areas, n).items())
                assert total == factorial(n) // prod(map(factorial, path.run_sizes())), path

    @pytest.mark.parametrize("n", range(1, 7))
    def test_side_matches_filter(self, n):
        for k in range(1, n + 1):
            for t_zero in (False, True):
                for q_zero in (False, True):
                    flags = (t_zero, q_zero)
                    assert parking.delta_side_combinatorial(n, k, *flags) == \
                        filter_route.delta_side_combinatorial(n, k, *flags), (k, flags)

    @pytest.mark.parametrize("n, t_zero, q_zero", [
        (n, t_zero, q_zero) for n in (7, 8) for t_zero in (False, True) for q_zero in (False, True)
    ] + [(9, True, False)])
    def test_side_matches_the_f_aggregate_route(self, n, t_zero, q_zero):
        # past the sizes the filter reaches: the ides-keyed count straightened at the end
        for k in range(1, n + 1):
            assert parking.delta_side_combinatorial(n, k, t_zero, q_zero) == \
                filter_route.car_count_side(n, k, t_zero, q_zero), k


class TestFunctionalAccessors:
    def test_enumeration_delegates(self):
        assert len(DyckPath.all_paths(3)) == CATALAN[3]
        assert len(filter_route.all_parking(3)) == 16
        # one rise (row 1), so cars 1..3 with cars[1] > cars[0]
        assert len(ParkingFunction.all_on(DyckPath((0, 1, 1)))) == 3

    def test_statistics_delegate(self):
        pf = ParkingFunction(DyckPath((0, 1)), (1, 2))
        assert pf.area == 1
        assert pf.dinv() == 0
        assert pf.word() == (2, 1)
        assert pf.ides() == (1, 1)
        assert pf.path.area == 1
        assert parking.rise_factor(pf.path.areas) == {0: {1: 1}, 1: {0: 1}}


class TestFundamentalMonomials:
    def test_frozen_small(self):
        assert fundamental_monomials((1, 1), 2) == {(1, 1): 1}
        assert fundamental_monomials((2,), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_totals(self):
        # F_alpha in n variables has one monomial per chain, all coefficients 1
        for alpha in ((3,), (2, 1), (1, 2), (1, 1, 1)):
            mono = fundamental_monomials(alpha, 3)
            assert all(c == 1 for c in mono.values())
            assert all(sum(v) == 3 for v in mono)

    @staticmethod
    def _s21_aggregate() -> dict[tuple[int, ...], dict]:
        # descent compositions of the two standard tableaux of shape (2,1)
        mono: dict[tuple[int, ...], dict] = {}
        for alpha in ((2, 1), (1, 2)):
            for expvec, c in fundamental_monomials(alpha, 3).items():
                slot = mono.setdefault(expvec, {})
                slot[(0, 0)] = slot.get((0, 0), 0) + c
        return mono

    def test_standard_tableaux_assemble_schur(self):
        assert parking._monomials_to_symfunc(self._s21_aggregate(), 3) == sf.s((2, 1))

    def test_asymmetric_aggregate_rejected(self):
        with pytest.raises(AsymmetricAggregateError):
            parking._monomials_to_symfunc({(2, 0): {(0, 0): 1}}, 2)

    def test_missing_rearrangement_rejected(self):
        # one rearrangement of (2,1,0) dropped; the coefficient dicts left all agree
        mono = self._s21_aggregate()
        del mono[(0, 1, 2)]
        with pytest.raises(AsymmetricAggregateError, match="missing rearrangements"):
            parking._monomials_to_symfunc(mono, 3)


class TestRibbonSchur:
    def test_partitions_pass_through(self):
        for n in range(1, 5):
            for lam in partitions_of(n):
                assert sf.straighten(tuple(lam)) == (lam, 1)

    def test_frozen_straightening(self):
        assert sf.straighten((1, 2)) is None
        assert sf.straighten((1, 3)) == (Partition((2, 2)), -1)
        assert sf.straighten((1, 1, 4)) == (Partition((2, 2, 2)), 1)
        assert sf.straighten((2, 1, 3)) == (Partition((2, 2, 2)), -1)

    def test_signed_counts_add_up(self):
        # F_(1,3) straightens to -s_(2,2) and cancels F_(2,2); F_(1,2) vanishes
        agg = {(1, 3): {(0, 0): 2, (1, 0): 1}, (2, 2): {(0, 0): 2}, (1, 2): {(0, 0): 5}}
        assert filter_route.from_fundamentals(agg) == \
            SymFunc({Partition((2, 2)): Coef({(1, 0): -1})})
        assert filter_route.from_fundamentals(
            {(1, 3): {(0, 0): 1}, (2, 2): {(0, 0): 1}}) == SymFunc()
        assert filter_route.from_fundamentals({}) == SymFunc()

    def test_folded_step_matches_the_whole_sort(self):
        # every composition of n <= 8, vanishing ones included, against one sort of beta
        vanishing = 0
        for n in range(1, 9):
            for alpha in compositions(n):
                expected = filter_route.straighten_per_composition(alpha)
                assert sf.straighten(alpha) == expected, alpha
                vanishing += expected is None
        assert vanishing > 0


class TestLLTSums:
    def test_matches_monomial_route_per_path(self):
        for n in range(1, 6):
            for path in DyckPath.all_paths(n):
                agg = filter_route.counts_aggregate(path)
                assert filter_route.from_fundamentals(agg) == monomial_route(agg), path

    def test_schur_positive(self):
        for n in range(1, 5):
            for path in DyckPath.all_paths(n):
                for lam, c in llt_sum(path).terms.items():
                    assert all(i >= 0 and j >= 0 and v > 0 for (i, j), v in c.terms), (path, lam)

    def test_q1_counts_parking_functions(self):
        # each Schur term contributes its standard-tableau count, so every
        # path total counts the parking functions living on it
        for n in range(1, 5):
            total = ZERO
            ones = Partition((1,) * n)
            for path in DyckPath.all_paths(n):
                for lam, c in llt_sum(path).terms.items():
                    total += subs(c, q_image=1) * sf.character(lam, ones)
            assert total == coef((n + 1) ** (n - 1))


class TestDeltaSideCombinatorial:
    def test_k1_is_elementary(self):
        for n in range(1, 6):
            assert field(parking.delta_side_combinatorial(n, 1)) == e(n)

    def test_matches_operator_side(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                combi = parking.delta_side_combinatorial(n, k)
                operator = d.delta_full(sf.s((1,) * (k - 1)), n, prime=True)  # e_(k-1)
                assert combi == operator, (n, k)

    def test_t_zero_variant(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                pruned = parking.delta_side_combinatorial(n, k, t_zero=True)
                full = parking.delta_side_combinatorial(n, k)
                assert field(pruned) == subs_coeffs(full, t_image=ZERO), (n, k)
                assert pruned == d.delta_prime_t0((1,) * (k - 1), n), (n, k)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_q_zero_variant(self, n):
        for k in range(1, n + 1):
            full = parking.delta_side_combinatorial(n, k)
            assert field(parking.delta_side_combinatorial(n, k, q_zero=True)) == \
                subs_coeffs(full, q_image=ZERO), k
            assert field(parking.delta_side_combinatorial(n, k, t_zero=True, q_zero=True)) == \
                subs_coeffs(full, q_image=ZERO, t_image=ZERO), k

    def test_matches_monomial_route(self, monkeypatch):
        # the F-aggregate the reference route straightens, expanded into monomials instead
        aggs = []
        straighten = filter_route.from_fundamentals

        def capture(agg):
            aggs.append(agg)
            return straighten(agg)

        monkeypatch.setattr(filter_route, "from_fundamentals", capture)
        for n in range(1, 6):
            for k in range(1, n + 1):
                for t_zero in (False, True):
                    filter_route.car_count_side(n, k, t_zero)
                    side = parking.delta_side_combinatorial(n, k, t_zero)
                    assert side == monomial_route(aggs.pop()), (n, k, t_zero)

    def test_validation(self):
        with pytest.raises(ValueError):
            parking.delta_side_combinatorial(3, 0)
        with pytest.raises(ValueError):
            parking.delta_side_combinatorial(3, 4)
