"""Tests for labeled Dyck paths, parking statistics, and the combinatorial side."""

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
    return sf.from_fundamentals(filter_route.counts_aggregate(path))


def small_pf() -> st.SearchStrategy[ParkingFunction]:
    return st.integers(1, 4).flatmap(
        lambda n: st.sampled_from(ParkingFunction.all_parking(n))
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
        # (1 + z t^(-1)) for the single rise at area 1
        assert parking.rise_factor((0, 1)) == {0: {0: 1}, 1: {-1: 1}}
        # no rises: constant 1
        assert parking.rise_factor((0, 0)) == {0: {0: 1}}

    def test_rise_factor_degree_matches_rises(self):
        for n in range(1, 8):
            for path in DyckPath.all_paths(n):
                factor = parking.rise_factor(path.areas)
                assert max(factor) == len(path.rises())
                assert sum(factor[0].values()) == 1


class TestParkingFunction:
    def test_counts(self):
        for n in range(1, 8):
            assert len(ParkingFunction.all_parking(n)) == (n + 1) ** (n - 1)

    def test_validation(self):
        path = DyckPath((0, 1))
        with pytest.raises(ValueError):
            ParkingFunction(path, (1, 1))
        with pytest.raises(ValueError):
            ParkingFunction(path, (2, 1))  # must increase along the rise

    def test_frozen_n2(self):
        rows = [
            (pf.cars, pf.path.areas, pf.area, pf.dinv(), pf.word(), pf.ides())
            for pf in ParkingFunction.all_parking(2)
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
        assert sum(parking.car_counts(path.areas).values()) == 720 // (6 * 2)
        assert sum(parking.car_counts(path.areas, True).values()) == sum(
            1 for pf in ParkingFunction.all_on(path) if pf.dinv() == 0)

    def test_llt_sum_matches_filter(self):
        for path in self.PATHS:
            assert llt_sum(path) == filter_route.llt_sum(path), path

    @pytest.mark.parametrize("n", range(1, 7))
    def test_side_matches_filter(self, n):
        for k in range(1, n + 1):
            for t_zero in (False, True):
                for q_zero in (False, True):
                    flags = (t_zero, q_zero)
                    assert parking.delta_side_combinatorial(n, k, *flags) == \
                        filter_route.delta_side_combinatorial(n, k, *flags), (k, flags)


class TestFunctionalAccessors:
    def test_enumeration_delegates(self):
        assert len(DyckPath.all_paths(3)) == CATALAN[3]
        assert len(ParkingFunction.all_parking(3)) == 16
        # one rise (row 1), so cars 1..3 with cars[1] > cars[0]
        assert len(ParkingFunction.all_on(DyckPath((0, 1, 1)))) == 3

    def test_statistics_delegate(self):
        pf = ParkingFunction(DyckPath((0, 1)), (1, 2))
        assert pf.area == 1
        assert pf.dinv() == 0
        assert pf.word() == (2, 1)
        assert pf.ides() == (1, 1)
        assert pf.path.area == 1
        assert parking.rise_factor(pf.path.areas) == {0: {0: 1}, 1: {-1: 1}}


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
        assert sf.from_fundamentals(agg) == SymFunc({(2, 2): Coef({(1, 0): -1})})
        assert sf.from_fundamentals({(1, 3): {(0, 0): 1}, (2, 2): {(0, 0): 1}}) == SymFunc()
        assert sf.from_fundamentals({}) == SymFunc()


class TestLLTSums:
    def test_matches_monomial_route_per_path(self):
        for n in range(1, 6):
            for path in DyckPath.all_paths(n):
                agg = filter_route.counts_aggregate(path)
                assert sf.from_fundamentals(agg) == monomial_route(agg), path

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
        # the F-aggregate the side straightens, expanded into monomials instead
        aggs = []
        straighten = sf.from_fundamentals

        def capture(agg):
            aggs.append(agg)
            return straighten(agg)

        monkeypatch.setattr(sf, "from_fundamentals", capture)
        for n in range(1, 6):
            for k in range(1, n + 1):
                for t_zero in (False, True):
                    side = parking.delta_side_combinatorial(n, k, t_zero)
                    assert side == monomial_route(aggs.pop()), (n, k, t_zero)

    def test_validation(self):
        with pytest.raises(ValueError):
            parking.delta_side_combinatorial(3, 0)
        with pytest.raises(ValueError):
            parking.delta_side_combinatorial(3, 4)
