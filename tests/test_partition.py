"""Tests for partitions, cells, and enumeration order."""

import pytest
from hypothesis import given, settings, strategies as st

from references import dominates
from deltaq.partition import (
    CellStat,
    Partition,
    parse_partition,
    partitions_of,
)

partitions_strategy = st.lists(st.integers(1, 6), min_size=0, max_size=6).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_empty(self):
        mu = Partition(())
        assert mu.size == 0
        assert mu.conjugate() == mu
        assert list(mu.cells()) == []

    def test_render_parse_round_trip(self):
        assert Partition((3, 1, 1)).render() == "[3,1,1]"
        assert parse_partition("[3,1,1]") == Partition((3, 1, 1))
        assert parse_partition("[]") == Partition(())

    @given(partitions_strategy)
    @settings(max_examples=60, deadline=None)
    def test_parse_render_inverse(self, mu):
        assert parse_partition(mu.render()) == mu


class TestStatistics:
    def test_size_and_nstat(self):
        mu = Partition((3, 2, 2, 1))
        assert mu.size == 8
        assert mu.nstat() == 0 * 3 + 1 * 2 + 2 * 2 + 3 * 1

    def test_multiplicities(self):
        assert Partition((3, 2, 2, 1)).multiplicities() == {3: 1, 2: 2, 1: 1}

    def test_cell_stats_frozen(self):
        # all four cells of (3,1), worked out on the diagram
        assert Partition((3, 1)).cell_stats() == [
            CellStat(row=0, col=0, arm=2, leg=1, content=0, hook=4),
            CellStat(row=0, col=1, arm=1, leg=0, content=1, hook=2),
            CellStat(row=0, col=2, arm=0, leg=0, content=2, hook=1),
            CellStat(row=1, col=0, arm=0, leg=0, content=-1, hook=1),
        ]

    def test_is_hook(self):
        assert Partition((5,)).is_hook()
        assert Partition((3, 1, 1)).is_hook()
        assert not Partition((2, 2)).is_hook()
        assert not Partition((3, 2)).is_hook()

    def test_functional_accessors_delegate(self):
        mu = Partition((3, 2, 2, 1))
        assert mu.conjugate() == Partition((4, 3, 1))
        # loose iterables are coerced by the constructor
        assert Partition((1, 1, 1)).conjugate() == Partition((3,))
        assert Partition([2, 1]).nstat() == 1

    @given(partitions_strategy)
    @settings(max_examples=60, deadline=None)
    def test_conjugate_involution(self, mu):
        assert mu.conjugate().conjugate() == mu
        assert mu.conjugate().size == mu.size

    @given(partitions_strategy)
    @settings(max_examples=60, deadline=None)
    def test_conjugate_swaps_arm_leg(self, mu):
        stats = {(c.row, c.col): c for c in mu.cell_stats()}
        conj = {(c.row, c.col): c for c in mu.conjugate().cell_stats()}
        for (i, j), c in stats.items():
            d = conj[(j, i)]
            assert (d.arm, d.leg) == (c.leg, c.arm)
            assert d.hook == c.hook

    @given(partitions_strategy)
    @settings(max_examples=60, deadline=None)
    def test_nstat_is_conjugate_arm_sum(self, mu):
        # n(mu) = sum of legs = sum of arms of the conjugate
        assert mu.nstat() == sum(c.leg for c in mu.cell_stats())
        assert mu.nstat() == sum(c.arm for c in mu.conjugate().cell_stats())


class TestDominance:
    def test_basic(self):
        assert dominates((3, 1), (2, 2))
        assert not dominates((2, 2), (3, 1))
        assert dominates((2, 2), (2, 2))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates((2,), (2, 1))


class TestEnumeration:
    def test_counts(self):
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
        assert [len(partitions_of(n)) for n in range(10)] == expected

    def test_reverse_lex_order(self):
        assert [tuple(p) for p in partitions_of(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
        ]

    def test_length_filter(self):
        assert [tuple(p) for p in partitions_of(5, length=2)] == [(4, 1), (3, 2)]

    def test_order_refines_dominance(self):
        # whenever mu dominates lam, mu must come first in the listing
        for n in range(2, 9):
            parts = partitions_of(n)
            pos = {p: i for i, p in enumerate(parts)}
            for a in parts:
                for b in parts:
                    if a != b and dominates(a, b):
                        assert pos[a] < pos[b]
