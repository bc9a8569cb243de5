"""The strip walks of ``tableaux`` by brute force: every subset of cells, every larger shape.

Two conditions are easy to get wrong and are checked here for every shape up
to size 8: removing a vertical strip needs only the rest to be a partition (a
row may fall below the old length of the row under it), and a row that Pieri
lengthens is capped by the old row above it, not by that row's new length.
Adding a vertical strip may start new rows below the shape, one cell each.
"""

from itertools import product

from deltaq.partition import Partition, partitions_of
from deltaq.tableaux import (horizontal_strip_removals, pieri, vertical_strip_additions,
                             vertical_strip_removals)


def strips_by_subsets(lam: Partition, horizontal: bool) -> list[tuple[Partition, int]]:
    """(rho, |S|) for every set S of lam's cells that leaves a diagram rho.

    No two cells of S share a column when horizontal, or a row otherwise.
    """
    cells = list(lam.cells())
    out = []
    for picks in product((False, True), repeat=len(cells)):
        gone = [cell for cell, pick in zip(cells, picks) if pick]
        lines = [j if horizontal else i for i, j in gone]
        kept = {cell for cell, pick in zip(cells, picks) if not pick}
        if len(set(lines)) == len(lines) and all(
                (not j or (i, j - 1) in kept) and (not i or (i - 1, j) in kept) for i, j in kept):
            rows = [sum(1 for i, _ in kept if i == r) for r in range(len(lam))]
            out.append((Partition(p for p in rows if p), len(gone)))
    return out


def test_horizontal_strip_removals():
    for n in range(9):
        for lam in partitions_of(n):
            got = horizontal_strip_removals(lam)
            assert sorted(got) == sorted(strips_by_subsets(lam, True)), lam


def test_vertical_strip_removals():
    assert (Partition(), 2) in vertical_strip_removals(Partition((1, 1)))
    for n in range(9):
        for lam in partitions_of(n):
            got = vertical_strip_removals(lam)
            assert sorted(got) == sorted(strips_by_subsets(lam, False)), lam


def test_pieri():
    # sigma/lam added cell by cell: sigma contains lam, and no two new cells share a column
    assert Partition((2, 2)) not in pieri(Partition((1,)), 3)  # row 2 is capped by lam_1 = 1
    for n in range(9):
        for lam in partitions_of(n):
            for k in range(5):
                want = []
                for sigma in partitions_of(n + k):
                    new = set(sigma.cells()) - set(lam.cells())
                    if len(new) == k and len({j for _, j in new}) == k:
                        want.append(sigma)
                assert sorted(pieri(lam, k)) == sorted(want), (lam, k)


def test_vertical_strip_additions():
    # sigma/kappa added cell by cell: sigma contains kappa, and no two new cells share a row;
    # every b up to the room, which a new column of b cells below kappa can always take
    assert (Partition((1, 1, 1)), 2) in vertical_strip_additions(Partition((1,)), 2)
    for n in range(9):
        for kappa in partitions_of(n):
            want = []
            for b in range(7):
                for sigma in partitions_of(n + b):
                    new = set(sigma.cells()) - set(kappa.cells())
                    if len(new) == b and len({i for i, _ in new}) == b:
                        want.append((sigma, b))
            for room in range(7):
                got = vertical_strip_additions(kappa, room)
                assert sorted(got) == sorted(x for x in want if x[1] <= room), (kappa, room)
