"""The strips that the Jing-Garsia operator of ``hall_littlewood`` removes and adds.

lam/rho is a horizontal strip, no two cells in one column, when rho interlaces
lam from below: lam_1 >= rho_1 >= lam_2 >= rho_2 >= ...  A vertical strip of
lam is a horizontal strip of its conjugate, and sigma/lam is a horizontal strip
when sigma below its first row interlaces lam.  Each walk is cached by shape.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .partition import Partition


@lru_cache(maxsize=None)
def horizontal_strip_removals(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """Every (rho, i) with lam/rho a horizontal strip of i cells: lam_(r+1) <= rho_r <= lam_r."""
    return tuple((Partition(p for p in rho if p), lam.size - sum(rho))
                 for rho in product(*map(range, lam[1:] + (0,), (p + 1 for p in lam))))


@lru_cache(maxsize=None)
def vertical_strip_removals(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """Every (kappa, j) with lam/kappa a vertical strip of j cells: conjugate horizontal strips.

    Each row loses at most one cell, and kappa need only be a partition: a
    row may drop below the old length of the row under it.
    """
    return tuple((rho.conjugate(), i) for rho, i in horizontal_strip_removals(lam.conjugate()))


@lru_cache(maxsize=None)
def pieri(lam: Partition, k: int) -> tuple[Partition, ...]:
    """Every sigma with sigma/lam a horizontal strip of k cells: h_k s_lam = sum_sigma s_sigma.

    Row r > 1 of sigma lies between lam_r and lam_(r-1), the old row above
    it, so sigma below its first row is a rho of ``horizontal_strip_removals(lam)``
    and its first row takes the rest, k + |lam/rho|, which must reach lam_1.
    """
    first = lam[0] if lam else 0
    return tuple(Partition((k + i,) + rho if k + i else ())
                 for rho, i in horizontal_strip_removals(lam) if k + i >= first)
