"""Labeled Dyck paths, their statistics, and the combinatorial operator side.

A Dyck path of size n is stored through its area sequence (a_1, ..., a_n):
a_1 = 0, each a_{i+1} <= a_i + 1, all entries nonnegative.  A parking function
is a Dyck path with car labels 1..n attached to the rows, increasing along
consecutive rows that sit in the same column (the rises).

The rises cut a path into maximal runs of rows (``DyckPath.run_sizes``), and
the cars of each run form one increasing block, so a path whose runs have
sizes c_1, ..., c_r carries n!/(c_1! ... c_r!) parking functions, which
``ParkingFunction.all_on`` generates as block shuffles, one combination of
the free cars per run, in lexicographic order and with none filtered.
``parking_count`` is their total (n+1)^(n-1) (Pollak), built from no path.

The generating-function side builds no ``ParkingFunction``.
``delta_side_combinatorial(n, k)`` extracts the z^(n-k) coefficient of

    sum_paths t^(area) prod_{i in Rise} (1 + z t^(-a_i)) sum_{PF} q^(dinv) F_(ides(word))

with each F_alpha read as the straightened Schur function s_alpha
(Egge-Loehr-Warrington).  ``rise_factor`` expands the rise product, and
``schur_counts`` counts the parking functions by Schur function and dinv,
straightening each part of the descent composition inside its dynamic
program (``symfunc._straighten_step``); both are cached.  ``t_zero`` keeps
the t-degree-0 part, which lives on the concatenations of k staircases
alone, and ``q_zero`` the q-degree-0 part.  Counting by ``ides`` and
straightening at the end is the tests' reference route
(``tests/filter_route.py``).  The older monomial route's last step,
``_monomials_to_symfunc``, stays as the reference the tests check that route
against; nothing in the package calls it.  It reads m_lam as P_lam at q = 1
(Macdonald, III.2), so it needs no Kostka matrix of its own.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, perm
# bench/spans.py counts the permutations tried through parking.permutations
from itertools import combinations, permutations  # noqa: F401

from . import hall_littlewood as hl, qfield, symfunc as sf
from .partition import Partition
from .symfunc import SymFunc


# -- paths ----------------------------------------------------------------------

@dataclass(frozen=True)
class DyckPath:
    """Area-sequence form of a Dyck path: a_1 = 0 and a_{i+1} <= a_i + 1."""

    areas: tuple[int, ...]

    def __post_init__(self):
        a = self.areas
        if not a:
            raise ValueError("empty path")
        if any(not isinstance(x, int) or x < 0 for x in a):
            raise ValueError(f"area entries must be nonnegative integers: {a}")
        if a[0] != 0:
            raise ValueError(f"area sequence must start at 0: {a}")
        for i in range(1, len(a)):
            if a[i] > a[i - 1] + 1:
                raise ValueError(f"area can grow by at most 1 per row: {a}")

    @property
    def n(self) -> int:
        return len(self.areas)

    @property
    def area(self) -> int:
        return sum(self.areas)

    def rises(self) -> tuple[int, ...]:
        """0-based rows i >= 1 whose north step shares a column with row i-1."""
        a = self.areas
        return tuple(i for i in range(1, len(a)) if a[i] == a[i - 1] + 1)

    def run_sizes(self) -> tuple[int, ...]:
        """Sizes of the maximal runs of rows joined by rises, bottom run first."""
        rises = set(self.rises())
        starts = [i for i in range(self.n) if i not in rises] + [self.n]
        return tuple(b - a for a, b in zip(starts, starts[1:]))

    @staticmethod
    def all_paths(n: int) -> tuple["DyckPath", ...]:
        return tuple(DyckPath(a) for a in _area_sequences(n))


@lru_cache(maxsize=None)
def rise_factor(areas: tuple[int, ...]) -> dict[int, dict[int, int]]:
    """Coefficients of t^(area) prod_{i in Rise} (1 + z t^(-a_i)) as {z_deg: {t_exp: count}}.

    Each t exponent is the area less the a_i of a set of rises, so it is
    never negative.  Cached on the area sequence: the factor does not depend
    on k.
    """
    out: dict[int, dict[int, int]] = {0: {sum(areas): 1}}
    for i in DyckPath(areas).rises():
        nxt: dict[int, dict[int, int]] = {}
        for zdeg, tdict in out.items():
            for texp, c in tdict.items():
                for z, te in ((zdeg, texp), (zdeg + 1, texp - areas[i])):
                    slot = nxt.setdefault(z, {})
                    slot[te] = slot.get(te, 0) + c
        out = nxt
    return out


@lru_cache(maxsize=None)
def _area_sequences(n: int) -> tuple[tuple[int, ...], ...]:
    if n < 1:
        raise ValueError("n must be at least 1")
    seqs: list[tuple[int, ...]] = [(0,)]
    for _ in range(n - 1):
        seqs = [s + (v,) for s in seqs for v in range(s[-1] + 2)]
    return tuple(seqs)


# -- parking functions -------------------------------------------------------------

@dataclass(frozen=True)
class ParkingFunction:
    """Dyck path with cars 1..n, one per row, increasing along rises."""

    path: DyckPath
    cars: tuple[int, ...]

    def __post_init__(self):
        n = self.path.n
        if sorted(self.cars) != list(range(1, n + 1)):
            raise ValueError(f"cars must be a permutation of 1..{n}: {self.cars}")
        for i in self.path.rises():
            if self.cars[i] <= self.cars[i - 1]:
                raise ValueError(
                    f"cars must increase along rises; row {i} breaks it: {self.cars}"
                )

    @property
    def n(self) -> int:
        return self.path.n

    @property
    def area(self) -> int:
        return self.path.area

    def dinv(self) -> int:
        a, c = self.path.areas, self.cars
        n = len(a)
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                if a[i] == a[j] and c[i] < c[j]:
                    count += 1
                elif a[i] == a[j] + 1 and c[i] > c[j]:
                    count += 1
        return count

    def word(self) -> tuple[int, ...]:
        """Cars in the reading order of their rows (``_reading_order``)."""
        return tuple(self.cars[i] for i in _reading_order(self.path.areas))

    def ides(self) -> tuple[int, ...]:
        """Descent composition of the inverse of the reading word."""
        return sf.inverse_descents(self.word())

    @staticmethod
    def all_on(path: DyckPath) -> tuple["ParkingFunction", ...]:
        """Every parking function on the path, cars in lexicographic order."""
        return tuple(ParkingFunction(path, cars)
                     for cars in _block_shuffles(path.run_sizes(), tuple(range(1, path.n + 1))))


def _reading_order(areas: tuple[int, ...]) -> list[int]:
    """The rows by decreasing area, ties broken right to left (top row first)."""
    return sorted(range(len(areas)), key=lambda i: (-areas[i], -i))


def parking_count(n: int) -> int:
    """The number of parking functions of size n, (n+1)^(n-1) (Pollak); n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (n + 1) ** (n - 1)


def _block_shuffles(sizes: tuple[int, ...], free: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every way to deal the free cars to consecutive blocks of these sizes, each
    block increasing, in lexicographic order."""
    if len(sizes) == 1:
        yield free
        return
    for block in combinations(free, sizes[0]):
        rest = tuple(c for c in free if c not in block)
        for tail in _block_shuffles(sizes[1:], rest):
            yield block + tail


@lru_cache(maxsize=None)
def schur_counts(areas: tuple[int, ...], n: int,
                 q_zero: bool = False) -> dict[Partition, list[int]]:
    """sum_{PF on the path} q^(dinv) F_(ides(word)) as Schur counts {lam: [count at dinv d]}.

    The cars 1..n are placed in increasing order, each run of rises filling
    from its bottom row up: a state is the set of filled rows (a bitmask) and
    the row of the last car.  Car v+1 on row x adds one dinv pair for each
    filled row i with i < x and a_i = a_x, or i > x and a_i = a_x - 1, and a
    descent at v when row x is read before the row of car v.  The descent
    closes the part v - cut, straightened at once (``symfunc._straighten_step``),
    so a state keeps one signed count per (closed beta bits, cut), packed as
    one int key, and drops the histories that vanish.  A count packs its dinv
    polynomial into one int, so a dinv pair is one shift, and ``q_zero``
    drops a move that gains a pair.  The moves are found once per filled set.

    With fewer cars than rows, on runs that all start at area 0, a filling
    that starts every run is a parking function on the path of the filled
    rows, so one program counts all those paths: a move that leaves more
    empty runs than cars left is dropped.
    """
    rows, a = len(areas), areas
    read = [0] * rows  # position in the reading order of ParkingFunction.word
    for pos, row in enumerate(_reading_order(a)):
        read[row] = pos
    below = [1 << (x - 1) if x and a[x] == a[x - 1] + 1 else 0 for x in range(rows)]
    pairs = [sum(1 << i for i in range(rows)
                 if (i < x and a[i] == a[x]) or (i > x and a[i] == a[x] - 1))
             for x in range(rows)]
    starts = sum(1 << x for x in range(rows) if not below[x])
    # a history places each car on a row, the lowest free one of a run: a bound on |count|
    width = qfield._digit_width(min(perm(rows, n), starts.bit_count() ** n))
    bits, step = 8 * width, sf._straighten_step
    low = n.bit_length()
    cuts = (1 << low) - 1
    # {filled: {last: {beta << low | cut: packed dinv counts}}}
    states = {1 << x: {x: {0: 1}} for x in range(rows) if not below[x]}
    for v in range(1, n):
        nxt: dict[int, dict[int, dict[int, int]]] = {}
        for filled, by_last in states.items():
            moves = []
            tight = (starts & ~filled).bit_count() >= n - v  # each car left must start a run
            for x in range(rows):
                if filled >> x & 1 or filled & below[x] != below[x]:
                    continue
                dinv = (filled & pairs[x]).bit_count()
                if (q_zero and dinv) or (tight and below[x]):
                    continue
                moves.append((x, nxt.setdefault(filled | 1 << x, {}), dinv * bits))
            for last, counts in by_last.items():
                closed = None  # the counts with part v - cut closed, shared by every descent
                for x, targets, shift in moves:
                    if read[x] > read[last]:
                        source = counts
                    elif closed is None:
                        source = closed = {}
                        for key, c in counts.items():
                            hit = step(key >> low, v - (key & cuts), n)
                            if hit is not None:
                                key = hit[0] << low | v
                                closed[key] = closed.get(key, 0) + (c if hit[1] > 0 else -c)
                    else:
                        source = closed
                    slot = targets.get(x)
                    if slot is None:
                        targets[x] = {key: c << shift for key, c in source.items()}
                    else:
                        for key, c in source.items():
                            slot[key] = slot.get(key, 0) + (c << shift)
        states = nxt
    totals: dict[Partition, int] = {}
    for by_last in states.values():
        for counts in by_last.values():
            for key, c in counts.items():
                hit = step(key >> low, n - (key & cuts), n)
                if hit is not None:
                    lam = sf._beta_shape(hit[0], n)
                    totals[lam] = totals.get(lam, 0) + c * hit[1]
    digits = 1 + n * (n - 1) // 2  # dinv counts pairs of cars
    return {lam: qfield._unpack(c, digits, width) for lam, c in totals.items() if c}


# -- monomial reference route (tests only) ------------------------------------------

class AsymmetricAggregateError(ValueError):
    """Raised when a monomial aggregate expected to be symmetric is not."""


def _monomials_to_symfunc(mono: dict[tuple[int, ...], dict], degree: int) -> SymFunc:
    """Turn {exponent vector: {(q_exp, t_exp): int}} into a Schur expansion.

    Checks full S_n symmetry of the aggregate (every rearrangement of an
    exponent vector must carry an identical coefficient dictionary).
    """
    by_partition: dict[Partition, dict] = {}
    present: dict[Partition, int] = {}
    for expvec, coeffs in mono.items():
        if sum(expvec) != degree:
            raise ValueError("inhomogeneous monomial aggregate")
        key = Partition(tuple(sorted((x for x in expvec if x), reverse=True)))
        ref = by_partition.setdefault(key, coeffs)
        if ref is not coeffs and ref != coeffs:
            raise AsymmetricAggregateError(f"asymmetric at exponent vector {expvec}")
        present[key] = present.get(key, 0) + 1
    nvars = len(next(iter(mono))) if mono else degree
    out: dict[Partition, dict] = {}
    for lam, counts in by_partition.items():
        # symmetry check: every distinct rearrangement must be present
        if _rearrangement_count(lam, nvars) != present[lam]:
            raise AsymmetricAggregateError(f"missing rearrangements of {lam}")
        # m_lam is P_lam at q = 1, so its Schur coefficients are the P table's at q = 1
        for mu, poly in hl._p_table(degree)[lam].items():
            if base_c := sum(poly.c):
                slot = out.setdefault(mu, {})
                for key, c in counts.items():
                    slot[key] = slot.get(key, 0) + c * base_c
    return SymFunc({mu: qfield.Coef(counts) for mu, counts in out.items()})


def _rearrangement_count(lam: Partition, nvars: int) -> int:
    mults = list(lam.multiplicities().values())
    zeros = nvars - len(lam)
    if zeros < 0:
        return 0
    denom = factorial(zeros)
    for m in mults:
        denom *= factorial(m)
    return factorial(nvars) // denom


# -- the combinatorial operator side ----------------------------------------------

def delta_side_combinatorial(n: int, k: int, t_zero: bool = False, q_zero: bool = False) -> SymFunc:
    """z^(n-k) coefficient of the rise-product parking sum, as a Schur expansion.

    Aggregates  sum_paths [z^(n-k)] t^(area) prod_{rises}(1 + z t^(-a_i))
                * sum_{PF} q^(dinv) F_(ides(word))
    as integer Schur counts (``schur_counts``).  With t_zero, only the
    t-degree-0 part is kept: every positive-area row must be a chosen rise,
    so the surviving paths are the concatenations of k staircases, each with
    weight 1.  One ``schur_counts`` places the n cars on k staircases of
    height n - k + 1 and counts every such path at once.  With q_zero, only
    the q-degree-0 part is kept (parking functions with dinv = 0).  Both
    together keep the constant term.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    paths = ([(tuple(range(n - k + 1)) * k, {0: 1})] if t_zero else
             ((areas, rise_factor(areas).get(n - k)) for areas in _area_sequences(n)))
    agg: dict[Partition, dict[tuple[int, int], int]] = {}
    for areas, tpoly in paths:
        if not tpoly:
            continue
        for lam, digits in schur_counts(areas, n, q_zero).items():
            slot = agg.setdefault(lam, {})
            for qe, count in enumerate(digits):
                if count:
                    for te, ct in tpoly.items():
                        slot[(qe, te)] = slot.get((qe, te), 0) + count * ct
    return SymFunc({lam: qfield.Coef(counts) for lam, counts in agg.items()})
