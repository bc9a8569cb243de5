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

The generating-function side builds no ``ParkingFunction``.  ``car_counts``
counts the parking functions on one path by descent set of the inverse
reading word and dinv, with a dynamic program over the cars 1..n, and
``rise_factor`` expands t^(area) prod_{i in Rise} (1 + z t^(-a_i)); both are
cached on the area sequence, so every k and both families read them once per path.
``delta_side_combinatorial(n, k)`` extracts the z^(n-k) coefficient of

    sum_paths t^(area) prod_{i in Rise} (1 + z t^(-a_i)) sum_{PF} q^(dinv) F_(ides(word))

with F a fundamental quasisymmetric function; ``t_zero`` keeps its
t-degree-0 part and ``q_zero`` its q-degree-0 part (dinv = 0).  It counts
parking functions in a plain int F-aggregate {ides: {(q_exp, t_exp): count}}
and passes it once to ``symfunc.from_fundamentals``, the one route from
F-expansions to Schur functions.  The older monomial route's last step,
``_monomials_to_symfunc``, stays as the reference the tests check that route
against; nothing in the package calls it.  It reads m_lam as the
Hall-Littlewood P_lam at q = 1 (Macdonald, III.2), so it needs no Kostka
matrix of its own.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
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
def car_counts(areas: tuple[int, ...], q_zero: bool = False) -> dict[int, int]:
    """The parking functions on the path counted by (ides, dinv), as {dinv << n | ides: count}.

    ``ides`` is a bitmask with bit v set when v is a descent of the inverse
    reading word (car v+1 is read before car v).  With ``q_zero`` only the
    parking functions with dinv = 0 are counted.

    The cars 1..n are placed in increasing order.  Each run of rises fills
    from its bottom row up, so a state is the set of filled rows (a bitmask)
    and the row of the last car.  Car v+1 on row x adds one dinv pair for each
    filled row i with i < x and a_i = a_x, or i > x and a_i = a_x - 1, and a
    descent at v when row x is read before the row of car v.  dinv never
    falls, so ``q_zero`` drops a state as soon as it gains a pair.
    """
    n = len(areas)
    a = areas
    read = [0] * n  # position in the reading order of ParkingFunction.word
    for pos, row in enumerate(_reading_order(a)):
        read[row] = pos
    below = [1 << (x - 1) if x and a[x] == a[x - 1] + 1 else 0 for x in range(n)]
    pairs = [sum(1 << i for i in range(n)
                 if (i < x and a[i] == a[x]) or (i > x and a[i] == a[x] - 1))
             for x in range(n)]
    states = {(1 << x, x): {0: 1} for x in range(n) if not below[x]}
    for v in range(1, n):
        descent = 1 << v
        nxt: dict[tuple[int, int], dict[int, int]] = {}
        for (filled, last), counts in states.items():
            for x in range(n):
                if filled >> x & 1 or filled & below[x] != below[x]:
                    continue
                dinv = (filled & pairs[x]).bit_count()
                if q_zero and dinv:
                    continue
                step = dinv << n | (descent if read[x] < read[last] else 0)
                state = (filled | 1 << x, x)
                slot = nxt.get(state)
                if slot is None:
                    nxt[state] = {key + step: c for key, c in counts.items()}
                else:
                    for key, c in counts.items():
                        key += step
                        slot[key] = slot.get(key, 0) + c
        states = nxt
    out: dict[int, int] = {}
    for counts in states.values():
        for key, c in counts.items():
            out[key] = out.get(key, 0) + c
    return out


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

def _from_masks(agg: dict[int, dict], n: int) -> SymFunc:
    """``from_fundamentals`` of an aggregate keyed by ides bitmask instead of composition."""
    by_comp = {}
    for mask, coeffs in agg.items():
        cuts = [v for v in range(1, n) if mask >> v & 1]
        by_comp[tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))] = coeffs
    return sf.from_fundamentals(by_comp)


def delta_side_combinatorial(n: int, k: int, t_zero: bool = False, q_zero: bool = False) -> SymFunc:
    """z^(n-k) coefficient of the rise-product parking sum, as a Schur expansion.

    Aggregates  sum_paths [z^(n-k)] t^(area) prod_{rises}(1 + z t^(-a_i))
                * sum_{PF} q^(dinv) F_(ides(word))
    as integer counts.  With t_zero, only the t-degree-0 part is kept (every
    surviving path must cover all its positive-area rows by chosen rises).
    With q_zero, only the q-degree-0 part is kept (parking functions with
    dinv = 0).  Both together keep the constant term.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    zdeg = n - k
    low = (1 << n) - 1
    agg: dict[int, dict] = {}  # {ides bitmask: {(q_exp, t_exp): count}}
    for areas in _area_sequences(n):
        tpoly = rise_factor(areas).get(zdeg, {})
        if t_zero:
            tpoly = {0: tpoly[0]} if 0 in tpoly else {}
        if not tpoly:
            continue
        for key, count in car_counts(areas, q_zero).items():
            slot = agg.setdefault(key & low, {})
            qe = key >> n
            for te, ct in tpoly.items():
                slot[(qe, te)] = slot.get((qe, te), 0) + count * ct
    return _from_masks(agg, n)
