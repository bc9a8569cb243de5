"""Labeled Dyck paths, their statistics, and the combinatorial operator side.

A Dyck path of size n is stored through its area sequence (a_1, ..., a_n):
a_1 = 0, each a_{i+1} <= a_i + 1, all entries nonnegative.  A parking function
is a Dyck path with car labels 1..n attached to the rows, increasing along
consecutive rows that sit in the same column (the rises).

The generating-function side assembled here:

* per path, the rise factor  prod_{i in Rise} (1 + z t^(-a_i))  and the
  cars sum  sum_{PF} q^(dinv) F_(ides(word))  with F a fundamental
  quasisymmetric function (``llt_sum``);
* ``delta_side_combinatorial(n, k)`` extracts the z^(n-k) coefficient and
  aggregates everything into a Schur expansion over Q(q,t).

Both count parking functions in a plain int F-aggregate
{ides: {(q_exp, t_exp): count}} and pass it once to
``symfunc.from_fundamentals``, the one route from F-expansions to Schur
functions.  The older monomial route (``fundamental_monomials``,
``_monomials_to_symfunc``) stays as the reference the tests check that route
against; nothing in the package calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from . import qfield
from . import symfunc as sf
from .partition import Partition
from .qfield import Coef, ZERO, q, t
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

    def rise_factor(self) -> dict[int, dict[int, int]]:
        """Coefficients of prod_{i in Rise} (1 + z t^(-a_i)) as {z_deg: {t_exp: count}}.

        The t exponents stored here are the (nonpositive) -a_i sums; they are
        offset by t^(area) later.
        """
        out: dict[int, dict[int, int]] = {0: {0: 1}}
        for i in self.rises():
            nxt: dict[int, dict[int, int]] = {}
            for zdeg, tdict in out.items():
                for texp, c in tdict.items():
                    nxt.setdefault(zdeg, {}).setdefault(texp, 0)
                    nxt[zdeg][texp] += c
                    nxt.setdefault(zdeg + 1, {}).setdefault(texp - self.areas[i], 0)
                    nxt[zdeg + 1][texp - self.areas[i]] += c
            out = nxt
        return out

    @staticmethod
    def all_paths(n: int) -> tuple["DyckPath", ...]:
        return tuple(DyckPath(a) for a in _area_sequences(n))


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
        """Cars read by decreasing area, ties broken right to left (top row first)."""
        a = self.path.areas
        order = sorted(range(self.n), key=lambda i: (-a[i], -i))
        return tuple(self.cars[i] for i in order)

    def ides(self) -> tuple[int, ...]:
        """Descent composition of the inverse of the reading word."""
        return sf.inverse_descents(self.word())

    @staticmethod
    def all_on(path: DyckPath) -> tuple["ParkingFunction", ...]:
        rises = set(path.rises())
        out = []
        for perm in permutations(range(1, path.n + 1)):
            if all(perm[i] > perm[i - 1] for i in rises):
                out.append(ParkingFunction(path, perm))
        return tuple(out)

    @staticmethod
    def all_parking(n: int) -> tuple["ParkingFunction", ...]:
        out: list[ParkingFunction] = []
        for path in DyckPath.all_paths(n):
            out.extend(ParkingFunction.all_on(path))
        return tuple(out)


# -- monomial reference route (tests only) ------------------------------------------

@lru_cache(maxsize=None)
def fundamental_monomials(alpha: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of the fundamental quasisymmetric polynomial F_alpha.

    Sums x_{i_1}...x_{i_d} over weakly increasing index sequences in nvars
    variables that strictly increase across the descent positions of alpha.
    Keys are exponent vectors of length nvars.
    """
    d = sum(alpha)
    strict_after = set()
    acc = 0
    for part in alpha[:-1]:
        acc += part
        strict_after.add(acc)  # 1-based position after which the index must grow
    out: dict[tuple[int, ...], int] = {}

    def walk(pos: int, minvar: int, expvec: tuple[int, ...]):
        if pos == d:
            out[expvec] = out.get(expvec, 0) + 1
            return
        for v in range(minvar, nvars):
            new = expvec[:v] + (expvec[v] + 1,) + expvec[v + 1:]
            nxt = v + 1 if (pos + 1) in strict_after else v
            walk(pos + 1, nxt, new)

    walk(0, 0, (0,) * nvars)
    return out


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
    terms: dict[Partition, Coef] = {}
    for lam, coeffs in by_partition.items():
        # symmetry check: every distinct rearrangement must be present
        if _rearrangement_count(lam, nvars) != present[lam]:
            raise AsymmetricAggregateError(f"missing rearrangements of {lam}")
        val = ZERO
        for (qe, te), c in coeffs.items():
            val = val + qfield.coef(c) * q**qe * t**te
        if val != ZERO:
            terms[lam] = val
    return sf.sym("m", terms)


def _rearrangement_count(lam: Partition, nvars: int) -> int:
    from math import factorial

    mults = list(lam.multiplicities().values())
    zeros = nvars - len(lam)
    if zeros < 0:
        return 0
    denom = factorial(zeros)
    for m in mults:
        denom *= factorial(m)
    return factorial(nvars) // denom


# -- LLT-type sums ---------------------------------------------------------------

def _add_cars(agg: dict, path: DyckPath, tpoly: dict[int, int]) -> None:
    """Add sum_{PF on path} q^(dinv) F_(ides) * sum_e tpoly[e] t^e into an F-aggregate."""
    for pf in ParkingFunction.all_on(path):
        slot = agg.setdefault(pf.ides(), {})
        qe = pf.dinv()
        for te, ct in tpoly.items():
            slot[(qe, te)] = slot.get((qe, te), 0) + ct


def llt_sum(path: DyckPath) -> SymFunc:
    """sum over parking functions on the path of q^(dinv) * F_(ides(word)), in the Schur basis."""
    agg: dict[tuple[int, ...], dict] = {}
    _add_cars(agg, path, {0: 1})
    return sf.from_fundamentals(agg)


def delta_side_combinatorial(n: int, k: int, t_zero: bool = False) -> SymFunc:
    """z^(n-k) coefficient of the rise-product parking sum, as a Schur expansion.

    Aggregates  sum_paths [z^(n-k)] t^(area) prod_{rises}(1 + z t^(-a_i))
                * sum_{PF} q^(dinv) F_(ides(word))
    over Q(q,t).  With t_zero, only the t-degree-0 part is kept (every
    surviving path must cover all its positive-area rows by chosen rises).
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    zdeg = n - k
    agg: dict[tuple[int, ...], dict] = {}
    for path in DyckPath.all_paths(n):
        zfac = path.rise_factor().get(zdeg)
        if not zfac:
            continue
        tpoly: dict[int, int] = {}
        for texp, c in zfac.items():
            te = path.area + texp
            if te < 0:
                raise AssertionError(f"negative t power on {path}")
            if t_zero and te != 0:
                continue
            tpoly[te] = tpoly.get(te, 0) + c
        if tpoly:
            _add_cars(agg, path, tpoly)
    return sf.from_fundamentals(agg)
