"""The filter route to parking functions, kept as the reference of the tests.

Every permutation of the cars is tried on a path and kept when it increases
along the rises; each kept parking function contributes q^(dinv) F_(ides)
through its own ``ParkingFunction`` statistics.  ``deltaq.parking`` generates
the parking functions as block shuffles and counts them with a dynamic
program instead; the tests require both routes to agree.  The rise factor
is summed over the chosen sets of rises (``rise_exponents``), not read from
``parking.rise_factor``.  ``all_parking`` lists every parking function of a
size from the package's block shuffles, path by path: the rows of
``deltaq pf --stats``.
``counts_aggregate`` reads the package's count back as an F-aggregate for the
tests that straighten it or expand it through monomials, each F_alpha by
``fundamental_monomials``.
"""

from functools import lru_cache
from itertools import combinations, permutations

from deltaq import parking, symfunc as sf
from deltaq.parking import DyckPath, ParkingFunction


def all_on(path: DyckPath) -> tuple[ParkingFunction, ...]:
    rises = set(path.rises())
    return tuple(ParkingFunction(path, perm)
                 for perm in permutations(range(1, path.n + 1))
                 if all(perm[i] > perm[i - 1] for i in rises))


def all_parking(n: int) -> tuple[ParkingFunction, ...]:
    return tuple(pf for path in DyckPath.all_paths(n) for pf in ParkingFunction.all_on(path))


@lru_cache(maxsize=None)
def _stats(path: DyckPath) -> tuple[tuple[tuple[int, ...], int], ...]:
    return tuple((pf.ides(), pf.dinv()) for pf in all_on(path))


def add_cars(agg: dict, path: DyckPath, tpoly: dict[int, int], q_zero: bool = False) -> None:
    """Add sum_{PF on path} q^(dinv) F_(ides) * sum_e tpoly[e] t^e into an F-aggregate."""
    for ides, qe in _stats(path):
        if q_zero and qe:
            continue
        slot = agg.setdefault(ides, {})
        for te, ct in tpoly.items():
            slot[(qe, te)] = slot.get((qe, te), 0) + ct


def llt_sum(path: DyckPath) -> sf.SymFunc:
    agg: dict = {}
    add_cars(agg, path, {0: 1})
    return sf.from_fundamentals(agg)


def rise_exponents(path: DyckPath, size: int) -> dict[int, int]:
    """{area - sum_(i in S) a_i: count} over the sets S of ``size`` rises of the path."""
    out: dict[int, int] = {}
    for chosen in combinations(path.rises(), size):
        te = path.area - sum(path.areas[i] for i in chosen)
        out[te] = out.get(te, 0) + 1
    return out


def delta_side_combinatorial(n: int, k: int, t_zero: bool = False,
                             q_zero: bool = False) -> sf.SymFunc:
    """[z^(n-k)] of the rise products, one chosen set of n-k rises at a time."""
    agg: dict = {}
    for path in DyckPath.all_paths(n):
        tpoly = {te: c for te, c in rise_exponents(path, n - k).items() if not (t_zero and te)}
        if tpoly:
            add_cars(agg, path, tpoly, q_zero)
    return sf.from_fundamentals(agg)


def counts_aggregate(path: DyckPath) -> dict[tuple[int, ...], dict[tuple[int, int], int]]:
    """``parking.car_counts`` of the path as an F-aggregate {ides: {(dinv, 0): count}}."""
    n = path.n
    agg: dict = {}
    for key, count in parking.car_counts(path.areas).items():
        cuts = [0] + [v for v in range(1, n) if key >> v & 1] + [n]
        ides = tuple(b - a for a, b in zip(cuts, cuts[1:]))
        agg.setdefault(ides, {})[(key >> n, 0)] = count
    return agg


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
