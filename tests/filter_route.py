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

The F-aggregate route is the reference of ``parking.schur_counts``, which
straightens inside its dynamic program.  ``car_counts`` runs the same
dynamic program but counts by descent set of the inverse reading word (an
``ides`` bitmask) and dinv, ``car_count_side`` sums it over the paths into one
F-aggregate, and ``from_fundamentals`` straightens that aggregate at the end,
composition by composition (``symfunc.straighten_aggregate``).
``counts_aggregate`` reads ``car_counts`` back as an F-aggregate for the
tests that straighten it or expand it through monomials, each F_alpha by
``fundamental_monomials``.  ``straighten_per_composition`` is the rule as one
sort of the whole beta sequence, the reference of ``symfunc.straighten``.
"""

from functools import lru_cache
from itertools import combinations, permutations

from deltaq import qfield
from deltaq.parking import DyckPath, ParkingFunction, _area_sequences, _reading_order, rise_factor
from deltaq.partition import Partition
from deltaq.symfunc import SymFunc, straighten_aggregate


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


def llt_sum(path: DyckPath) -> SymFunc:
    agg: dict = {}
    add_cars(agg, path, {0: 1})
    return from_fundamentals(agg)


def rise_exponents(path: DyckPath, size: int) -> dict[int, int]:
    """{area - sum_(i in S) a_i: count} over the sets S of ``size`` rises of the path."""
    out: dict[int, int] = {}
    for chosen in combinations(path.rises(), size):
        te = path.area - sum(path.areas[i] for i in chosen)
        out[te] = out.get(te, 0) + 1
    return out


def delta_side_combinatorial(n: int, k: int, t_zero: bool = False,
                             q_zero: bool = False) -> SymFunc:
    """[z^(n-k)] of the rise products, one chosen set of n-k rises at a time."""
    agg: dict = {}
    for path in DyckPath.all_paths(n):
        tpoly = {te: c for te, c in rise_exponents(path, n - k).items() if not (t_zero and te)}
        if tpoly:
            add_cars(agg, path, tpoly, q_zero)
    return from_fundamentals(agg)


def counts_aggregate(path: DyckPath) -> dict[tuple[int, ...], dict[tuple[int, int], int]]:
    """``car_counts`` of the path as an F-aggregate {ides: {(dinv, 0): count}}."""
    n = path.n
    agg: dict = {}
    for key, count in car_counts(path.areas).items():
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


# -- the F-aggregate route: count by ides, straighten at the end --------------------

def from_fundamentals(agg: dict[tuple[int, ...], dict[tuple[int, int], int]]) -> SymFunc:
    """Schur expansion of sum_alpha F_alpha * sum c q^a t^b, given as {alpha: {(a, b): c}}.

    Valid when the sum is symmetric: then replacing each fundamental
    quasisymmetric function F_alpha by the straightened Schur function s_alpha
    gives its Schur expansion (Egge-Loehr-Warrington).  Counts stay integers
    until each Schur coefficient is built once, as one ``Coef``.
    """
    return SymFunc({lam: qfield.Coef(coeffs) for lam, coeffs in straighten_aggregate(agg).items()})


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


def _from_masks(agg: dict[int, dict], n: int) -> SymFunc:
    """``from_fundamentals`` of an aggregate keyed by ides bitmask instead of composition."""
    by_comp = {}
    for mask, coeffs in agg.items():
        cuts = [v for v in range(1, n) if mask >> v & 1]
        by_comp[tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))] = coeffs
    return from_fundamentals(by_comp)


def car_count_side(n: int, k: int, t_zero: bool = False, q_zero: bool = False) -> SymFunc:
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


def straighten_per_composition(alpha: tuple[int, ...]) -> tuple[Partition, int] | None:
    """The Schur function indexed by a composition, as (partition, +-1) or None for 0.

    Slides beta_i = alpha_i - i; a repeated entry makes the Jacobi-Trudi
    determinant vanish, otherwise sorting beta decreasingly costs the sign of
    the sort and leaves the partition sorted(beta)_i + i.
    """
    beta = [a - i for i, a in enumerate(alpha)]
    if len(set(beta)) < len(beta):
        return None
    swaps = sum(b < c for i, b in enumerate(beta) for c in beta[i + 1:])
    lam = Partition(b + i for i, b in enumerate(sorted(beta, reverse=True)))
    return lam, (-1) ** swaps
