"""Hall-Littlewood P and Q and the modified Macdonald bases.

Kostka-Foulkes polynomials come from the charge statistic on semistandard
tableaux, counted as integers into a dense ZZ[q] polynomial (``qfield.QPoly``).
P expands through the unitriangular inverse of the Kostka-Foulkes matrix
against the Schur basis, by back substitution over the same ZZ[q], whose
products are Kronecker substitutions; every table entry becomes one
``qfield.Coef`` through ``qfield.from_pair``, P_mu[X;1/q] after
``qfield.reverse``, which reverses coefficients instead of
substituting 1/q.  The two-parameter modified Macdonald
functions come from the Haglund-Haiman-Loehr inv/maj formula over the n!
standard fillings: ``filling_aggregates`` counts them as integer
F-aggregates, which ``symfunc.from_fundamentals`` straightens into Schur
functions with integer coefficients in q,t and ``delta_ops.span_rank_at_point``
evaluates at a point mod p.  Their one-parameter specialization H~_mu(X;q,0), which ``deltaq
expand --what Htilde0`` prints and ``delta_ops`` sums by length straight from
the Kostka-Foulkes table, has the cocharge coefficients q^n(mu) K_(lam,mu)(1/q).
Its weight w_t0, in closed form and as a cell product, and the P-to-Q
normalization ``b_factor`` are built in ZZ[q]: the weights as Laurent pairs
(``QPoly``, e), which ``verify`` compares as they are, and ``b_factor`` as a
``QPoly`` that ``hl_Q`` multiplies into each coefficient of P_mu.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
# bench/spans.py counts the fillings through hall_littlewood.multiset_permutations;
# the words 1..n have distinct letters, so itertools yields sympy's multiset order
from itertools import permutations as multiset_permutations

from . import qfield, symfunc
from .partition import Partition, partitions_of
from .qfield import Coef, Pair, QPoly, from_pair, qpoch_poly, reverse
from .symfunc import SymFunc
from .tableaux import charge, reading_word, ssyt

MACDONALD_FULL_LIMIT = 6


@lru_cache(maxsize=None)
def _kf_poly(lam: Partition, mu: Partition) -> QPoly:
    """K_(lam,mu)(q): the charges of the SSYT of shape lam, content mu, counted as ints."""
    return QPoly.from_terms(Counter(charge(reading_word(tab)) for tab in ssyt(lam, mu)))


def kostka_foulkes(lam, mu) -> Coef:
    """K_(lam,mu)(q) = sum of q^charge over SSYT of shape lam, content mu."""
    return from_pair(_kf_poly(Partition(lam), Partition(mu)))


@lru_cache(maxsize=None)
def _p_table(n: int) -> dict[Partition, dict[Partition, QPoly]]:
    """Schur coefficients of P_mu for mu |- n, as {mu: {lam: polynomial in ZZ[q]}}.

    s_nu = sum_rho K_(nu,rho)(q) P_rho with the Kostka-Foulkes matrix
    unitriangular over Z[q], so P is its inverse, by back substitution in ZZ[q].
    """
    return symfunc.unitriangular_inverse(n, _kf_poly)


@lru_cache(maxsize=None)
def _p_table_invq(n: int) -> dict[Partition, SymFunc]:
    """P_mu[X;1/q] for mu |- n, each coefficient p(1/q) by reversing p."""
    return {mu: SymFunc({lam: from_pair(*reverse(c, 0)) for lam, c in row.items()})
            for mu, row in _p_table(n).items()}


def hl_P(mu) -> SymFunc:
    """Hall-Littlewood P_mu in the Schur basis."""
    mu = Partition(mu)
    return SymFunc({lam: from_pair(c) for lam, c in _p_table(mu.size)[mu].items()})


def b_factor(mu) -> QPoly:
    """prod_i (q;q)_(m_i(mu)), the P-to-Q normalization, in ZZ[q]."""
    out = QPoly([1])
    for mult in Partition(mu).multiplicities().values():
        out *= qpoch_poly(1, mult)
    return out


def hl_Q(mu) -> SymFunc:
    """Q_mu = b_mu(q) P_mu, each coefficient one ``QPoly`` product."""
    mu = Partition(mu)
    b = b_factor(mu)
    return SymFunc({lam: from_pair(b * c) for lam, c in _p_table(mu.size)[mu].items()})


@lru_cache(maxsize=None)
def modified_macdonald_t0(mu) -> SymFunc:
    """One-parameter modified Macdonald function H~_mu(X;q,0).

    Schur coefficients are q^nstat(mu) * K_(lam,mu)(1/q), the cocharge
    Kostka-Foulkes polynomials, each by reversing K_(lam,mu)(q).
    """
    mu = Partition(mu)
    return SymFunc({lam: from_pair(*reverse(kf, mu.nstat()))
                    for lam in partitions_of(mu.size) if (kf := _kf_poly(lam, mu))})


# -- specialized weights -------------------------------------------------------

def w_t0(mu) -> Pair:
    """The t=0 weight w_mu of the expansion of e_n over the modified basis, as (poly, e).

    (-1)^(n - l(mu)) q^(2 n(mu) + n - sum_i C(m_i + 1, 2)) b_mu(q), m_i the
    multiplicities of mu.
    """
    mu = Partition(mu)
    mult_exp = sum(m * (m + 1) // 2 for m in mu.multiplicities().values())
    b = b_factor(mu)
    return (-b if (mu.size - len(mu)) % 2 else b), 2 * mu.nstat() + mu.size - mult_exp


def w_t0_cell_product(mu) -> Pair:
    """Cell-product form of the t=0 w-weight, as (poly, e), for cross-checking the closed form.

    The product over the cells of q^leg times 1 - q^(leg+1) in the last
    column (arm 0) and -q^(leg+1) elsewhere.
    """
    poly, e = QPoly([1]), 0
    for cell in Partition(mu).cell_stats():
        e += cell.leg
        if cell.arm == 0:
            poly -= poly.shift(cell.leg + 1)
        else:
            poly, e = -poly, e + cell.leg + 1
    return poly, e


@dataclass(frozen=True)
class MacdonaldWeights:
    """Two-parameter weights of the e_n expansion: polynomials of ``qfield.RING``, or ints."""

    b: object
    pi_prime: object
    w: object


@lru_cache(maxsize=None)
def macdonald_weights(mu, at=None) -> MacdonaldWeights:
    """B_mu, Pi'_mu and w_mu by their cell formulas, with (q, t) set to ``at``.

    Without ``at`` the weights are polynomials in ``qfield.RING`` = ZZ[q,t];
    at a pair of ints they are the exact integer values of the same formulas.
    Cached by (mu, at).
    """
    mu = Partition(mu)
    qv, tv = qfield.RING.gens if at is None else at
    one = qv**0
    b, pi_prime, w = one - one, one, one
    for i, j in mu.cells():
        b += qv**j * tv**i
        if (i, j) != (0, 0):
            pi_prime *= one - qv**j * tv**i
    for cell in mu.cell_stats():
        w *= (qv**cell.arm - tv ** (cell.leg + 1)) * (tv**cell.leg - qv ** (cell.arm + 1))
    return MacdonaldWeights(b=b, pi_prime=pi_prime, w=w)


# -- two-parameter modified Macdonald via fillings -------------------------------

@lru_cache(maxsize=None)
def _shape_geometry(mu: Partition):
    """Reading-order cells with the attack pairs and descent data of the shape.

    Rows are indexed French style, bottom row 0 the longest.  Reading order is
    top row first, left to right.  Cell u in row i attacks same-row cells to
    its right and cells strictly left of it in the row below.
    """
    parts = tuple(mu)
    conj = mu.conjugate()
    length = len(parts)
    cells = [(i, j) for i in range(length - 1, -1, -1) for j in range(parts[i])]
    pos = {c: idx for idx, c in enumerate(cells)}
    attack: list[tuple[int, int]] = []
    descent: list[tuple[int, int, int, int]] = []  # (pos_u, pos_south, leg+1, arm)
    for i, j in cells:
        for j2 in range(j + 1, parts[i]):
            attack.append((pos[(i, j)], pos[(i, j2)]))
        if i > 0:
            for j2 in range(j):
                attack.append((pos[(i, j)], pos[(i - 1, j2)]))
            leg = conj[j] - 1 - i
            arm = parts[i] - 1 - j
            descent.append((pos[(i, j)], pos[(i - 1, j)], leg + 1, arm))
    return tuple(attack), tuple(descent)


def _filling_stats(values, attack, descent) -> tuple[int, int]:
    inv = 0
    for a, b in attack:
        if values[a] > values[b]:
            inv += 1
    maj = 0
    for u, south, wt, arm in descent:
        if values[u] > values[south]:
            maj += wt
            inv -= arm
    return inv, maj


def filling_aggregates(shapes) -> dict[Partition, dict[tuple[int, ...], dict]]:
    """The inv/maj filling sums of shapes of one size, as integer F-aggregates.

    Each aggregate {ides: {(inv, maj): count}} counts the n! standard
    fillings of one shape mu (Haglund-Haiman-Loehr) by the inverse-descent
    composition of the reading word and the exponents of q^inv t^maj.  A
    filling's reading word is the same list of values for every shape, so
    one pass over the n! words computes each composition once and counts
    every shape against it.  ``symfunc.straighten_aggregate`` turns an
    aggregate into Schur counts.
    """
    shapes = [Partition(mu) for mu in shapes]
    sizes = {mu.size for mu in shapes}
    if len(sizes) != 1:
        raise ValueError(f"need shapes of one size, got sizes {sorted(sizes)}")
    aggs: dict[Partition, dict] = {mu: {} for mu in shapes}
    shape_data = [(aggs[mu], *_shape_geometry(mu)) for mu in aggs]
    for values in multiset_permutations(range(1, sizes.pop() + 1)):
        ides = symfunc.inverse_descents(values)
        for agg, attack, descent in shape_data:
            slot = agg.setdefault(ides, {})
            key = _filling_stats(values, attack, descent)
            slot[key] = slot.get(key, 0) + 1
    return aggs


@lru_cache(maxsize=None)
def modified_macdonald_full(mu) -> SymFunc:
    """Two-parameter modified Macdonald function, by the filling formula.

    Straightens the integer F-aggregate of ``filling_aggregates`` into Schur
    functions.  Refuses sizes above MACDONALD_FULL_LIMIT, where the n! fillings
    are too slow to enumerate to be useful.
    """
    mu = Partition(mu)
    if mu.size > MACDONALD_FULL_LIMIT:
        raise ValueError(
            f"filling enumeration limited to size {MACDONALD_FULL_LIMIT}, got {mu.size}")
    return symfunc.from_fundamentals(filling_aggregates([mu])[mu])
