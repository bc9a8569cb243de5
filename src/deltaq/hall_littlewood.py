"""Hall-Littlewood P and Q, transformed Hall-Littlewood H, and modified Macdonald bases.

Kostka-Foulkes polynomials come from the charge statistic on semistandard
tableaux.  P expands through the unitriangular inverse of the Kostka-Foulkes
matrix against the Schur basis.  The two-parameter modified Macdonald
functions come from the Haglund-Haiman-Loehr inv/maj formula over the n!
standard fillings: ``filling_aggregates`` counts them as integer
F-aggregates, which ``symfunc.from_fundamentals`` straightens into Schur
functions over Q(q,t) and ``delta_ops.span_rank_at_point`` evaluates at a
point mod p.  Their one-parameter specialization used
throughout the Delta-operator pipeline is the cocharge variant built from
Kostka-Foulkes at 1/q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from sympy.utilities.iterables import multiset_permutations

from . import qfield, symfunc
from .partition import Partition, partitions_of
from .qfield import Coef, q, t, qpoch
from .symfunc import SymFunc
from .tableaux import charge, reading_word, ssyt

MACDONALD_FULL_LIMIT = 6


@lru_cache(maxsize=None)
def kostka_foulkes(lam: Partition, mu: Partition) -> Coef:
    """K_(lam,mu)(q) = sum of q^charge over SSYT of shape lam, content mu."""
    lam, mu = Partition(lam), Partition(mu)
    total = qfield.ZERO
    for tab in ssyt(lam, mu):
        total += q ** charge(reading_word(tab))
    return total


def kf_table(n: int) -> dict[tuple[Partition, Partition], Coef]:
    """All Kostka-Foulkes polynomials in degree n (zeros included)."""
    parts = partitions_of(n)
    return {(lam, mu): kostka_foulkes(lam, mu) for lam in parts for mu in parts}


@lru_cache(maxsize=None)
def _p_table(n: int) -> dict[Partition, SymFunc]:
    """Schur expansions of P_mu for mu |- n.

    s_nu = sum_rho K_(nu,rho)(q) P_rho with the Kostka-Foulkes matrix
    unitriangular in lex-descending order, so back substitution inverts it.
    """
    order = partitions_of(n)
    out: dict[Partition, SymFunc] = {}
    for j in range(len(order) - 1, -1, -1):
        mu = order[j]
        f = symfunc.s(mu)
        for k in range(j + 1, len(order)):
            c = kostka_foulkes(mu, order[k])
            if c:
                f = f - out[order[k]].scale(c)
        out[mu] = f
    return out


@lru_cache(maxsize=None)
def _p_table_invq(n: int) -> dict[Partition, SymFunc]:
    return {
        mu: symfunc.subs_coeffs(f, q_image=qfield.ONE / q)
        for mu, f in _p_table(n).items()
    }


def hl_P(mu, inverse_q: bool = False) -> SymFunc:
    """Hall-Littlewood P_mu in the Schur basis; with inverse_q, P_mu at q -> 1/q."""
    mu = Partition(mu)
    table = _p_table_invq(mu.size) if inverse_q else _p_table(mu.size)
    return table[mu]


def b_factor(mu) -> Coef:
    """prod_i (q;q)_(m_i(mu)), the P-to-Q normalization."""
    out = qfield.ONE
    for mult in Partition(mu).multiplicities().values():
        out *= qpoch(mult)
    return out


def hl_Q(mu) -> SymFunc:
    """Q_mu = b_mu(q) P_mu."""
    mu = Partition(mu)
    return hl_P(mu).scale(b_factor(mu))


@lru_cache(maxsize=None)
def transformed_H(rho) -> SymFunc:
    """Transformed Hall-Littlewood H_rho = Q_rho[X/(1-q)]."""
    return symfunc.plethysm(hl_Q(Partition(rho)), qfield.ONE / (qfield.ONE - q))


@lru_cache(maxsize=None)
def modified_macdonald_t0(mu) -> SymFunc:
    """One-parameter modified Macdonald function used by the t=0 Delta pipeline.

    Schur coefficients are q^nstat(mu) * K_(lam,mu)(1/q), the cocharge
    Kostka-Foulkes polynomials.
    """
    mu = Partition(mu)
    shift = q ** mu.nstat()
    terms = {}
    for lam in partitions_of(mu.size):
        kf = kostka_foulkes(lam, mu)
        if kf:
            terms[lam] = shift * qfield.subs(kf, q_image=qfield.ONE / q)
    return SymFunc(terms)


# -- specialized weights -------------------------------------------------------

def w_t0(mu) -> Coef:
    """The t=0 weight w_mu of the expansion of e_n over the modified basis."""
    mu = Partition(mu)
    mult_exp = sum(m * (m + 1) // 2 for m in mu.multiplicities().values())
    return (
        (-1) ** (mu.size - len(mu))
        * q ** (2 * mu.nstat() + mu.size - mult_exp)
        * b_factor(mu)
    )


def w_t0_cell_product(mu) -> Coef:
    """Cell-product form of the t=0 w-weight, for cross-checking the closed form."""
    out = qfield.ONE
    for cell in Partition(mu).cell_stats():
        out *= q**cell.leg
        if cell.arm == 0:
            out *= qfield.ONE - q ** (cell.leg + 1)
        else:
            out *= -(q ** (cell.leg + 1))
    return out


@dataclass(frozen=True)
class MacdonaldWeights:
    """Two-parameter weights of the expansion of e_n over the modified basis."""

    b: Coef | int
    pi_prime: Coef | int
    w: Coef | int


def macdonald_weights(mu, at=(q, t)) -> MacdonaldWeights:
    """B_mu, Pi'_mu and w_mu by their cell formulas, with (q, t) set to ``at``.

    At the default ``at`` the weights lie in Q(q,t); at a pair of ints they are
    the exact integer values of the same formulas.
    """
    mu = Partition(mu)
    qv, tv = at
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
    """Two-parameter modified Macdonald function over Q(q,t), by the filling formula.

    Straightens the integer F-aggregate of ``filling_aggregates`` into Schur
    functions.  Refuses sizes above MACDONALD_FULL_LIMIT, where building the
    coefficients in Q(q,t) is too slow to be useful.
    """
    mu = Partition(mu)
    if mu.size > MACDONALD_FULL_LIMIT:
        raise ValueError(
            f"filling enumeration limited to size {MACDONALD_FULL_LIMIT}, got {mu.size}")
    return symfunc.from_fundamentals(filling_aggregates([mu])[mu])
