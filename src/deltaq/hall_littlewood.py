"""Hall-Littlewood P and Q and the modified Macdonald bases.

Kostka-Foulkes polynomials and the Schur coefficients of Q_mu come from Jing's
vertex operators, which build the column of each mu from its tail's column
by removing and adding strips (``tableaux``), with no tableau enumerated, in
dense ZZ[q] (``qfield.QPoly``): K_(.,mu)(q) is the column of
Q'_mu = sum_lam K_(lam,mu)(q) s_lam, and <Q_mu, s_lam> that of
Q_mu = Q'_mu[X(1-q)] = b_mu(q) P_mu (Macdonald, ch. III).  The two operators
share one walk and differ in its middle step.  P_mu divides Q_mu exactly by
b_mu (``qfield.one_minus_product``), and ``delta_ops`` reads the Q columns
for its images under X -> X(1-q).  Every table entry becomes one
``qfield.Coef`` through ``qfield.from_poly``, P_mu[X;1/q] after
``qfield.reverse``, which reverses coefficients instead of substituting 1/q.
The two-parameter modified Macdonald functions come from the
Haglund-Haiman-Loehr inv/maj formula over the n! standard fillings:
``_filling_counts(n)`` counts them for every mu |- n in one pass over the n!
words into Schur counts with integer coefficients in q,t, which
``modified_macdonald_full`` reads for ``delta_ops.delta_full``;
``macdonald_weights`` writes H~_mu's coefficient in e_n as a pair
(numerator, w_mu) in ZZ[q,t], cached by shape.  The specialization
H~_mu(X;q,0), which ``deltaq expand --what Htilde0`` prints and ``delta_ops``
sums by length from the Kostka-Foulkes table, has the cocharge coefficients
q^n(mu) K_(lam,mu)(1/q).  Its weight w_t0, in closed form and as a cell
product, and the P-to-Q normalization ``b_factor`` are each one ``QPoly``:
the weights are Laurent polynomials in q, which ``verify`` compares by ``==``.
"""

from __future__ import annotations

from functools import lru_cache
# bench/spans.py counts the fillings through hall_littlewood.multiset_permutations;
# the words 1..n have distinct letters, so itertools yields sympy's multiset order
from itertools import permutations as multiset_permutations
from math import factorial, prod

from . import qfield, symfunc
from .partition import Partition, partitions_of
from .qfield import Coef, QPoly, from_poly, reverse
from .symfunc import SymFunc
from .tableaux import (horizontal_strip_removals, pieri, vertical_strip_additions,
                       vertical_strip_removals)

MACDONALD_FULL_LIMIT = 6


def _jing_column(mu: Partition, column, middle, alternating: bool, extra: int):
    """{lam: coefficient of s_lam} of one Jing operator's column for mu, from ``column(tail)``.

    Each s_lam of the tail's column loses a vertical strip of j cells, times
    (-1)^j; each s_kappa left becomes (q or -q)^i s_rho for each (rho, i) of
    ``middle(kappa, n - |kappa|)``, -q if alternating; and Pieri adds a
    horizontal strip up to size n.  Each coefficient stays one int (Kronecker
    substitution) through all three steps.  Evaluation is a ring map, so only
    the column's digits must fit: below 2^extra n!/prod mu_i!, in degree at
    most n(mu) + extra.
    """
    if not mu:
        return {mu: QPoly([1])}
    n = mu.size
    width = qfield._digit_width(factorial(n) // prod(map(factorial, mu)) << extra)
    digit = 8 * width  # bits
    removed: dict[Partition, int] = {}
    for lam, poly in column(Partition(mu[1:])).items():
        x = qfield._pack(poly.c, width) << (digit * poly.e)
        for kappa, j in vertical_strip_removals(lam):
            removed[kappa] = removed.get(kappa, 0) + (-x if j % 2 else x)
    weighted: dict[Partition, int] = {}
    for kappa, x in removed.items():
        if x:
            for rho, i in middle(kappa, n - kappa.size):
                y = x << (digit * i)
                weighted[rho] = weighted.get(rho, 0) + (-y if alternating and i % 2 else y)
    out: dict[Partition, int] = {}
    for rho, x in weighted.items():
        if x:
            for sigma in pieri(rho, n - rho.size):
                out[sigma] = out.get(sigma, 0) + x
    return {lam: QPoly(qfield._unpack(x, mu.nstat() + extra + 1, width))
            for lam, x in out.items() if x}


@lru_cache(maxsize=None)
def _kf_column(mu: Partition) -> dict[Partition, QPoly]:
    """{lam: K_(lam,mu)(q)}, the nonzero Schur coefficients of Q'_mu, by the Jing-Garsia operator.

    Q'_() = 1 and Q'_mu = H_(mu_1) Q'_(mu_2, ...), where H_m F is the sum of
    h_(m+i+j) q^i (-1)^j h_i^perp e_j^perp F over i, j >= 0 (Jing, Adv. Math.
    87, 1991; Garsia, Discrete Math. 99, 1992): the middle step of
    ``_jing_column`` removes a horizontal strip of i cells.  The entries count
    tableaux, below the n!/prod mu_i! words of content mu, in degree at most n(mu).
    """
    return _jing_column(mu, _kf_column, lambda kappa, room: horizontal_strip_removals(kappa),
                        False, 0)


@lru_cache(maxsize=None)
def _q_column(mu: Partition) -> dict[Partition, QPoly]:
    """{lam: <Q_mu, s_lam>}, the nonzero Schur coefficients of Q_mu, by Jing's operator.

    Q_() = 1 and Q_mu = B_(mu_1) Q_(mu_2, ...), B_m F = sum_i (-1)^i q_(m+i) e_i^perp F
    with q_r = h_r[X(1-q)] = sum_b (-q)^b h_(r-b) e_b (Jing, Adv. Math. 87, 1991):
    the middle step of ``_jing_column`` adds a vertical strip of b cells.  An
    entry's |coefficients| sum to at most 2^n n!/prod mu_i!: Q_mu is
    sum_lam K_(lam,mu)(q) s_lam[X(1-q)], s_lam[X(1-q)] = sum_kappa
    (-q)^|kappa| s_(lam/kappa) s_kappa' has at most 2^n f^lam Schur terms
    when s_nu counts f^nu times, and sum_lam K_(lam,mu)(1) f^lam = n!/prod mu_i!.
    """
    return _jing_column(mu, _q_column, vertical_strip_additions, True, mu.size)


def kostka_foulkes(lam, mu) -> Coef:
    """K_(lam,mu)(q), the coefficient of s_lam in Q'_mu: one entry of ``_kf_column(mu)``."""
    return from_poly(_kf_column(Partition(mu)).get(Partition(lam), QPoly()))


def _b_exponents(mu: Partition) -> list[int]:
    """The exponents j = 1..m_i for each multiplicity m_i of mu: b_mu = prod_j (1 - q^j)."""
    return [j for mult in mu.multiplicities().values() for j in range(1, mult + 1)]


@lru_cache(maxsize=None)
def _p_table(n: int) -> dict[Partition, dict[Partition, QPoly]]:
    """Schur coefficients of P_mu for mu |- n, as {mu: {lam: polynomial in ZZ[q]}}.

    P_mu = Q_mu / b_mu(q) (Macdonald, ch. III): each coefficient of
    ``_q_column(mu)`` divided exactly by every 1 - q^j of b_mu, so a division
    that is not exact raises ArithmeticError.
    """
    table = {}
    for mu in partitions_of(n):
        over_b = [-j for j in _b_exponents(mu)]
        table[mu] = {lam: qfield.one_minus_product(over_b, c) for lam, c in _q_column(mu).items()}
    return table


@lru_cache(maxsize=None)
def _p_table_invq(n: int) -> dict[Partition, SymFunc]:
    """P_mu[X;1/q] for mu |- n, each coefficient p(1/q) by reversing p."""
    return {mu: SymFunc({lam: from_poly(reverse(c)) for lam, c in row.items()})
            for mu, row in _p_table(n).items()}


def hl_P(mu) -> SymFunc:
    """Hall-Littlewood P_mu in the Schur basis."""
    mu = Partition(mu)
    return SymFunc({lam: from_poly(c) for lam, c in _p_table(mu.size)[mu].items()})


def b_factor(mu) -> QPoly:
    """prod_i (q;q)_(m_i(mu)), the P-to-Q normalization, in ZZ[q]."""
    return qfield.one_minus_product(_b_exponents(Partition(mu)))


def hl_Q(mu) -> SymFunc:
    """Q_mu = b_mu(q) P_mu in the Schur basis: its column by Jing's operator (``_q_column``)."""
    return SymFunc({lam: from_poly(c) for lam, c in _q_column(Partition(mu)).items()})


def modified_macdonald_t0(mu) -> SymFunc:
    """One-parameter modified Macdonald function H~_mu(X;q,0).

    Schur coefficients are q^nstat(mu) * K_(lam,mu)(1/q), the cocharge
    Kostka-Foulkes polynomials, each by reversing K_(lam,mu)(q).
    """
    mu = Partition(mu)
    return SymFunc({lam: from_poly(reverse(kf).shift(mu.nstat()))
                    for lam, kf in _kf_column(mu).items()})


# -- specialized weights -------------------------------------------------------

def w_t0(mu) -> QPoly:
    """The t=0 weight w_mu of the expansion of e_n over the modified basis.

    (-1)^(n - l(mu)) q^(2 n(mu) + n - sum_i C(m_i + 1, 2)) b_mu(q), m_i the
    multiplicities of mu.
    """
    mu = Partition(mu)
    mult_exp = sum(m * (m + 1) // 2 for m in mu.multiplicities().values())
    b = b_factor(mu)
    return (-b if (mu.size - len(mu)) % 2 else b).shift(2 * mu.nstat() + mu.size - mult_exp)


def w_t0_cell_product(mu) -> QPoly:
    """Cell-product form of the t=0 w-weight, for cross-checking the closed form.

    The product over the cells of q^leg times 1 - q^(leg+1) in the last
    column (arm 0) and -q^(leg+1) elsewhere.
    """
    poly = QPoly([1])
    for cell in Partition(mu).cell_stats():
        poly = poly.shift(cell.leg)
        poly = (qfield.one_minus_product((cell.leg + 1,), poly) if cell.arm == 0
                else -poly.shift(cell.leg + 1))
    return poly


@lru_cache(maxsize=None)
def macdonald_weights(mu: Partition) -> tuple:
    """((1-q)(1-t) Pi'_mu B_mu, w_mu) in ``qfield.RING`` = ZZ[q,t] by their cell formulas.

    Their quotient is H~_mu's coefficient in e_n.  Cached by shape.
    """
    qv, tv = qfield.RING.gens
    b, numer, w = qfield.RING.zero, (1 - qv) * (1 - tv), qfield.RING.one
    for i, j in mu.cells():
        b += qv**j * tv**i
        if (i, j) != (0, 0):
            numer *= 1 - qv**j * tv**i
    for cell in mu.cell_stats():
        w *= (qv**cell.arm - tv ** (cell.leg + 1)) * (tv**cell.leg - qv ** (cell.arm + 1))
    return numer * b, w


# -- two-parameter modified Macdonald via fillings -------------------------------

def _shape_geometry(mu: Partition):
    """Reading-order cells with the attack pairs and descent data of the shape.

    Rows are indexed French style, bottom row 0 the longest.  Reading order is
    top row first, left to right.  Cell u in row i attacks same-row cells to
    its right and cells strictly left of it in the row below.  Arm and leg
    are those of ``Partition.cell_stats``.
    """
    cells = sorted(mu.cell_stats(), key=lambda x: (-x.row, x.col))
    pos = {(x.row, x.col): idx for idx, x in enumerate(cells)}
    attack: list[tuple[int, int]] = []
    descent: list[tuple[int, int, int, int]] = []  # (pos_u, pos_south, leg+1, arm)
    for u, x in enumerate(cells):
        i, j = x.row, x.col
        attack.extend((u, pos[(i, j2)]) for j2 in range(j + 1, mu[i]))
        if i > 0:
            attack.extend((u, pos[(i - 1, j2)]) for j2 in range(j))
            descent.append((u, pos[(i - 1, j)], x.leg + 1, x.arm))
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


@lru_cache(maxsize=None)
def _filling_counts(n: int) -> dict[Partition, dict[Partition, dict[tuple[int, int], int]]]:
    """{mu: Schur counts {lam: {(inv, maj): count}}} of H~_mu for every mu |- n.

    The n! standard fillings of each mu are counted by the inverse-descent
    composition of the reading word and the exponents of q^inv t^maj.  The
    word is the same for every shape, so one pass over the n! words computes
    each composition once, and each shape's F-aggregate is straightened once.
    """
    aggs: dict[Partition, dict] = {mu: {} for mu in partitions_of(n)}
    shape_data = [(aggs[mu], *_shape_geometry(mu)) for mu in aggs]
    for values in multiset_permutations(range(1, n + 1)):
        ides = symfunc.inverse_descents(values)
        for agg, attack, descent in shape_data:
            slot = agg.setdefault(ides, {})
            key = _filling_stats(values, attack, descent)
            slot[key] = slot.get(key, 0) + 1
    return {mu: symfunc.straighten_aggregate(agg) for mu, agg in aggs.items()}


def modified_macdonald_full(mu) -> SymFunc:
    """Two-parameter modified Macdonald function, from the counts of ``_filling_counts``.

    Refuses sizes above MACDONALD_FULL_LIMIT, where the n! fillings
    are too slow to enumerate to be useful.
    """
    mu = Partition(mu)
    if mu.size > MACDONALD_FULL_LIMIT:
        raise ValueError(
            f"filling enumeration limited to size {MACDONALD_FULL_LIMIT}, got {mu.size}")
    return SymFunc({lam: Coef(counts) for lam, counts in _filling_counts(mu.size)[mu].items()})
