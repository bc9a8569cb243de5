"""Symmetric functions with Laurent coefficients in q,t, and the t=0 routes in ZZ[q].

Everything is stored in the Schur basis as a sparse map {Partition: Coef},
one homogeneous degree per function, each coefficient a ``qfield.Coef``
built once, and ``render`` writes that expansion as text, the package's one
output format.  A ``SymFunc`` has no arithmetic: each route sums its
coefficients as integers or in ZZ[q] first.  ``s`` builds a Schur function.

The t=0 operator sides and thm43 stay in ZZ[q, 1/q] instead, each
coefficient one ``qfield.QPoly``:
``principal_poly`` is s_lam[1 + q + ... + q^(n-1)] by the hook-content
formula, and ``plethysm_one_minus_q`` is f[X(1-q)] by the integer
characters, each polynomial packed into one int (Kronecker substitution).
That is the package's one plethysm; it takes no other alphabet.  Read at q^u
(coefficient i moved to u*i), its output is f[X(1-q^u)], because
p_k[X(1-q^u)] is p_k[X(1-q)] at q -> q^u: ``delta_ops.h_plethysm`` reads it
so for h_n.  ``hall_littlewood`` builds Q_mu and P_mu with it from the
Kostka-Foulkes columns, as Q'_mu[X(1-q)].

``_straighten_step`` is the package's one straightening rule
(Egge-Loehr-Warrington): it reads the Schur function of a composition one
part at a time.  ``parking.schur_counts`` applies it inside its dynamic
program as each part closes, and ``straighten`` folds it over a whole
composition.  ``straighten_aggregate`` straightens an F-aggregate one
composition at a time and sums signed integer counts: the Macdonald fillings
of every shape of one size go through it by ``hall_littlewood``.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from . import qfield
from .partition import Partition, partitions_of

Coef = qfield.Coef


# -- symmetric group characters ----------------------------------------------

def _beta_numbers(lam: Partition) -> tuple[int, ...]:
    length = len(lam)
    return tuple(lam[i] + length - 1 - i for i in range(length))


def _partition_from_beta(beta: tuple[int, ...]) -> Partition:
    length = len(beta)
    return Partition(p for i, b in enumerate(beta) if (p := b - (length - 1 - i)) > 0)


@lru_cache(maxsize=None)
def character(lam: Partition, rho: Partition) -> int:
    """Irreducible character chi^lam on the class rho, by border-strip recursion.

    Border strips of size r correspond to beta numbers b with b - r >= 0 not
    already a beta number; the sign is (-1)^(number of beta numbers jumped).
    """
    if lam.size != rho.size:
        raise ValueError("character needs |lam| = |rho|")
    if not rho:
        return 1
    r = rho[0]
    rest = Partition(rho[1:])
    beta = set(_beta_numbers(lam))
    total = 0
    for b in beta:
        c = b - r
        if c >= 0 and c not in beta:
            height = sum(1 for x in beta if c < x < b)
            new_beta = tuple(sorted((beta - {b}) | {c}, reverse=True))
            total += (-1) ** height * character(_partition_from_beta(new_beta), rest)
    return total


@lru_cache(maxsize=None)
def zee(rho: Partition) -> int:
    """Centralizer order prod_i i^(m_i) m_i!."""
    out = 1
    for part, mult in rho.multiplicities().items():
        out *= part**mult * factorial(mult)
    return out


# -- the SymFunc container ----------------------------------------------------

class SymFunc:
    """Homogeneous symmetric function, Schur-basis sparse map {Partition: coefficient}.

    Keys are ``Partition``s, taken as given (a plain tuple has no ``size`` and
    raises); coefficients are ``qfield.Coef`` values, zero ones left out.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict[Partition, Coef] = {}
        degree = None
        for lam, c in (terms or {}).items():
            if not c:
                continue
            if degree is None:
                degree = lam.size
            elif lam.size != degree:
                raise ValueError("mixed degrees in one symmetric function")
            data[lam] = c
        self.terms = data

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymFunc) and self.terms == other.terms

    def __repr__(self) -> str:
        return render(self)


def _as_partition(x) -> Partition:
    if isinstance(x, int):
        return Partition(() if x == 0 else (x,))
    return Partition(x)


# -- Schur functions -----------------------------------------------------------

def s(lam) -> SymFunc:
    return SymFunc({_as_partition(lam): qfield.ONE})


def is_hook_only(f: SymFunc) -> bool:
    return all(lam.is_hook() for lam in f.terms)


# -- the t=0 routes in ZZ[q] --------------------------------------------------------

@lru_cache(maxsize=None)
def principal_poly(lam: Partition, n: int) -> qfield.QPoly:
    """s_lam[1 + q + ... + q^(n-1)] in ZZ[q], by the hook-content formula.

    q^(n(lam)) prod_x (1 - q^(n + c(x))) / (1 - q^h(x)) over the cells x of lam,
    with content c and hook length h (Stanley, EC2, Thm 7.21.2): every
    numerator factor first, then one exact division by each 1 - q^h(x)
    (``qfield.one_minus_product``).  Zero when l(lam) > n, where a cell of
    content -n gives the factor 1 - q^0.
    """
    if len(lam) > n:
        return qfield.QPoly()
    cells = lam.cell_stats()
    return qfield.one_minus_product([n + x.content for x in cells]
                                    + [-x.hook for x in cells]).shift(lam.nstat())


@lru_cache(maxsize=None)
def _one_minus_q_table(n: int) -> tuple[list, dict, int]:
    """(weights, characters, growth) of the plethysm by X(1 - q) in degree n.

    weights[i] is (n!/z_rho) p_rho[1 - q] = (n!/z_rho) prod_j (1 - q^(rho_j))
    and characters[lam][i] is chi^lam(rho), for rho = partitions_of(n)[i].
    growth bounds how much the route of ``plethysm_one_minus_q`` can grow a
    coefficient: p(n) C^2 W, C the largest |chi| and W the largest weight's
    sum of |coefficients|, so times the number of terms and their largest
    |coefficient| it bounds every coefficient before the division by n!.
    """
    rhos = partitions_of(n)
    weights = [qfield.one_minus_product(rho, qfield.QPoly([factorial(n) // zee(rho)])).c
               for rho in rhos]
    characters = {lam: [character(lam, rho) for rho in rhos] for lam in rhos}
    top = max(abs(chi) for row in characters.values() for chi in row)
    growth = len(rhos) * top * top * max(sum(map(abs, c)) for c in weights)
    return weights, characters, growth


def plethysm_one_minus_q(terms: dict[Partition, qfield.QPoly]) -> dict[Partition, qfield.QPoly]:
    """f[X(1-q)] for f = sum_lam poly_lam s_lam, given and returned as {lam: poly_lam}.

    In ZZ[q, 1/q] by Kronecker substitution: every poly is aligned at the
    least exponent and goes into one int at a digit width that holds
    the largest coefficient the route can reach (``_one_minus_q_table``).
    c_rho = sum_lam chi^lam(rho) poly_lam is scaled by (n!/z_rho) p_rho[1 - q],
    and sum_rho chi^mu(rho) c_rho is unpacked and divided exactly by n! for
    each s_mu.  Zero coefficients are left out.
    """
    if not terms:
        return {}
    n = next(iter(terms)).size
    weights, characters, growth = _one_minus_q_table(n)
    low = min(poly.e for poly in terms.values())
    polys = [(characters[lam], [0] * (poly.e - low) + poly.c) for lam, poly in terms.items()]
    top = max((abs(v) for _, c in polys for v in c), default=0)
    width = qfield._digit_width(growth * len(polys) * top)
    packed = [(row, qfield._pack(c, width)) for row, c in polys]
    images = [(i, sum(row[i] * x for row, x in packed if row[i]) * qfield._pack(weight, width))
              for i, weight in enumerate(weights)]
    images = [(i, x) for i, x in images if x]
    digits = max(len(c) for _, c in polys) + n
    out, scale = {}, factorial(n)
    for mu, row in characters.items():
        total = sum(row[i] * x for i, x in images if row[i])
        if any(c := qfield._unpack(total, digits, width)):
            if any(v % scale for v in c):
                raise ArithmeticError(f"{scale} does not divide the s{mu.render()} coefficient")
            out[mu] = qfield.QPoly([v // scale for v in c], low)
    return out


# -- fundamental quasisymmetric expansions ---------------------------------------

def inverse_descents(word) -> tuple[int, ...]:
    """Descent composition of the inverse of a word in 1..n: i descends when i+1 sits left of i."""
    pos = {v: i for i, v in enumerate(word)}
    comp, prev = [], 0
    for v in range(1, len(word) + 1):
        if v == len(word) or pos[v + 1] < pos[v]:
            comp.append(v - prev)
            prev = v
    return tuple(comp)


def _straighten_step(beta: int, part: int, size: int) -> tuple[int, int] | None:
    """One step of the straightening rule: close the next part of a composition of ``size``.

    ``beta`` holds the closed parts as bits beta_i + size, beta_i = alpha_i - i.
    The part alpha_j adds beta_j = alpha_j - j: None if it is there already (the
    Jacobi-Trudi determinant vanishes), else the new bits and the sign +-1,
    flipped once for each earlier beta_i < beta_j.
    """
    bit = 1 << (part - beta.bit_count() + size)
    if beta & bit:
        return None
    return beta | bit, -1 if (beta & (bit - 1)).bit_count() & 1 else 1


@lru_cache(maxsize=None)
def _beta_shape(beta: int, size: int) -> Partition:
    """The partition whose beta_i = lam_i - i (bits beta_i + size) ``beta`` holds."""
    values = [b - size for b in range(beta.bit_length() - 1, -1, -1) if beta >> b & 1]
    return Partition(b + i for i, b in enumerate(values))


def straighten(alpha: tuple[int, ...]) -> tuple[Partition, int] | None:
    """The Schur function indexed by a composition, as (partition, +-1) or None for 0.

    ``_straighten_step`` folded over the parts of alpha: sorting beta
    decreasingly costs the sign of the sort and leaves the partition
    sorted(beta)_i + i.
    """
    beta, sign, size = 0, 1, sum(alpha)
    for part in alpha:
        hit = _straighten_step(beta, part, size)
        if hit is None:
            return None
        beta, flip = hit
        sign *= flip
    return _beta_shape(beta, size), sign


def straighten_aggregate(
    agg: dict[tuple[int, ...], dict[tuple[int, int], int]],
) -> dict[Partition, dict[tuple[int, int], int]]:
    """Schur counts {lam: {(a, b): c}} of an F-aggregate {alpha: {(a, b): c}}.

    Straightens each composition once and adds the signed integer counts per
    Schur term; counts that cancel stay in the map as zeros.
    """
    by_shape: dict[Partition, dict[tuple[int, int], int]] = {}
    for alpha, coeffs in agg.items():
        hit = straighten(alpha)
        if hit is None:
            continue
        lam, sign = hit
        slot = by_shape.setdefault(lam, {})
        for key, c in coeffs.items():
            slot[key] = slot.get(key, 0) + sign * c
    return by_shape


# -- rendering -------------------------------------------------------------------

def render(f: SymFunc) -> str:
    """Canonical string such as 's[3,1]*(q + 1) + s[2,2]*(-q^2)'."""
    if not f.terms:
        return "0"
    return " + ".join(f"s{lam.render()}*({qfield.render(f.terms[lam])})"
                      for lam in sorted(f.terms, reverse=True))
