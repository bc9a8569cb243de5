"""Symmetric functions with Laurent coefficients in q,t, and the t=0 routes in ZZ[q].

Everything is stored in the Schur basis as a sparse map {Partition: Coef},
one homogeneous degree per function, each coefficient a ``qfield.Coef``
built once, and ``render`` writes that expansion as text, the package's one
output format.  A ``SymFunc`` has no arithmetic: each route sums its
coefficients as integers or in ZZ[q] first.  ``s`` builds a Schur function,
and ``sym`` a function given in the monomial basis by integer counts, through
the inverse Kostka matrix (``parking``'s monomial route is its one caller).

The t=0 operator sides and thm43 stay in ZZ[q] instead, with Laurent
coefficients as pairs (``QPoly``, e) standing for poly * q^e:
``principal_poly`` is s_lam[1 + q + ... + q^(n-1)] by the hook-content
formula, and ``plethysm_one_minus_q`` is f[X(1-q)] by the integer
characters, each polynomial packed into one int (Kronecker substitution).
That is the package's one plethysm; it takes no other alphabet.  Read at q^u
(coefficient i moved to u*i), its output is f[X(1-q^u)], because
p_k[X(1-q^u)] is p_k[X(1-q)] at q -> q^u: ``delta_ops.h_plethysm`` reads it
so for h_n.

``from_fundamentals`` is the package's one route from fundamental
quasisymmetric expansions to Schur functions: it straightens each
composition (Egge-Loehr-Warrington) and sums signed integer counts.  The
parking-function sides and the Macdonald fillings both go through it; the
rank at a point mod p shares its integer half, ``straighten_aggregate``.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from . import qfield
from .partition import Partition, partitions_of
from .tableaux import kostka_number

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
    lam, rho = Partition(lam), Partition(rho)
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
    for part, mult in Partition(rho).multiplicities().items():
        out *= part**mult * factorial(mult)
    return out


# -- the SymFunc container ----------------------------------------------------

class SymFunc:
    """Homogeneous symmetric function, Schur-basis sparse map {Partition: coefficient}.

    The package's coefficients are ``qfield.Coef`` values; zero coefficients
    are left out.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict[Partition, Coef] = {}
        degree = None
        for lam, c in (terms or {}).items():
            lam = Partition(lam)
            if not c:
                continue
            if degree is None:
                degree = lam.size
            elif lam.size != degree:
                raise ValueError("mixed degrees in one symmetric function")
            data[lam] = c
        self.terms = data

    def degree(self) -> int | None:
        return next(iter(self.terms)).size if self.terms else None

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


# -- other bases into the Schur basis -----------------------------------------

def unitriangular_inverse(n: int, entry) -> dict[Partition, dict[Partition, object]]:
    """{a: {b: nonzero entry}}, the inverse of a unitriangular matrix over the partitions of n.

    ``entry(a, b)`` is 1 in its ring at b = a and zero unless b follows a in
    ``partitions_of`` order, which refines dominance (Kostka matrices, integer
    or Kostka-Foulkes).  Back substitution: row a = e_a - sum_b entry(a, b) row b.
    """
    order = partitions_of(n)
    out: dict[Partition, dict[Partition, object]] = {}
    for j in range(len(order) - 1, -1, -1):
        a = order[j]
        row = {a: entry(a, a)}
        for b in order[j + 1:]:
            c = entry(a, b)
            if c:
                for lam, v in out[b].items():
                    val = row.get(lam, 0) - c * v
                    if val:
                        row[lam] = val
                    else:
                        row.pop(lam, None)
        out[a] = row
    return out


@lru_cache(maxsize=None)
def _inverse_kostka(n: int) -> dict[Partition, dict[Partition, int]]:
    """The monomial basis in Schur functions: m_mu = sum_lam c[mu][lam] s_lam."""
    return unitriangular_inverse(n, kostka_number)


def sym(terms) -> SymFunc:
    """A SymFunc from its monomial expansion {lam: {(a, b): c}}, m_lam times sum c q^a t^b.

    The integer counts of each s_mu are summed by the inverse Kostka matrix
    and become one ``Coef``, as in ``from_fundamentals``.
    """
    out: dict[Partition, dict[tuple[int, int], int]] = {}
    for lam, counts in dict(terms).items():
        lam = _as_partition(lam)
        for mu, base_c in _inverse_kostka(lam.size)[lam].items():
            slot = out.setdefault(mu, {})
            for key, c in counts.items():
                slot[key] = slot.get(key, 0) + c * base_c
    return SymFunc({mu: qfield.Coef(counts) for mu, counts in out.items()})


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
    numerator factor first, then one exact division by each 1 - q^h(x).
    Zero when l(lam) > n, where a cell of content -n gives the factor 1 - q^0.
    """
    if len(lam) > n:
        return qfield.QPoly()
    cells = lam.cell_stats()
    c = [1]
    for x in cells:
        c = qfield._times_one_minus(c, n + x.content)
    for x in cells:
        c = qfield._over_one_minus(c, x.hook)
    return qfield.QPoly(c).shift(lam.nstat())


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
    weights = []
    for rho in rhos:
        c = [factorial(n) // zee(rho)]
        for part in rho:
            c = qfield._times_one_minus(c, part)
        weights.append(c)
    characters = {lam: [character(lam, rho) for rho in rhos] for lam in rhos}
    top = max(abs(chi) for row in characters.values() for chi in row)
    growth = len(rhos) * top * top * max(sum(map(abs, c)) for c in weights)
    return weights, characters, growth


def plethysm_one_minus_q(
    terms: dict[Partition, tuple[qfield.QPoly, int]],
) -> dict[Partition, tuple[qfield.QPoly, int]]:
    """f[X(1-q)] for f = sum_lam poly_lam q^(e_lam) s_lam, given and returned as {lam: (poly, e)}.

    In ZZ[q] by Kronecker substitution: every poly
    goes to the least exponent and into one int at a digit width that holds
    the largest coefficient the route can reach (``_one_minus_q_table``).
    c_rho = sum_lam chi^lam(rho) poly_lam is scaled by (n!/z_rho) p_rho[1 - q],
    and sum_rho chi^mu(rho) c_rho is unpacked and divided exactly by n! for
    each s_mu.  Zero coefficients are left out.
    """
    if not terms:
        return {}
    n = next(iter(terms)).size
    weights, characters, growth = _one_minus_q_table(n)
    low = min(e for _, e in terms.values())
    polys = [(characters[lam], poly.shift(e - low).c) for lam, (poly, e) in terms.items()]
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
        if c := qfield._strip(qfield._unpack(total, digits, width)):
            if any(v % scale for v in c):
                raise ArithmeticError(f"{scale} does not divide the s{mu.render()} coefficient")
            out[mu] = (qfield.QPoly([v // scale for v in c]), low)
    return out


# -- fundamental quasisymmetric expansions ---------------------------------------

def inverse_descents(word) -> tuple[int, ...]:
    """Descent composition of the inverse of a word in 1..n: i descends when i+1 sits left of i."""
    pos = {v: i for i, v in enumerate(word)}
    comp, prev = [], 0
    for v in range(1, len(word)):
        if pos[v + 1] < pos[v]:
            comp.append(v - prev)
            prev = v
    comp.append(len(word) - prev)
    return tuple(comp)


def straighten(alpha: tuple[int, ...]) -> tuple[Partition, int] | None:
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


def from_fundamentals(agg: dict[tuple[int, ...], dict[tuple[int, int], int]]) -> SymFunc:
    """Schur expansion of sum_alpha F_alpha * sum c q^a t^b, given as {alpha: {(a, b): c}}.

    Valid when the sum is symmetric: then replacing each fundamental
    quasisymmetric function F_alpha by the straightened Schur function s_alpha
    gives its Schur expansion (Egge-Loehr-Warrington).  Counts stay integers
    until each Schur coefficient is built once, as one ``Coef``.
    """
    return SymFunc({lam: qfield.Coef(coeffs) for lam, coeffs in straighten_aggregate(agg).items()})


# -- rendering -------------------------------------------------------------------

def render(f: SymFunc) -> str:
    """Canonical string such as 's[3,1]*(q + 1) + s[2,2]*(-q^2)'."""
    if not f.terms:
        return "0"
    return " + ".join(f"s{lam.render()}*({qfield.render(f.terms[lam])})"
                      for lam in sorted(f.terms, reverse=True))
