"""Symmetric functions with Laurent coefficients in q,t, and principal specializations in ZZ[q].

Everything is stored in the Schur basis as a sparse map {Partition: Coef},
one homogeneous degree per function, each coefficient a ``qfield.Coef``
built once, and ``render`` writes that expansion as text, the package's one
output format.  A ``SymFunc`` has no arithmetic: each route sums its
coefficients as integers or in ZZ[q] first.  ``s`` builds a Schur function.

The t=0 operator sides and thm43 stay in ZZ[q, 1/q] instead, each
coefficient one ``qfield.QPoly``: ``principal_poly`` is
s_lam[1 + q + ... + q^(n-1)] by the hook-content formula.  The package has
no plethysm: each image under X -> X(1-q) that it needs is a
Hall-Littlewood Q_mu = Q'_mu[X(1-q)], which ``hall_littlewood`` builds by
Jing's operator.  The characters (``character``, ``zee``) serve the
power-sum evaluations of ``delta_ops``.

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
from .partition import Partition

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


# -- the principal specialization in ZZ[q] ------------------------------------------

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
