"""Symmetric functions over Q(q,t), and the t=0 routes in ZZ[q].

Everything is stored in the Schur basis as a sparse map {Partition: Coef},
one homogeneous degree per function, and ``render`` writes that expansion as
text, the package's one output format.  ``sym`` builds a function from an
expansion in the Schur, complete, elementary or monomial basis through Kostka
numbers (h_lam = sum_mu K_(mu,lam) s_mu, e_lam its conjugate, m by the
inverse Kostka matrix).

A plethystic alphabet is one element A of Q(q,t), with p_k[A] = A(q^k, t^k):
``plethysm(f, A)`` is f[X A] and ``evaluate(f, A)`` is the scalar f[A].
Both run in ZZ[q,t] over one common denominator: f's Schur coefficients go
over the lcm of their denominators, the power-sum expansion uses the integer
characters, each p_rho is scaled by a cached numerator of (n!/z_rho) p_rho[A],
and the characters map back.  Each output Schur coefficient (or, for
``evaluate``, the one scalar) is cancelled once.  ``plethysm`` serves
``hook_support``'s h_n[X(1-q^u)], and ``evaluate`` only ``delta_full``, whose
alphabet B_mu involves t.

The t=0 operator sides and thm43 stay in ZZ[q] instead, with Laurent
coefficients as pairs (``QPoly``, e) standing for poly * q^e:
``principal_poly`` is s_lam[1 + q + ... + q^(n-1)] by the hook-content
formula, and ``plethysm_one_minus_q`` is f[X(1-q)] by the integer
characters, each polynomial packed into one int (Kronecker substitution).

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

BASES = ("m", "e", "h", "s")


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
    """Homogeneous symmetric function, Schur-basis sparse map."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict[Partition, Coef] = {}
        degree = None
        for lam, c in (terms or {}).items():
            lam = Partition(lam)
            c = qfield.coef(c)
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

    def __add__(self, other: "SymFunc") -> "SymFunc":
        out = dict(self.terms)
        for lam, c in other.terms.items():
            val = out.get(lam, qfield.ZERO) + c
            if val:
                out[lam] = val
            else:
                out.pop(lam, None)
        return SymFunc(out)

    def __neg__(self) -> "SymFunc":
        return SymFunc({lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-other)

    def scale(self, c) -> "SymFunc":
        c = qfield.coef(c)
        return SymFunc({lam: c * v for lam, v in self.terms.items()})

    def __repr__(self) -> str:
        return render(self)


def zero() -> SymFunc:
    return SymFunc()


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


@lru_cache(maxsize=None)
def _basis_elem_to_schur(basis: str, lam: Partition) -> dict[Partition, Coef]:
    lam = Partition(lam)
    if basis == "s":
        return {lam: qfield.ONE}
    if basis in ("h", "e"):
        # h_lam = sum_mu K_(mu,lam) s_mu, and e_lam = omega(h_lam)
        out = {}
        for mu in partitions_of(lam.size):
            kn = kostka_number(mu, lam)
            if kn:
                out[mu if basis == "h" else mu.conjugate()] = qfield.coef(kn)
        return out
    if basis == "m":
        return {mu: qfield.coef(c) for mu, c in _inverse_kostka(lam.size)[lam].items()}
    raise ValueError(f"unknown basis {basis!r}")


def sym(basis: str, terms) -> SymFunc:
    """Build a SymFunc from an expansion in any of the bases m, e, h, s."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    out: dict[Partition, Coef] = {}
    for lam, c in dict(terms).items():
        c = qfield.coef(c)
        if not c:
            continue
        for mu, base_c in _basis_elem_to_schur(basis, _as_partition(lam)).items():
            val = out.get(mu, qfield.ZERO) + c * base_c
            if val:
                out[mu] = val
            else:
                out.pop(mu, None)
    return SymFunc(out)


def s(lam) -> SymFunc:
    return sym("s", {_as_partition(lam): 1})


def h(lam) -> SymFunc:
    return sym("h", {_as_partition(lam): 1})


def is_hook_only(f: SymFunc) -> bool:
    return all(lam.is_hook() for lam in f.terms)


# -- plethysm by an alphabet -----------------------------------------------------

@lru_cache(maxsize=None)
def _power_table(n: int, alphabet: Coef) -> tuple[tuple, object]:
    """The p_rho[A] of every rho |- n over one denominator: (images, den) in RING.

    images[i] / den = p_rho[A] / z_rho for rho = partitions_of(n)[i].  For
    A = N/D, p_k[A] = N(q^k,t^k)/D(q^k,t^k), and the part k occurs at most n//k
    times in rho, so den = n! prod_k D(q^k,t^k)^(n//k) clears every
    denominator and images[i] = (n!/z_rho) prod_k N_k^m_k D_k^(n//k - m_k).
    Cached: no caller may mutate the polynomials.
    """
    num, den = alphabet.numer, alphabet.denom
    nums = {k: num.inflate((k, k)) for k in range(1, n + 1)}
    dens = {k: den.inflate((k, k)) for k in range(1, n + 1)} if den != 1 else {}
    images = []
    for rho in partitions_of(n):
        mult = rho.multiplicities()
        image = qfield.RING(factorial(n) // zee(rho))
        for k in range(1, n + 1):
            m_k = mult.get(k, 0)
            # zero exponents are skipped, not raised to: sympy rejects 0**0
            if m_k:
                image *= nums[k] ** m_k
            if dens and n // k > m_k:
                image *= dens[k] ** (n // k - m_k)
        images.append(image)
    common = qfield.RING(factorial(n))
    for k, d_k in dens.items():
        common *= d_k ** (n // k)
    return tuple(images), common


def _image_numerators(f: SymFunc, alphabet) -> tuple[list, object]:
    """([c_rho for rho |- n], den) in RING with f[XA] = sum_rho c_rho / den * p_rho.

    f's Schur coefficients go over the lcm of their denominators, the power-sum
    expansion uses the integer characters (s_lam = sum_rho chi^lam(rho)/z_rho
    p_rho), and the cached table supplies (n!/z_rho) p_rho[A]; no gcd runs
    except for the lcm of distinct denominators of f.
    """
    n = f.degree()
    lcm = None
    for c in f.terms.values():
        lcm = c.denom if lcm is None or c.denom == lcm else lcm.lcm(c.denom)
    rhos = partitions_of(n)
    sums = [qfield.RING.zero] * len(rhos)
    for lam, c in f.terms.items():
        num = c.numer if c.denom == lcm else c.numer * lcm.exquo(c.denom)
        for i, rho in enumerate(rhos):
            chi = character(lam, rho)
            if chi:
                sums[i] += num.mul_ground(chi)
    images, den = _power_table(n, qfield.coef(alphabet))
    return [c * image if c else c for c, image in zip(sums, images)], lcm * den


def plethysm(f: SymFunc, alphabet) -> SymFunc:
    """f[X A] for an alphabet A in Q(q,t): p_k -> p_k[A] p_k; A = 1 - q gives f[X(1-q)].

    Each Schur coefficient sum_rho chi^lam(rho) c_rho is summed in RING and
    cancelled against the common denominator once.
    """
    if not f:
        return SymFunc()
    nums, den = _image_numerators(f, alphabet)
    rhos = partitions_of(f.degree())
    out = {}
    for lam in rhos:
        total = qfield.RING.zero
        for rho, c in zip(rhos, nums):
            chi = character(lam, rho)
            if chi and c:
                total += c.mul_ground(chi)
        if total:
            out[lam] = qfield.FIELD.new(total, den)
    return SymFunc(out)


def evaluate(f: SymFunc, alphabet) -> Coef:
    """f[A] for an alphabet A in Q(q,t): p_k -> p_k[A]; A = 1 + q + ... + q^(N-1) is N letters.

    The power-sum terms are summed in RING and cancelled once.
    """
    if not f:
        return qfield.ZERO
    nums, den = _image_numerators(f, alphabet)
    return qfield.FIELD.new(sum(nums, qfield.RING.zero), den)


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

    ``plethysm(f, 1 - q)`` in ZZ[q] by Kronecker substitution: every poly
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
    until each Schur coefficient is built once; exponents are nonnegative.
    """
    return SymFunc({
        lam: qfield.FIELD.raw_new(qfield.RING.from_dict(coeffs))
        for lam, coeffs in straighten_aggregate(agg).items()
    })


# -- rendering -------------------------------------------------------------------

def render(f: SymFunc) -> str:
    """Canonical string such as 's[3,1]*(q + 1) + s[2,2]*(-q^2)'."""
    if not f.terms:
        return "0"
    return " + ".join(f"s{lam.render()}*({qfield.render(f.terms[lam])})"
                      for lam in sorted(f.terms, reverse=True))
