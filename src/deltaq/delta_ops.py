"""Delta operators on symmetric functions and the identity families built on them.

Everything here works with exact coefficients in the field Q(q,t) (or its q-only
subfield) and Schur-basis symmetric functions from :mod:`deltaq.symfunc`.

The central objects:

* ``delta_prime_t0`` / ``delta_full`` -- eigenoperator sums over the modified
  Hall-Littlewood / Macdonald expansions of ``e_n``.  The eigenvalue on H~_mu
  is ``symfunc.evaluate`` of f at the alphabet B_mu (minus 1 when primed), one
  element of Q(q,t); at t=0 it depends only on l(mu) and is computed once per
  length.
* ``lhs_nu`` and ``rhs_nu`` -- the two closed expansions of the same operator
  image, one through the eigenvalue route, one through length-graded
  Hall-Littlewood sums.
* the hook-indexed family (``lhs_hook_closed``, ``rhs_hook``, ``remmel_coeff``,
  ``remmel_sum``) plus the scalar q-binomial identities (``prop31`` .. ``prop33b``)
  that link them.
* ``shifted_cauchy`` -- length-graded Hall-Littlewood expansions of the kernel
  ``h_n[X(1-q^i)]/(1-q^i)``.
* ``span_rank_at_point`` -- rank of the span of plain-Delta images at one point
  (q,t) of GF(p)^2, p = 2^61 - 1: a lower bound on their rank over Q(q,t),
  computed from integer filling counts without a field operation.
  ``span_dimension_report`` is the exact reference, by fraction-free
  elimination over ZZ[q,t].
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from . import hall_littlewood as hl
from . import qfield
from . import symfunc as sf
from .partition import Partition, partitions_of
from .qfield import Coef, ONE, ZERO, q, qbinom, qpoch, qpoch_at
from .symfunc import SymFunc, _as_partition


# -- hook parameter bundle ------------------------------------------------------

@dataclass(frozen=True)
class HookParams:
    """Parameters (k, m, n) describing the hook nu = (m-k, 1^k) inside degree n.

    Requires 0 <= k, k + 1 <= m (so the hook has a positive first part) and
    m < n (the hook is strictly smaller than the operand degree).
    """

    k: int
    m: int
    n: int

    def __post_init__(self):
        if not (0 <= self.k and self.k + 1 <= self.m and self.m < self.n):
            raise ValueError(
                f"need 0 <= k, k+1 <= m, m < n; got k={self.k}, m={self.m}, n={self.n}"
            )

    @property
    def nu(self) -> Partition:
        return Partition((self.m - self.k,) + (1,) * self.k)


# -- Delta operators ------------------------------------------------------------

def _per_length(n: int, coeff: Callable[[int], Coef]) -> Iterator[tuple[Partition, Coef]]:
    """(mu, coeff(l(mu))) over the partitions mu of n, in order.

    coeff is called once per length; lengths with a zero coefficient are skipped.
    """
    by_length: dict[int, Coef] = {}
    for mu in partitions_of(n):
        ell = len(mu)
        if ell not in by_length:
            by_length[ell] = coeff(ell)
        if by_length[ell] != ZERO:
            yield mu, by_length[ell]


def delta_prime_t0(f: SymFunc, n: int) -> SymFunc:
    """Image of e_n under the primed Delta operator for f, with t set to 0.

    e_n = sum_mu (1-q) Pi'_mu B_mu / w_mu H~_mu over the t=0 modified
    Macdonald functions, and the operator scales H~_mu by f[B_mu - 1].  At
    t=0, B_mu = 1 + q + ... + q^(l-1) and Pi'_mu = (q;q)_(l-1) depend only on
    l = l(mu), and (1-q) Pi'_mu B_mu = (q;q)_l.  So f[q + ... + q^(l-1)] (q;q)_l
    is computed once per length l, and each H~_mu is scaled by it over w_mu.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    total = sf.zero()
    for mu, c in _per_length(n, lambda ell: sf.evaluate(f, qbinom(ell, 1) - ONE) * qpoch(ell)):
        total = total + hl.modified_macdonald_t0(mu).scale(c / hl.w_t0(mu))
    return total


def delta_full(f: SymFunc, n: int, prime: bool = True) -> SymFunc:
    """Image of e_n under the (primed or plain) Delta operator for f over Q(q,t).

    Expands e_n over the two-parameter modified Macdonald functions; the
    eigenvalue of f is its evaluation at the cell alphabet
    B_mu = sum q^(col) t^(row), minus 1 for the primed variant.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    total = sf.zero()
    for mu in partitions_of(n):
        wts = hl.macdonald_weights(mu)
        eig = sf.evaluate(f, wts.b - ONE if prime else wts.b)
        if eig == ZERO:
            continue
        coeff = eig * (ONE - q) * (ONE - qfield.t) * wts.pi_prime * wts.b / wts.w
        total = total + hl.modified_macdonald_full(mu).scale(coeff)
    return total


def lhs_nu(nu, n: int) -> SymFunc:
    """omega of the primed-Delta image of e_n for s_nu at t=0, restricted to X(1-q)."""
    nu = _as_partition(nu)
    image = delta_prime_t0(sf.s(nu), n)
    return sf.plethysm(sf.omega(image), ONE - q)


# -- hook-indexed closed forms ---------------------------------------------------

def length_graded_P(n: int, length: int) -> SymFunc:
    """sum_{l(mu)=length} q^(n(mu)) P_mu[X;q] over the partitions mu of n."""
    total = sf.zero()
    for mu in partitions_of(n, length=length):
        total = total + hl.hl_P(mu).scale(q ** mu.nstat())
    return total


def lhs_hook_coeff(params: HookParams, ell: int) -> Coef:
    """Coefficient of q^(-n(mu)) P_mu[X;1/q], l(mu) = ell, in lhs_hook_closed."""
    k, m = params.k, params.m
    return (
        q ** (m + comb(k + 1, 2))
        * qbinom(m - 1, k)
        * qbinom(m + ell - (k + 2), m)
        * qpoch(ell)
    )


def _length_sum(n: int, coeff: Callable[[int], Coef], inverse_q: bool = True) -> SymFunc:
    """sum_mu coeff(l(mu)) q^(-n(mu)) P_mu[X;1/q] over the partitions mu of n.

    With inverse_q False: sum_mu coeff(l(mu)) q^(n(mu)) P_mu[X;q].
    """
    sign = -1 if inverse_q else 1
    total = sf.zero()
    for mu, c in _per_length(n, coeff):
        total = total + hl.hl_P(mu, inverse_q=inverse_q).scale(c * q ** (sign * mu.nstat()))
    return total


def lhs_hook_closed(params: HookParams) -> SymFunc:
    """Closed Hall-Littlewood expansion of lhs_nu for hook nu = (m-k, 1^k)."""
    return _length_sum(params.n, lambda ell: lhs_hook_coeff(params, ell))


def rhs_hook_coeff(params: HookParams, j: int) -> Coef:
    """Coefficient of length_graded_P(n, j) in rhs_hook."""
    k, m = params.k, params.m
    return (
        q ** (m + comb(k + 2, 2) - (k + 2) * j + 1)
        * qbinom(j - 2, k)
        * qbinom(m - 1, j - 2)
        * qpoch(j)
    )


def rhs_hook(params: HookParams) -> SymFunc:
    """Length-graded Hall-Littlewood expansion of the same hook image."""
    total = sf.zero()
    for j in range(params.k + 2, params.m + 2):
        c = rhs_hook_coeff(params, j)
        if c == ZERO:
            continue
        total = total + length_graded_P(params.n, j).scale(c)
    return total


@lru_cache(maxsize=None)
def remmel_coeff(s: int, params: HookParams) -> Coef:
    """Coefficient of the kernel h_n[X(1-q^s)]/(1-q^s) in the hook image."""
    k, m = params.k, params.m
    if not (1 <= s <= m + 1):
        return ZERO
    sign = -ONE if (m + 1 - s) % 2 else ONE
    expo = comb(m + 1 - s, 2) - (k + 1) * m + comb(k + 1, 2)
    return (
        sign
        * q**expo
        * qbinom(m - 1, k)
        * qbinom(k + 2, m + 1 - s)
        * (ONE - q**s)
    )


def hook_kernel(n: int, u) -> SymFunc:
    """h_n[X(1-u)]/(1-u) = sum_r (-u)^r s_(n-r,1^r); support is exactly the hooks."""
    u = qfield.coef(u)
    return sf.hn_times_one_minus_u(n, u).scale(ONE / (ONE - u))


def remmel_sum(params: HookParams) -> SymFunc:
    """Kernel expansion sum_s remmel_coeff(s) * h_n[X(1-q^s)]/(1-q^s)."""
    total = sf.zero()
    for s in range(1, params.m + 2):
        c = remmel_coeff(s, params)
        if c == ZERO:
            continue
        total = total + hook_kernel(params.n, q**s).scale(c)
    return total


# -- scalar q-binomial identities -------------------------------------------------

def prop31(k: int, m: int, ell: int) -> tuple[Coef, Coef]:
    """Alternating-sum evaluation (valid for k+2 <= ell <= m+1); returns (lhs, rhs)."""
    lhs = ZERO
    for i in range(0, min(k + 2, m + 1 - ell) + 1):
        sign = -ONE if i % 2 else ONE
        lhs = lhs + sign * q ** comb(i, 2) * qbinom(k + 2, i) * qbinom(m + 1 - i, ell)
    rhs = q ** ((k + 2) * (m + 1 - ell)) * qbinom(m - k - 1, ell - 2 - k)
    return lhs, rhs


def cor32(k: int, m: int, ell: int) -> tuple[Coef, Coef]:
    """Companion alternating-sum evaluation; returns (lhs, rhs)."""
    lhs = ZERO
    for i in range(0, min(k + 2, m) + 1):
        sign = -ONE if i % 2 else ONE
        lhs = lhs + sign * q ** comb(i, 2) * qbinom(k + 2, i) * qbinom(m + ell - i, ell)
    rhs = q ** ((k + 2) * m) * qbinom(m + ell - (k + 2), ell - (k + 2))
    return lhs, rhs


def _kernel_moment(params: HookParams, shift: int, length: int) -> Coef:
    """sum_s remmel_coeff(s) * (q^(s+shift); q)_length over the kernel indices s."""
    total = ZERO
    for s in range(1, params.m + 2):
        total = total + remmel_coeff(s, params) * qpoch_at(s + shift, length)
    return total


def prop33a(params: HookParams, j: int) -> tuple[Coef, Coef]:
    """Pochhammer moment of the kernel coefficients against (q^(s-j+1);q)_(j-1).

    Returns (lhs, rhs); the rhs is the length-j coefficient of rhs_hook.
    """
    return _kernel_moment(params, 1 - j, j - 1), rhs_hook_coeff(params, j)


def prop33b(params: HookParams, ell: int) -> tuple[Coef, Coef]:
    """Pochhammer moment of the kernel coefficients against (q^(s+1);q)_(ell-1).

    Returns (lhs, rhs); the rhs is the length-ell coefficient of lhs_hook_closed.
    """
    return _kernel_moment(params, 1, ell - 1), lhs_hook_coeff(params, ell)


# -- shifted Cauchy kernels --------------------------------------------------------

def shifted_cauchy(n: int, i: int, variant: str = "direct") -> SymFunc:
    """Length-graded Hall-Littlewood expansion of h_n[X(1-q^i)]/(1-q^i).

    variant "direct":  sum_mu q^(n(mu))  (q^(i-l+1);q)_(l-1) P_mu[X;q]
    variant "inverse": sum_mu q^(-n(mu)) (q^(i+1);q)_(l-1)   P_mu[X;1/q]
    """
    if variant == "direct":
        return _length_sum(n, lambda ell: qpoch_at(i - ell + 1, ell - 1), inverse_q=False)
    if variant == "inverse":
        return _length_sum(n, lambda ell: qpoch_at(i + 1, ell - 1))
    raise ValueError(f"unknown variant {variant!r}")


def shifted_cauchy_target(n: int, i: int) -> SymFunc:
    """The kernel h_n[X(1-q^i)]/(1-q^i) both variants must reproduce."""
    return hook_kernel(n, q**i)


def ghry_sides(n: int, k: int) -> tuple[SymFunc, SymFunc]:
    """Two expansions of the same length-k Hall-Littlewood aggregate.

    left:  sum_mu q^(-n(mu)) [l(mu)-1 choose k-1]_q (q;q)_(l(mu)) P_mu[X;1/q]
    right: q^(-k(k-1)) (q;q)_k sum_{l(mu)=k} q^(n(mu)) P_mu[X;q]
    """
    left = _length_sum(n, lambda ell: qbinom(ell - 1, k - 1) * qpoch(ell))
    right = length_graded_P(n, k).scale(q ** (-k * (k - 1)) * qpoch(k))
    return left, right


# -- general-nu expansions ----------------------------------------------------------

def lhs_expansion_thm41(nu, n: int) -> SymFunc:
    """Eigenvalue-weighted inverse-q Hall-Littlewood expansion of lhs_nu.

    q^|nu| * sum_mu s_nu[1 + q + ... + q^(l(mu)-2)] q^(-n(mu)) (q;q)_(l(mu)) P_mu[X;1/q].
    """
    nu = _as_partition(nu)
    snu = sf.s(nu)
    total = _length_sum(
        n, lambda ell: sf.evaluate(snu, qbinom(ell - 1, 1)) * qpoch(ell)
    )
    return total.scale(q ** nu.size)


def charge_content(nu: Partition, k: int) -> Coef:
    """Charge-graded length-k content of s_nu.

    sum_{l(rho)=k} K_(nu,rho)(q) q^(n(rho)) / b_rho(q), with b_rho the P-to-Q
    normalization prod_i (q;q)_(m_i(rho)).
    """
    total = ZERO
    for rho in partitions_of(nu.size, length=k):
        c = hl.kostka_foulkes(nu, rho)
        if c == ZERO:
            continue
        total = total + c * q ** rho.nstat() / hl.b_factor(rho)
    return total


def schur_principal_eval(nu, j: int) -> tuple[Coef, Coef]:
    """Principal evaluation s_nu[1 + q + ... + q^(j-2)] two ways; returns (direct, graded).

    direct: evaluate p_k -> (1 - q^(k(j-1)))/(1 - q^k) on the power-sum expansion.
    graded: sum over lengths k of the charge-graded length-k content of s_nu,
            each paired with the Pochhammer (q^(j-k);q)_k.
    """
    nu = _as_partition(nu)
    direct = sf.evaluate(sf.s(nu), qbinom(j - 1, 1))
    graded = ZERO
    for k in range(len(nu), nu.size + 1):
        graded = graded + charge_content(nu, k) * qpoch_at(j - k, k)
    return direct, graded


def rhs_nu(nu, n: int) -> SymFunc:
    """Length-graded direct-q Hall-Littlewood expansion matching lhs_nu.

    q^|nu| * sum_k (q;q)_k [charge-graded length-k content of s_nu]
           * q^(-k(k+1)) (q;q)_(k+1) sum_{l(mu)=k+1} q^(n(mu)) P_mu[X;q].
    """
    nu = _as_partition(nu)
    total = sf.zero()
    for k in range(len(nu), nu.size + 1):
        inner = charge_content(nu, k)
        if inner == ZERO:
            continue
        coeff = qpoch(k) * inner * q ** (-k * (k + 1)) * qpoch(k + 1)
        total = total + length_graded_P(n, k + 1).scale(coeff)
    return total.scale(q ** nu.size)


# -- span of plain-Delta images ------------------------------------------------------

#: The prime of the rank at a point, and the points (q, t) tried in order.
SPAN_PRIME = 2**61 - 1
SPAN_POINTS = ((123456789, 987654321), (314159265, 271828182), (161803398, 141421356))


def point_label(point: tuple[int, int]) -> str:
    """'(q,t) = (a, b) mod 2^61-1', the text every rank at a point is reported with."""
    return f"(q,t) = {tuple(point)} mod 2^61-1"


@dataclass(frozen=True)
class SpanReport:
    """Rank of span{ Delta_{s_nu} e_n : 1 <= |nu| <= nu_size_max }.

    ``point`` is None for the exact rank over Q(q,t), else the point (q, t) of
    GF(SPAN_PRIME)^2 the rank was taken at.
    """

    n: int
    nu_count: int
    rank: int
    dim: int  # number of partitions of n, the ambient dimension
    point: tuple[int, int] | None = None


def _feed(n: int, nu_size_max: int | None, image: Callable[[Partition], list],
          reduce: Callable[[list, list], list], point=None) -> SpanReport:
    """Feed the images of s_nu, |nu| = 1..nu_size_max in partitions_of order, to an echelon form.

    ``image(nu)`` is the image's row over the basis partitions_of(n) and
    ``reduce(vec, rows)`` reduces it against the stored (pivot column, row)
    pairs.  Feeding stops once the span is full, so nu_count then reports how
    many images were examined, not the whole sweep size.
    """
    basis = partitions_of(n)
    rows: list[tuple[int, list]] = []  # (pivot column, row) in insertion order
    count = 0
    for size in range(1, (n if nu_size_max is None else nu_size_max) + 1):
        for nu in partitions_of(size):
            if len(rows) == len(basis):
                break
            count += 1
            vec = reduce(image(nu), rows)
            col = next((j for j, v in enumerate(vec) if v), None)
            if col is not None:
                rows.append((col, vec))
    return SpanReport(n=n, nu_count=count, rank=len(rows), dim=len(basis), point=point)


def span_dimension_report(n: int, nu_size_max: int | None = None) -> SpanReport:
    """Rank the plain-Delta images of e_n by fraction-free elimination over ZZ[q,t].

    The exact reference for ``span_rank_at_point``.  Each image is cleared of
    denominators by the lcm of its coefficient denominators, then reduced
    against the stored rows in order by Bareiss's step
    v <- (p_k v - v[c_k] r_k) / p_(k-1), p_0 = 1, where r_k is the k-th stored
    row and p_k its pivot entry in column c_k.  Every such division is exact
    (Sylvester's identity); ``exquo`` raises if one is not.
    """
    basis = partitions_of(n)
    ring = qfield.FIELD.ring

    def image(nu):
        terms = delta_full(sf.s(nu), n, prime=False).terms
        coeffs = [terms.get(lam, ZERO) for lam in basis]
        den = ring.one
        for c in coeffs:
            den = den.lcm(c.denom)
        return [c.numer * den.exquo(c.denom) for c in coeffs]

    def reduce(vec, rows):
        prev = ring.one
        for col, row in rows:
            piv, lead = row[col], vec[col]
            vec = [(piv * v - lead * r).exquo(prev) for v, r in zip(vec, row)]
            prev = piv
        return vec

    return _feed(n, nu_size_max, image, reduce)


def delta_images_at_point(n: int, point: tuple[int, int]) -> Callable[[Partition], list[int]] | None:
    """nu -> Delta_{s_nu} e_n at (q,t) = point mod SPAN_PRIME, a row over partitions_of(n).

    The image is sum_mu s_nu[B_mu] (1-q)(1-t) Pi'_mu B_mu / w_mu H~_mu.  At
    the point, H~_mu comes from its straightened integer filling aggregate,
    s_nu[B_mu] from sum_rho chi^nu(rho)/z_rho p_rho[B_mu] with the power sums
    of the cell monomials (p > n, so every z_rho is a unit), and the weights
    from their cell formulas.  None when some w_mu vanishes mod p there.
    """
    p = SPAN_PRIME
    a, b = point
    shapes = basis = partitions_of(n)
    weights = {mu: hl.macdonald_weights(mu, point) for mu in shapes}
    if any(wts.w % p == 0 for wts in weights.values()):
        return None
    # inv, maj <= n(n+1)/2 and the power-sum exponents are below n^2
    apow = [pow(a, e, p) for e in range(n * n + 1)]
    bpow = [pow(b, e, p) for e in range(n * n + 1)]
    # (1-q)(1-t) Pi'_mu B_mu / w_mu H~_mu as a row over the basis
    scaled = {}
    for mu, agg in hl.filling_aggregates(shapes).items():
        wts = weights[mu]
        scale = (1 - a) * (1 - b) * wts.pi_prime * wts.b * pow(wts.w, -1, p)
        counts = sf.straighten_aggregate(agg)
        row = [sum(k * apow[i] * bpow[j] for (i, j), k in counts.get(lam, {}).items())
               for lam in basis]
        scaled[mu] = [scale * v % p for v in row]
    # p_k[B_mu] for k = 1..n
    power = {mu: [0] + [sum(apow[j * k] * bpow[i * k] for i, j in mu.cells()) % p
                        for k in range(1, n + 1)]
             for mu in shapes}

    def image(nu: Partition) -> list[int]:
        # s_nu = sum_rho chi^nu(rho)/z_rho p_rho
        classes = [(rho, chi * pow(sf.zee(rho), -1, p)) for rho in partitions_of(nu.size)
                   if (chi := sf.character(nu, rho))]
        vec = [0] * len(basis)
        for mu in shapes:
            eig = 0
            for rho, c in classes:
                for k in rho:
                    c = c * power[mu][k] % p
                eig += c
            vec = [(v + eig * h) % p for v, h in zip(vec, scaled[mu])]
        return vec

    return image


def span_rank_at_point(n: int, nu_size_max: int | None = None) -> SpanReport:
    """Rank the plain-Delta images of e_n at one point of GF(p)^2, p = SPAN_PRIME.

    The images come from ``delta_images_at_point`` at the first point of
    SPAN_POINTS where no w_mu vanishes mod p (ValueError if there is none),
    and are fed and reduced in the order of ``span_dimension_report``.

    The images lie in ZZ[q, t, 1/n!, 1/prod_mu w_mu], which maps onto GF(p)
    at every such point.  A minor that is nonzero there is nonzero over
    Q(q,t), so the rank at the point is a lower bound on the exact rank.
    """
    p = SPAN_PRIME

    def reduce(vec, rows):
        for col, row in rows:
            piv, lead = row[col], vec[col]
            if lead:
                vec = [(piv * v - lead * r) % p for v, r in zip(vec, row)]
        return vec

    for point in SPAN_POINTS:
        image = delta_images_at_point(n, point)
        if image is not None:
            return _feed(n, nu_size_max, image, reduce, point=point)
    raise ValueError("some w_mu vanishes at every point: "
                     + "; ".join(point_label(pt) for pt in SPAN_POINTS))
