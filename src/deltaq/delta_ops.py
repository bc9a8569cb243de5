"""Delta operators on symmetric functions and the identity families built on them.

Expansions are Schur-basis symmetric functions from :mod:`deltaq.symfunc`
whose coefficients are integer Laurent polynomials in q,t (``qfield.Coef``);
the t=0 sides are summed in ZZ[q] first, the two-parameter images in
ZZ[q,t], and the scalar sides stay Laurent pairs in q.

The central objects:

* ``delta_prime_t0`` / ``delta_full`` -- eigenoperator sums over the modified
  Hall-Littlewood / Macdonald expansions of ``e_n``.  ``delta_full``'s
  eigenvalue on H~_mu is f[B_mu] (minus 1 when primed), built from the cells
  of mu in ZZ[q,t] by the integer characters (``_cell_eigenvalue``), and
  each Schur coefficient is divided once by one common denominator.
  ``delta_prime_t0`` is the operator
  for a Schur function s_nu, given by nu: at t=0 the eigenvalue depends only
  on l(mu) and lies in ZZ[q, 1/q], s_nu[q + ... + q^(l-1)] being q^|nu| times
  ``symfunc.principal_poly``, the hook-content product.  Every t=0 side is one
  ``_table_sum`` sum_l c_l T_l, T_l a cached table summed by length: of the
  H~_mu over their weights, of their images under omega and X -> X(1-q), or
  of q^(n(mu)) P_mu, read at q or 1/q.  Every c_l and every Schur
  coefficient of T_l is a pair (``QPoly``, e) standing for poly * q^e;
  ``_table_sum`` sums the products of each Schur coefficient by one
  ``qfield.dot`` and builds one ``qfield.Coef``.
* ``lhs_nu`` and ``rhs_nu`` -- the two closed expansions of the same operator
  image, one through the eigenvalue route, one through length-graded
  Hall-Littlewood sums.  ``lhs_nu`` is ``delta_prime_t0``'s eigenvalue sum
  over ``_lhs_table``: each T_l with its shapes conjugated (omega) and
  X -> X(1-q) applied in ZZ[q] (``symfunc.plethysm_one_minus_q``), once per n.
* the hook-indexed family (``lhs_hook_closed``, ``rhs_hook``, ``remmel_sum``)
  plus the scalar q-binomial identities (``prop31`` .. ``prop33b``) that link
  them.  Their coefficients are products and sums of dense ZZ[q] polynomials
  (``qfield.QPoly``).  The scalar sides stay canonical pairs
  (``qfield.laurent``), each sum over i or s one ``qfield.dot``, and so are
  both sides of ``schur_principal_eval``; each coefficient of an expansion
  becomes one ``qfield.Coef`` through ``qfield.from_pair``.  The kernel
  coefficients remmel_coeff(s) of h_n[X(1-q^s)]/(1-q^s) come from
  ``_remmel_ring``; ``remmel_sum`` adds them times the hook kernels by one
  ``qfield.dot`` and one conversion per hook.
  The kernel moment sum_s remmel_coeff(s) (q^(s+shift);q)_L of prop33a/prop33b
  pulls out the factor [m-1,k]_q q^(C(k+1,2)-(k+1)m) that every s shares, keeps
  the at most k+3 indices s >= m-k-1 with a nonzero term, and folds the factor
  (1 - q^s) of remmel_coeff(s) into the Pochhammer window next to it.
* ``shifted_cauchy`` -- length-graded Hall-Littlewood expansions of the kernel
  ``h_n[X(1-q^i)]/(1-q^i)``, which ``hook_kernel`` writes in hooks.
  ``h_plethysm`` is h_n[X(1-q^u)] by ``symfunc.plethysm_one_minus_q`` read at q^u.
* ``span_rank_at_point`` -- rank of the span of plain-Delta images at one point
  (q,t) of GF(p)^2, p = 2^61 - 1: a lower bound on their rank over Q(q,t),
  computed from integer filling counts without a field operation.
  ``span_dimension_report`` is the exact reference, by fraction-free
  elimination over ZZ[q,t] (``qfield.RING``, sympy's, as for ``delta_full``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod

from . import hall_littlewood as hl
from . import qfield
from . import symfunc as sf
from .partition import Partition, partitions_of
from .qfield import (Coef, Pair, QPoly, dot, from_pair, laurent, qbinom_poly, qpoch_laurent,
                     qpoch_poly, reverse)
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

@lru_cache(maxsize=None)
def _graded_P(n: int, inverse_q: bool) -> dict[int, dict[Partition, Pair]]:
    """{l: sum_{l(mu)=l} q^(n(mu)) P_mu[X;q]} over the partitions mu of n, summed in ZZ[q].

    Each s_lam coefficient is a pair (poly, e) standing for poly * q^e.  With
    inverse_q, the same polynomials read at 1/q, each reversed
    (``qfield.reverse``): sum_{l(mu)=l} q^(-n(mu)) P_mu[X;1/q].
    """
    if inverse_q:
        return {ell: {lam: reverse(c, 0) for lam, (c, _) in row.items()}
                for ell, row in _graded_P(n, False).items()}
    table = hl._p_table(n)
    sums: dict[int, dict[Partition, QPoly]] = {}
    for mu in partitions_of(n):
        row, shift = sums.setdefault(len(mu), {}), mu.nstat()
        for lam, c in table[mu].items():
            row[lam] = row.get(lam, 0) + c.shift(shift)
    return {ell: {lam: (c, 0) for lam, c in row.items() if c} for ell, row in sums.items()}


@lru_cache(maxsize=None)
def _t0_operator_table(n: int) -> dict[int, dict[Partition, Pair]]:
    """{l: sum_{l(mu)=l} (q;q)_l / w_t0(mu) H~_mu(X;q,0)} over the partitions mu of n.

    With E(mu) the exponent of q in w_t0(mu), (q;q)_l / w_t0(mu) is
    (-1)^(n-l) q^(-E(mu)) [l; m(mu)]_q, and H~_mu has the Schur coefficients
    q^(n(mu)) K_(lam,mu)(1/q).  As q-multinomials are palindromic, the s_lam
    coefficient is (-1)^(n-l) q^(C(l,2)-n+l) C(1/q), C = _charge_poly(lam, l).
    """
    return {ell: {lam: reverse(-c if (n - ell) % 2 else c, comb(ell, 2) - n + ell)
                  for lam in partitions_of(n) if (c := _charge_poly(lam, ell))}
            for ell in range(1, n + 1)}


@lru_cache(maxsize=None)
def _lhs_table(n: int) -> dict[int, dict[Partition, Pair]]:
    """{l: omega(T_l)[X(1-q)]} for T_l = ``_t0_operator_table(n)[l]``, in ZZ[q].

    omega conjugates the shapes and ``symfunc.plethysm_one_minus_q`` applies
    X -> X(1-q); both are linear, so the image of sum_l c_l T_l is sum_l c_l
    times row l (``lhs_nu``).
    """
    return {ell: sf.plethysm_one_minus_q({lam.conjugate(): c for lam, c in row.items()})
            for ell, row in _t0_operator_table(n).items()}


def _table_sum(table: dict, coeff: Callable[[int], Pair]) -> SymFunc:
    """sum_l coeff(l) T_l, coeff(l) a pair called once per length; one ``qfield.dot`` per s_lam.

    The products of s_lam are the triples (e_l + e, c_l, T_l[lam]) with
    (c_l, e_l) = coeff(l) and (T_l[lam], e) the table's pair.  They are summed
    from their least exponent by one ``dot`` into one ``Coef``;
    ``SymFunc`` leaves out the zero sums.
    """
    terms: dict[Partition, list[tuple[int, QPoly, QPoly]]] = {}
    for ell, row in table.items():
        c, ce = coeff(ell)
        if c:
            for lam, (poly, e) in row.items():
                terms.setdefault(lam, []).append((ce + e, c, poly))
    out = {}
    for lam, products in terms.items():
        low = min(s for s, _, _ in products)
        out[lam] = from_pair(dot((s - low, c, poly) for s, c, poly in products), low)
    return SymFunc(out)


def _eigenvalue(nu) -> Callable[[int], Pair]:
    """l -> s_nu[q + ... + q^(l-1)] = q^|nu| ``symfunc.principal_poly(nu, l-1)``, as a pair."""
    nu = _as_partition(nu)
    return lambda ell: (sf.principal_poly(nu, ell - 1), nu.size)


def delta_prime_t0(nu, n: int) -> SymFunc:
    """Image of e_n under the primed Delta operator for s_nu, with t set to 0.

    e_n = sum_mu (1-q) Pi'_mu B_mu / w_mu H~_mu over the t=0 modified
    Macdonald functions, and the operator scales H~_mu by s_nu[B_mu - 1].  At
    t=0, B_mu = 1 + q + ... + q^(l-1) and Pi'_mu = (q;q)_(l-1) depend only on
    l = l(mu), and (1-q) Pi'_mu B_mu = (q;q)_l.  So the image is
    sum_l s_nu[q + ... + q^(l-1)] T_l, with T_l = ``_t0_operator_table(n)[l]``
    and the eigenvalue from ``_eigenvalue``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _table_sum(_t0_operator_table(n), _eigenvalue(nu))


def _ring_numerators(coeffs: list[Coef]) -> tuple[list, tuple[int, int]]:
    """([q^a t^b c in ``qfield.RING`` for c in coeffs], (a, b)), (a, b) least to clear 1/q, 1/t."""
    a = max([0] + [-i for c in coeffs for (i, _), _ in c.terms])
    b = max([0] + [-j for c in coeffs for (_, j), _ in c.terms])
    ring = qfield.RING
    return [ring.from_dict({(i + a, j + b): v for (i, j), v in c.terms}) for c in coeffs], (a, b)


def _cell_eigenvalue(numers: dict, mu: Partition, prime: bool):
    """f[B_mu] in ZZ[q,t] for f = sum numers[lam] s_lam, B_mu = sum q^(col) t^(row) over the
    cells of mu, less the cell (0, 0) if prime.

    The power sums p_k[B] = sum_cells q^(col k) t^(row k) are built in RING, and
    each s_lam[B] = sum_rho chi^lam(rho) (n!/z_rho) p_rho[B] / n!, n = deg f, is a
    polynomial by one exact division.
    """
    ring, n = qfield.RING, next(iter(numers)).size if numers else 0
    cells = [cell for cell in mu.cells() if not (prime and cell == (0, 0))]
    power = {k: ring.from_dict({(j * k, i * k): 1 for i, j in cells}) for k in range(1, n + 1)}
    weights = {rho: prod((power[k] for k in rho), start=ring(factorial(n) // sf.zee(rho)))
               for rho in partitions_of(n)}
    total = ring.zero
    for lam, c in numers.items():
        image = sum((w.mul_ground(sf.character(lam, rho)) for rho, w in weights.items()), ring.zero)
        total += c * image.exquo(ring(factorial(n)))
    return total


def delta_full(f: SymFunc, n: int, prime: bool = True) -> SymFunc:
    """Image of e_n under the (primed or plain) Delta operator for f, in ZZ[q,t].

    Expands e_n over the two-parameter modified Macdonald functions; the
    eigenvalue of f is its evaluation at the cell alphabet
    B_mu = sum q^(col) t^(row), minus 1 for the primed variant (``_cell_eigenvalue``).
    Each scalar f[B_mu] (1-q)(1-t) Pi'_mu B_mu / w_mu, f's coefficients times
    q^a t^b, is one reduced fraction; the H~_mu are summed in plain dicts over
    the lcm D of its denominators, and each Schur coefficient is divided by D
    once (an ArithmeticError if D does not divide it) into one ``Coef``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    ring = qfield.RING
    gen_q, gen_t = ring.gens
    numers, (a, b) = _ring_numerators(list(f.terms.values()))
    numers = dict(zip(f.terms, numers))
    scalars, den = {}, ring.one
    for mu in partitions_of(n):
        eig = _cell_eigenvalue(numers, mu, prime)
        if eig:
            wts = hl.macdonald_weights(mu)
            scalar = qfield.FIELD.new(eig * (1 - gen_q) * (1 - gen_t) * wts.pi_prime * wts.b, wts.w)
            scalars[mu], den = scalar, den.lcm(scalar.denom)
    total: dict[Partition, object] = {}
    for mu, scalar in scalars.items():
        scale = scalar.numer * den.exquo(scalar.denom)
        image = hl.modified_macdonald_full(mu).terms
        for lam, c in zip(image, _ring_numerators(list(image.values()))[0]):
            total[lam] = total.get(lam, ring.zero) + scale * c
    out = {}
    for lam, numer in total.items():
        quotient, rest = numer.div(den)
        if rest:
            raise ArithmeticError(f"the s{lam.render()} coefficient has a denominator "
                                  "that is not a monomial")
        out[lam] = Coef({(i - a, j - b): int(v) for (i, j), v in quotient.items()})
    return SymFunc(out)


def lhs_nu(nu, n: int) -> SymFunc:
    """omega of the primed-Delta image of e_n for s_nu at t=0, restricted to X(1-q).

    The image is sum_l s_nu[q + ... + q^(l-1)] T_l (``delta_prime_t0``), so
    this is the same eigenvalue sum over ``_lhs_table(n)``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _table_sum(_lhs_table(n), _eigenvalue(nu))


# -- hook-indexed closed forms ---------------------------------------------------

def lhs_hook_coeff(params: HookParams, ell: int) -> Pair:
    """Coefficient of q^(-n(mu)) P_mu[X;1/q], l(mu) = ell, in lhs_hook_closed, as (poly, e)."""
    k, m = params.k, params.m
    return (qbinom_poly(m - 1, k) * qbinom_poly(m + ell - (k + 2), m) * qpoch_poly(1, ell),
            m + comb(k + 1, 2))


def lhs_hook_closed(params: HookParams) -> SymFunc:
    """Closed Hall-Littlewood expansion of lhs_nu for hook nu = (m-k, 1^k)."""
    return _table_sum(_graded_P(params.n, True), lambda ell: lhs_hook_coeff(params, ell))


def rhs_hook_coeff(params: HookParams, j: int) -> Pair:
    """Coefficient of sum_{l(mu)=j} q^(n(mu)) P_mu[X;q] in rhs_hook, as (poly, e)."""
    k, m = params.k, params.m
    return (qbinom_poly(j - 2, k) * qbinom_poly(m - 1, j - 2) * qpoch_poly(1, j),
            m + comb(k + 2, 2) - (k + 2) * j + 1)


def rhs_hook(params: HookParams) -> SymFunc:
    """Length-graded Hall-Littlewood expansion of the same hook image."""
    return _table_sum(_graded_P(params.n, False), lambda j: rhs_hook_coeff(params, j))


@lru_cache(maxsize=None)
def _alternating_term(k: int, i: int) -> tuple[int, QPoly]:
    """(C(i,2), (-1)^i [k+2, i]_q): q^C(i,2) times the latter is the z^i term of (z;q)_(k+2).

    Zero unless 0 <= i <= k+2.  Cached, so the negated q-binomials keep their
    Kronecker ints (``qfield.dot``) across calls, as the cached ones do.
    """
    term = qbinom_poly(k + 2, i)
    return comb(i, 2), (-term if i % 2 else term)


def _remmel_ring(params: HookParams):
    """remmel_coeff(s) = c q^e q^h r (1 - q^s) over ZZ[q]: returns (c, e, {s: (h, r)}).

    c = [m-1, k]_q and e = C(k+1, 2) - (k+1) m are shared by every s, and
    (h, r) = ``_alternating_term(k, i)`` with i = m+1-s.  Only the s with a
    nonzero r, 1 <= s <= m+1 and i <= k+2, are listed: at most k+3 of them.
    """
    k, m = params.k, params.m
    terms = {s: _alternating_term(k, m + 1 - s) for s in range(max(1, m - k - 1), m + 2)}
    return qbinom_poly(m - 1, k), comb(k + 1, 2) - (k + 1) * m, terms


def _hook(n: int, r: int) -> Partition:
    """The hook s_(n-r,1^r)."""
    return Partition((n - r,) + (1,) * r)


def hook_kernel(n: int, i: int, factor: QPoly | None = None) -> SymFunc:
    """h_n[X(1-u)]/(1-u) at u = q^i: sum_r (-1)^r q^(ir) s_(n-r,1^r), exactly the hooks.

    Each coefficient times ``factor`` in ZZ[q] if given: 1 - q^i gives h_n[X(1-q^i)].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    sign = QPoly([1]) if factor is None else factor
    return SymFunc({_hook(n, r): from_pair(-sign if r % 2 else sign, i * r) for r in range(n)})


def h_plethysm(n: int, u: int) -> SymFunc:
    """h_n[X(1-q^u)]: ``symfunc.plethysm_one_minus_q`` of h_n = s_(n), read at q^u (hook_support).

    p_k[X(1-q^u)] is p_k[X(1-q)] at q -> q^u, so each pair (poly, e) of the
    image moves its coefficient i to u*i and e to u*e; one ``from_pair`` per hook.
    """
    out = {}
    for lam, (poly, e) in sf.plethysm_one_minus_q({Partition((n,)): (QPoly([1]), 0)}).items():
        c = [0] * (u * (len(poly.c) - 1) + 1)
        c[::u] = poly.c
        out[lam] = from_pair(QPoly(c), u * e)
    return SymFunc(out)


def remmel_sum(params: HookParams) -> SymFunc:
    """Kernel expansion sum_s remmel_coeff(s) * h_n[X(1-q^s)]/(1-q^s), summed in ZZ[q].

    With (c, e, {s: (h, r_s)}) from ``_remmel_ring``, remmel_coeff(s) is
    c q^e q^h r_s (1 - q^s) and the kernel for q^s is sum_r (-q^s)^r s_(n-r,1^r)
    (``hook_kernel``), so each hook's coefficient is
    (-1)^r c q^e sum_s q^h r_s (1 - q^s) q^(sr), one ``qfield.dot`` and one
    ``Coef``.
    """
    c, e, terms = _remmel_ring(params)
    kernels = [(s, h, r_s - r_s.shift(s)) for s, (h, r_s) in terms.items()]
    out = {}
    for r in range(params.n):
        poly = dot((h + s * r, c, kernel) for s, h, kernel in kernels)
        out[_hook(params.n, r)] = from_pair(-poly if r % 2 else poly, e)
    return SymFunc(out)


# -- scalar q-binomial identities -------------------------------------------------
# Every side is a canonical pair (``qfield.laurent``).

def prop31(k: int, m: int, ell: int) -> tuple[Pair, Pair]:
    """Alternating-sum evaluation (valid for k+2 <= ell <= m+1); returns (lhs, rhs)."""
    lhs = dot((*_alternating_term(k, i), qbinom_poly(m + 1 - i, ell))
              for i in range(0, min(k + 2, m + 1 - ell) + 1))
    rhs = qbinom_poly(m - k - 1, ell - 2 - k)
    return laurent(lhs), laurent(rhs, (k + 2) * (m + 1 - ell))


def cor32(k: int, m: int, ell: int) -> tuple[Pair, Pair]:
    """Companion alternating-sum evaluation; returns (lhs, rhs)."""
    lhs = dot((*_alternating_term(k, i), qbinom_poly(m + ell - i, ell))
              for i in range(0, min(k + 2, m) + 1))
    rhs = qbinom_poly(m + ell - (k + 2), ell - (k + 2))
    return laurent(lhs), laurent(rhs, (k + 2) * m)


def _kernel_moment(params: HookParams, shift: int, length: int) -> Pair:
    """sum_s remmel_coeff(s) * (q^(s+shift); q)_length over the kernel indices s.

    Only the windows of prop33a (shift = -length) and prop33b (shift = 1)
    occur.  In both, the factor 1 - q^s of remmel_coeff(s) sits next to the
    window and extends it to (q^(s + min(shift, 0)); q)_(length+1), which is
    zero once it reaches q^0.  The sum over s is one ``qfield.dot``.
    """
    if shift not in (1, -length):
        raise ValueError(f"no kernel moment window with shift {shift}, length {length}")
    c, e, terms = _remmel_ring(params)
    low = min(shift, 0)
    total = dot((h, r, qpoch_poly(s + low, length + 1))
                for s, (h, r) in terms.items() if s + low >= 1)
    return laurent(c * total, e)


def prop33a(params: HookParams, j: int) -> tuple[Pair, Pair]:
    """Pochhammer moment of the kernel coefficients against (q^(s-j+1);q)_(j-1).

    Returns (lhs, rhs); the rhs is the length-j coefficient of rhs_hook.
    """
    return _kernel_moment(params, 1 - j, j - 1), laurent(*rhs_hook_coeff(params, j))


def prop33b(params: HookParams, ell: int) -> tuple[Pair, Pair]:
    """Pochhammer moment of the kernel coefficients against (q^(s+1);q)_(ell-1).

    Returns (lhs, rhs); the rhs is the length-ell coefficient of lhs_hook_closed.
    """
    return _kernel_moment(params, 1, ell - 1), laurent(*lhs_hook_coeff(params, ell))


# -- shifted Cauchy kernels --------------------------------------------------------

def shifted_cauchy(n: int, i: int, inverse_q: bool) -> SymFunc:
    """Length-graded Hall-Littlewood expansion of h_n[X(1-q^i)]/(1-q^i).

    inverse_q False (eq12): sum_mu (q^(i-l+1);q)_(l-1) q^(n(mu)) P_mu[X;q], l = l(mu)
    inverse_q True (eq16):  sum_mu (q^(i+1);q)_(l-1) q^(-n(mu)) P_mu[X;1/q], l = l(mu)
    """
    if inverse_q:
        return _table_sum(_graded_P(n, True), lambda ell: qpoch_laurent(i + 1, ell - 1))
    return _table_sum(_graded_P(n, False), lambda ell: qpoch_laurent(i - ell + 1, ell - 1))


def ghry_sides(n: int, k: int) -> tuple[SymFunc, SymFunc]:
    """Two expansions of the same length-k Hall-Littlewood aggregate.

    left:  sum_mu q^(-n(mu)) [l(mu)-1 choose k-1]_q (q;q)_(l(mu)) P_mu[X;1/q]
    right: q^(-k(k-1)) (q;q)_k sum_{l(mu)=k} q^(n(mu)) P_mu[X;q]
    """
    left = _table_sum(_graded_P(n, True),
                      lambda ell: (qbinom_poly(ell - 1, k - 1) * qpoch_poly(1, ell), 0))
    return left, _table_sum(_graded_P(n, False), lambda ell: (
        qpoch_poly(1, k) if ell == k else QPoly(), -k * (k - 1)))


# -- general-nu expansions ----------------------------------------------------------

def lhs_expansion_thm41(nu, n: int) -> SymFunc:
    """Eigenvalue-weighted inverse-q Hall-Littlewood expansion of lhs_nu.

    q^|nu| * sum_mu s_nu[1 + q + ... + q^(l(mu)-2)] q^(-n(mu)) (q;q)_(l(mu)) P_mu[X;1/q].
    """
    nu = _as_partition(nu)
    return _table_sum(_graded_P(n, True), lambda ell: (
        sf.principal_poly(nu, ell - 1) * qpoch_poly(1, ell), nu.size))


@lru_cache(maxsize=None)
def _charge_poly(nu: Partition, k: int) -> QPoly:
    """(q;q)_k times the charge-graded length-k content of s_nu.

    The content is sum_{l(rho)=k} K_(nu,rho)(q) q^(n(rho)) / b_rho(q), with
    b_rho the P-to-Q normalization prod_i (q;q)_(m_i(rho)).  Since
    (q;q)_k / b_rho(q) is the q-multinomial of the multiplicities of rho, a
    product of q-binomials, the product lies in ZZ[q]:
    sum_{l(rho)=k} K_(nu,rho)(q) q^(n(rho)) [k; m(rho)]_q.
    """
    total = QPoly()
    for rho in partitions_of(nu.size, length=k):
        term, top = hl._kf_poly(nu, rho).shift(rho.nstat()), 0
        for m in rho.multiplicities().values():
            top += m
            term = term * qbinom_poly(top, m)
        total += term
    return total


def schur_principal_eval(nu, j: int) -> tuple[Pair, Pair]:
    """Principal evaluation s_nu[1 + q + ... + q^(j-2)] two ways; returns (direct, graded).

    direct: the hook-content product ``symfunc.principal_poly(nu, j-1)``.
    graded: sum over lengths k of the charge-graded length-k content of s_nu,
            each paired with the Pochhammer (q^(j-k);q)_k.  As
            (q^(j-k);q)_k / (q;q)_k = [j-1, k]_q for j >= 1, this is
            sum_k ``_charge_poly(nu, k)`` [j-1, k]_q, one ``qfield.dot``.
    """
    nu = _as_partition(nu)
    graded = dot((0, _charge_poly(nu, k), qbinom_poly(j - 1, k))
                 for k in range(len(nu), nu.size + 1))
    return (sf.principal_poly(nu, j - 1), 0), (graded, 0)


def rhs_nu(nu, n: int) -> SymFunc:
    """Length-graded direct-q Hall-Littlewood expansion matching lhs_nu.

    q^|nu| * sum_k (q;q)_k [charge-graded length-k content of s_nu]
           * q^(-k(k+1)) (q;q)_(k+1) sum_{l(mu)=k+1} q^(n(mu)) P_mu[X;q].
    The first two factors are ``_charge_poly(nu, k)``.
    """
    nu = _as_partition(nu)
    return _table_sum(_graded_P(n, False), lambda ell: (
        _charge_poly(nu, ell - 1) * qpoch_poly(1, ell), nu.size - ell * (ell - 1)))


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
    denominators by the least monomial q^a t^b that makes every coefficient a
    polynomial, then reduced
    against the stored rows in order by Bareiss's step
    v <- (p_k v - v[c_k] r_k) / p_(k-1), p_0 = 1, where r_k is the k-th stored
    row and p_k its pivot entry in column c_k.  Every such division is exact
    (Sylvester's identity); ``exquo`` raises if one is not.
    """
    basis = partitions_of(n)

    def image(nu):
        terms = delta_full(sf.s(nu), n, prime=False).terms
        return _ring_numerators([terms.get(lam, qfield.ZERO) for lam in basis])[0]

    def reduce(vec, rows):
        prev = qfield.RING.one
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
