"""Delta operators on symmetric functions and the identity families built on them.

Expansions are Schur-basis symmetric functions from :mod:`deltaq.symfunc`
whose coefficients are integer Laurent polynomials in q,t (``qfield.Coef``);
the t=0 sides are summed in ZZ[q, 1/q] first, the two-parameter images in
ZZ[q,t], and the scalar sides stay Laurent polynomials in q (``qfield.QPoly``).

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
  of q^(n(mu)) P_mu, read at q or 1/q.  Every c_l, a product of one or more
  ``QPoly`` factors, and every Schur coefficient of T_l is a ``QPoly``;
  ``_table_sum`` sums the products of each Schur coefficient by one
  ``qfield.dot`` and builds one ``qfield.Coef``.
* ``lhs_nu`` and ``rhs_nu`` -- the two closed expansions of the same operator
  image, one through the eigenvalue route, one through length-graded
  Hall-Littlewood sums.  ``lhs_nu`` is ``delta_prime_t0``'s eigenvalue sum
  over ``_lhs_table``, the images of the T_l under omega and X -> X(1-q),
  once per n: omega(H~_mu(X;q,0))[X(1-q)] is (-1)^n q^(n+n(mu)) Q_mu(X;1/q),
  so each row sums the reversed Hall-Littlewood Q columns by ``qfield.dot``.
* the hook-indexed family (``lhs_hook_closed``, ``rhs_hook``, ``remmel_sum``)
  plus the scalar q-binomial identities (``prop31`` .. ``prop33b``) that link
  them.  Their coefficients are products and sums of dense Laurent
  polynomials (``qfield.QPoly``).  The scalar sides stay ``QPoly`` values,
  each sum over i or s one ``qfield.dot``, and so are both sides of
  ``schur_principal_eval``; each coefficient of an expansion becomes one
  ``qfield.Coef`` through ``qfield.from_poly``.  The kernel
  coefficients remmel_coeff(s) of h_n[X(1-q^s)]/(1-q^s) come from
  ``_remmel_ring``; ``remmel_sum`` adds them times the hook kernels by one
  ``qfield.dot`` and one conversion per hook.
  The kernel moment sum_s remmel_coeff(s) (q^(s+shift);q)_L of prop33a/prop33b
  pulls out the factor [m-1,k]_q q^(C(k+1,2)-(k+1)m) that every s shares
  (``qfield.dot``'s common factor), keeps
  the at most k+3 indices s >= m-k-1 with a nonzero term, and folds the factor
  (1 - q^s) of remmel_coeff(s) into the Pochhammer window next to it.
* ``shifted_cauchy`` -- length-graded Hall-Littlewood expansions of the kernel
  ``h_n[X(1-q^i)]/(1-q^i)``, which ``hook_kernel`` writes in hooks.
  ``h_plethysm`` is h_n[X(1-q^u)], the Hall-Littlewood Q_(n) read at q^u.
* ``span_rank_at_point`` -- rank of the span of plain-Delta images at one point
  (q,t) of GF(p)^2, p = 2^61 - 1: a lower bound on their rank over Q(q,t),
  taken as the rank of their eigenvalues s_nu[B_mu], with no H~_mu or weight,
  each row one weighted sum of the vectors p_rho[B_mu] built once per call.
  It is the one rank route; only ``delta_full`` uses sympy (``qfield.RING``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb, factorial, prod

from . import hall_littlewood as hl
from . import qfield
from . import symfunc as sf
from .partition import Partition, partitions_of
from .qfield import Coef, QPoly, dot, from_poly, qbinom_poly, qpoch_poly, reverse
from .symfunc import SymFunc, _as_partition


# -- hook parameter bundle ------------------------------------------------------

HOOK_TEXT = "0 <= k, k+1 <= m, m < n"


def is_hook(k: int, m: int, n: int) -> bool:
    """``HOOK_TEXT``: the hook (m-k, 1^k) has a positive first part and lies below degree n."""
    return 0 <= k and k + 1 <= m < n


def _hook(n: int, r: int) -> Partition:
    """The hook s_(n-r,1^r)."""
    return Partition((n - r,) + (1,) * r)


@dataclass(frozen=True)
class HookParams:
    """Parameters (k, m, n) of the hook nu = (m-k, 1^k) inside degree n; ``is_hook`` must hold."""

    k: int
    m: int
    n: int

    def __post_init__(self):
        if not is_hook(self.k, self.m, self.n):
            raise ValueError(f"need {HOOK_TEXT}; got k={self.k}, m={self.m}, n={self.n}")

    @property
    def nu(self) -> Partition:
        return _hook(self.m, self.k)


# -- Delta operators ------------------------------------------------------------

@lru_cache(maxsize=None)
def _graded_P(n: int, inverse_q: bool) -> dict[int, dict[Partition, QPoly]]:
    """{l: sum_{l(mu)=l} q^(n(mu)) P_mu[X;q]} over the partitions mu of n, each entry one ``dot``.

    With inverse_q, the same polynomials read at 1/q, each reversed
    (``qfield.reverse``): sum_{l(mu)=l} q^(-n(mu)) P_mu[X;1/q].
    """
    if inverse_q:
        return {ell: {lam: reverse(c) for lam, c in row.items()}
                for ell, row in _graded_P(n, False).items()}
    table = hl._p_table(n)
    sums: dict[int, dict[Partition, list[tuple[QPoly]]]] = {}
    for mu in partitions_of(n):
        row, shift = sums.setdefault(len(mu), {}), mu.nstat()
        for lam, c in table[mu].items():
            row.setdefault(lam, []).append((c.shift(shift),))
    return {ell: {lam: c for lam, terms in row.items() if (c := dot(terms))}
            for ell, row in sums.items()}


@lru_cache(maxsize=None)
def _t0_operator_table(n: int) -> dict[int, dict[Partition, QPoly]]:
    """{l: sum_{l(mu)=l} (q;q)_l / w_t0(mu) H~_mu(X;q,0)} over the partitions mu of n.

    With E(mu) the exponent of q in w_t0(mu), (q;q)_l / w_t0(mu) is
    (-1)^(n-l) q^(-E(mu)) [l; m(mu)]_q, and H~_mu has the Schur coefficients
    q^(n(mu)) K_(lam,mu)(1/q).  As q-multinomials are palindromic, the s_lam
    coefficient is (-1)^(n-l) q^(C(l,2)-n+l) C(1/q), C = _charge_poly(lam, l).
    """
    return {ell: {lam: reverse(-c if (n - ell) % 2 else c).shift(comb(ell, 2) - n + ell)
                  for lam in partitions_of(n) if (c := _charge_poly(lam, ell))}
            for ell in range(1, n + 1)}


@lru_cache(maxsize=None)
def _lhs_table(n: int) -> dict[int, dict[Partition, QPoly]]:
    """{l: omega(T_l)[X(1-q)]} for T_l = ``_t0_operator_table(n)[l]``, in ZZ[q, 1/q].

    omega(H~_mu(X;q,0))[X(1-q)] = (-1)^n q^(n+n(mu)) Q_mu(X;1/q), so with the
    weights of ``_t0_operator_table`` row l is (-1)^l times the sum over
    l(mu) = l of q^(n+n(mu)-E(mu)) [l; m(mu)]_q Q_mu(X;1/q): one ``qfield.dot``
    per s_lam over the entries of ``hall_littlewood._q_column``, each
    reversed.  Here n + n(mu) - E(mu) = sum_i C(m_i+1, 2) - n(mu).  Both maps
    are linear, so the image of sum_l c_l T_l is sum_l c_l times row l (``lhs_nu``).
    """
    sums: dict[int, dict[Partition, list[tuple[QPoly, ...]]]] = {}
    for mu in partitions_of(n):
        binoms = _multinomial(mu)
        shift = sum(comb(m + 1, 2) for m in mu.multiplicities().values()) - mu.nstat()
        row = sums.setdefault(len(mu), {})
        for lam, c in hl._q_column(mu).items():
            row.setdefault(lam, []).append((reverse(c).shift(shift), *binoms))
    return {ell: {lam: -c if ell % 2 else c for lam, terms in row.items() if (c := dot(terms))}
            for ell, row in sums.items()}


def _table_sum(table: dict, *coeffs: Callable[[int], QPoly]) -> SymFunc:
    """sum_l c_1(l) ... c_r(l) T_l over the coeffs c_i, each called once per length.

    The products c_1(l) ... c_r(l) T_l[lam] of s_lam are summed by one
    ``qfield.dot`` into one ``Coef``, so a coefficient with several factors
    is never multiplied out on its own; ``SymFunc`` leaves out the zero sums.
    """
    terms: dict[Partition, list[tuple[QPoly, ...]]] = {}
    for ell, row in table.items():
        c = tuple(coeff(ell) for coeff in coeffs)
        if all(c):
            for lam, poly in row.items():
                terms.setdefault(lam, []).append((*c, poly))
    return SymFunc({lam: from_poly(dot(products)) for lam, products in terms.items()})


def _eigenvalue(nu) -> Callable[[int], QPoly]:
    """l -> s_nu[q + ... + q^(l-1)] = q^|nu| ``symfunc.principal_poly(nu, l-1)``."""
    nu = _as_partition(nu)
    return lambda ell: sf.principal_poly(nu, ell - 1).shift(nu.size)


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
    numers, (a, b) = _ring_numerators(list(f.terms.values()))
    numers = dict(zip(f.terms, numers))
    scalars, den = {}, ring.one
    for mu in partitions_of(n):
        eig = _cell_eigenvalue(numers, mu, prime)
        if eig:
            weight, w = hl.macdonald_weights(mu)
            scalar = qfield.FIELD.new(eig * weight, w)
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

def lhs_hook_coeff(params: HookParams, ell: int) -> QPoly:
    """Coefficient of q^(-n(mu)) P_mu[X;1/q], l(mu) = ell, in lhs_hook_closed."""
    k, m = params.k, params.m
    return dot(((qpoch_poly(1, ell).shift(m + comb(k + 1, 2)), qbinom_poly(m - 1, k),
                 qbinom_poly(m + ell - (k + 2), m)),))


def lhs_hook_closed(params: HookParams) -> SymFunc:
    """Closed Hall-Littlewood expansion of lhs_nu for hook nu = (m-k, 1^k)."""
    return _table_sum(_graded_P(params.n, True), lambda ell: lhs_hook_coeff(params, ell))


def rhs_hook_coeff(params: HookParams, j: int) -> QPoly:
    """Coefficient of sum_{l(mu)=j} q^(n(mu)) P_mu[X;q] in rhs_hook."""
    k, m = params.k, params.m
    return dot(((qpoch_poly(1, j).shift(m + comb(k + 2, 2) - (k + 2) * j + 1),
                 qbinom_poly(j - 2, k), qbinom_poly(m - 1, j - 2)),))


def rhs_hook(params: HookParams) -> SymFunc:
    """Length-graded Hall-Littlewood expansion of the same hook image."""
    return _table_sum(_graded_P(params.n, False), lambda j: rhs_hook_coeff(params, j))


@lru_cache(maxsize=None)
def _alternating_term(k: int, i: int) -> QPoly:
    """(-1)^i q^C(i,2) [k+2, i]_q, the z^i term of (z;q)_(k+2); zero unless 0 <= i <= k+2.

    Cached, so the negated q-binomials keep their Kronecker ints
    (``qfield.dot``) across calls, as the cached ones do.
    """
    term = qbinom_poly(k + 2, i)
    return (-term if i % 2 else term).shift(comb(i, 2))


def _remmel_ring(params: HookParams):
    """remmel_coeff(s) = c r_s (1 - q^s) over ZZ[q, 1/q]: returns (c, {s: r_s}).

    c = [m-1, k]_q q^(C(k+1, 2) - (k+1) m) is shared by every s, and
    r_s = ``_alternating_term(k, i)`` with i = m+1-s.  Only the s with a
    nonzero r_s, 1 <= s <= m+1 and i <= k+2, are listed: at most k+3 of them.
    """
    k, m = params.k, params.m
    terms = {s: _alternating_term(k, m + 1 - s) for s in range(max(1, m - k - 1), m + 2)}
    return qbinom_poly(m - 1, k).shift(comb(k + 1, 2) - (k + 1) * m), terms


def hook_kernel(n: int, i: int, factor: QPoly | None = None) -> SymFunc:
    """h_n[X(1-u)]/(1-u) at u = q^i: sum_r (-1)^r q^(ir) s_(n-r,1^r), exactly the hooks.

    Each coefficient times ``factor`` in ZZ[q] if given: 1 - q^i gives h_n[X(1-q^i)].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    sign = QPoly([1]) if factor is None else factor
    return SymFunc({_hook(n, r): from_poly((-sign if r % 2 else sign).shift(i * r))
                    for r in range(n)})


def h_plethysm(n: int, u: int) -> SymFunc:
    """h_n[X(1-q^u)], hook_support's rhs: h_n[X(1-q)] = Q_(n) (``hall_littlewood._q_column``).

    p_k[X(1-q^u)] is p_k[X(1-q)] at q -> q^u, so each coefficient of q^i in
    Q_(n) moves to q^(u*i); one ``Coef`` per hook.
    """
    image = hl._q_column(Partition((n,)))
    return SymFunc({lam: Coef({(u * (poly.e + i), 0): v for i, v in enumerate(poly.c)})
                    for lam, poly in image.items()})


def remmel_sum(params: HookParams) -> SymFunc:
    """Kernel expansion sum_s remmel_coeff(s) * h_n[X(1-q^s)]/(1-q^s), summed in ZZ[q].

    With (c, {s: r_s}) from ``_remmel_ring``, remmel_coeff(s) is
    c r_s (1 - q^s) and the kernel for q^s is sum_r (-q^s)^r s_(n-r,1^r)
    (``hook_kernel``), so each hook's coefficient is
    (-1)^r c sum_s r_s (1 - q^s) q^(sr), one ``qfield.dot`` and one ``Coef``.
    """
    c, terms = _remmel_ring(params)
    kernels = [(s, qfield.one_minus_product((s,), r_s)) for s, r_s in terms.items()]
    out = {}
    for r in range(params.n):
        poly = dot(((kernel.shift(s * r),) for s, kernel in kernels), c)
        out[_hook(params.n, r)] = from_poly(-poly if r % 2 else poly)
    return SymFunc(out)


# -- scalar q-binomial identities -------------------------------------------------

def prop31(k: int, m: int, ell: int) -> tuple[QPoly, QPoly]:
    """Alternating-sum evaluation (valid for k+2 <= ell <= m+1); returns (lhs, rhs)."""
    lhs = dot((_alternating_term(k, i), qbinom_poly(m + 1 - i, ell))
              for i in range(0, min(k + 2, m + 1 - ell) + 1))
    rhs = qbinom_poly(m - k - 1, ell - 2 - k)
    return lhs, rhs.shift((k + 2) * (m + 1 - ell))


def cor32(k: int, m: int, ell: int) -> tuple[QPoly, QPoly]:
    """Companion alternating-sum evaluation; returns (lhs, rhs)."""
    lhs = dot((_alternating_term(k, i), qbinom_poly(m + ell - i, ell))
              for i in range(0, min(k + 2, m) + 1))
    rhs = qbinom_poly(m + ell - (k + 2), ell - (k + 2))
    return lhs, rhs.shift((k + 2) * m)


def _kernel_moment(params: HookParams, shift: int, length: int) -> QPoly:
    """sum_s remmel_coeff(s) * (q^(s+shift); q)_length over the kernel indices s.

    Only the windows of prop33a (shift = -length) and prop33b (shift = 1)
    occur.  In both, the factor 1 - q^s of remmel_coeff(s) sits next to the
    window and extends it to (q^(s + min(shift, 0)); q)_(length+1), which is
    zero once it reaches q^0.  The sum over s times c is one ``qfield.dot``.
    """
    if shift not in (1, -length):
        raise ValueError(f"no kernel moment window with shift {shift}, length {length}")
    c, terms = _remmel_ring(params)
    low = min(shift, 0)
    return dot(((r, qpoch_poly(s + low, length + 1)) for s, r in terms.items() if s + low >= 1),
               c)


def prop33a(params: HookParams, j: int) -> tuple[QPoly, QPoly]:
    """Pochhammer moment of the kernel coefficients against (q^(s-j+1);q)_(j-1).

    Returns (lhs, rhs); the rhs is the length-j coefficient of rhs_hook.
    """
    return _kernel_moment(params, 1 - j, j - 1), rhs_hook_coeff(params, j)


def prop33b(params: HookParams, ell: int) -> tuple[QPoly, QPoly]:
    """Pochhammer moment of the kernel coefficients against (q^(s+1);q)_(ell-1).

    Returns (lhs, rhs); the rhs is the length-ell coefficient of lhs_hook_closed.
    """
    return _kernel_moment(params, 1, ell - 1), lhs_hook_coeff(params, ell)


# -- shifted Cauchy kernels --------------------------------------------------------

def shifted_cauchy(n: int, i: int, inverse_q: bool) -> SymFunc:
    """Length-graded Hall-Littlewood expansion of h_n[X(1-q^i)]/(1-q^i).

    inverse_q False (eq12): sum_mu (q^(i-l+1);q)_(l-1) q^(n(mu)) P_mu[X;q], l = l(mu)
    inverse_q True (eq16):  sum_mu (q^(i+1);q)_(l-1) q^(-n(mu)) P_mu[X;1/q], l = l(mu)
    """
    if inverse_q:
        return _table_sum(_graded_P(n, True), lambda ell: qpoch_poly(i + 1, ell - 1))
    return _table_sum(_graded_P(n, False), lambda ell: qpoch_poly(i - ell + 1, ell - 1))


def ghry_sides(n: int, k: int) -> tuple[SymFunc, SymFunc]:
    """Two expansions of the same length-k Hall-Littlewood aggregate.

    left:  sum_mu q^(-n(mu)) [l(mu)-1 choose k-1]_q (q;q)_(l(mu)) P_mu[X;1/q]
    right: q^(-k(k-1)) (q;q)_k sum_{l(mu)=k} q^(n(mu)) P_mu[X;q]
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    left = _table_sum(_graded_P(n, True), lambda ell: qbinom_poly(ell - 1, k - 1),
                      partial(qpoch_poly, 1))
    right = qpoch_poly(1, k).shift(-k * (k - 1))
    return left, _table_sum(_graded_P(n, False), lambda ell: right if ell == k else QPoly())


# -- general-nu expansions ----------------------------------------------------------

def lhs_expansion_thm41(nu, n: int) -> SymFunc:
    """Eigenvalue-weighted inverse-q Hall-Littlewood expansion of lhs_nu.

    q^|nu| * sum_mu s_nu[1 + q + ... + q^(l(mu)-2)] q^(-n(mu)) (q;q)_(l(mu)) P_mu[X;1/q].
    """
    return _table_sum(_graded_P(n, True), _eigenvalue(nu), partial(qpoch_poly, 1))


def _multinomial(rho: Partition) -> list[QPoly]:
    """The q-binomials whose product is the q-multinomial [l(rho); m(rho)]_q = (q;q)_l / b_rho."""
    out, top = [], 0
    for m in rho.multiplicities().values():
        top += m
        out.append(qbinom_poly(top, m))
    return out


@lru_cache(maxsize=None)
def _charge_poly(nu: Partition, k: int) -> QPoly:
    """(q;q)_k times the charge-graded length-k content of s_nu.

    The content is sum_{l(rho)=k} K_(nu,rho)(q) q^(n(rho)) / b_rho(q), with
    b_rho the P-to-Q normalization prod_i (q;q)_(m_i(rho)).  Since
    (q;q)_k / b_rho(q) is the q-multinomial of the multiplicities of rho, a
    product of q-binomials (``_multinomial``), the product lies in ZZ[q]:
    sum_{l(rho)=k} K_(nu,rho)(q) q^(n(rho)) [k; m(rho)]_q, one ``qfield.dot``
    with one term per rho: K_(nu,rho)(q) q^(n(rho)) and its q-binomials.
    """
    return dot((hl._kf_column(rho).get(nu, QPoly()).shift(rho.nstat()), *_multinomial(rho))
               for rho in partitions_of(nu.size, length=k))


def schur_principal_eval(nu, j: int) -> tuple[QPoly, QPoly]:
    """s_nu[1 + q + ... + q^(j-2)] two ways; returns (direct, graded).

    direct: the hook-content product ``symfunc.principal_poly(nu, j-1)``.
    graded: sum over lengths k of the charge-graded length-k content of s_nu,
            each paired with the Pochhammer (q^(j-k);q)_k.  As
            (q^(j-k);q)_k / (q;q)_k = [j-1, k]_q for j >= 1, this is
            sum_k ``_charge_poly(nu, k)`` [j-1, k]_q, one ``qfield.dot``.
    """
    nu = _as_partition(nu)
    graded = dot((_charge_poly(nu, k), qbinom_poly(j - 1, k))
                 for k in range(len(nu), nu.size + 1))
    return sf.principal_poly(nu, j - 1), graded


def rhs_nu(nu, n: int) -> SymFunc:
    """Length-graded direct-q Hall-Littlewood expansion matching lhs_nu.

    q^|nu| * sum_k (q;q)_k [charge-graded length-k content of s_nu]
           * q^(-k(k+1)) (q;q)_(k+1) sum_{l(mu)=k+1} q^(n(mu)) P_mu[X;q].
    The first two factors are ``_charge_poly(nu, k)``.  An n below 1 is a ValueError.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    nu = _as_partition(nu)
    return _table_sum(_graded_P(n, False), lambda ell: _charge_poly(nu, ell - 1),
                      lambda ell: qpoch_poly(1, ell).shift(nu.size - ell * (ell - 1)))


# -- span of plain-Delta images ------------------------------------------------------

#: The prime of the rank at a point, and the point (q, t) it is taken at.
SPAN_PRIME = 2**61 - 1
SPAN_POINT = (123456789, 987654321)


def point_label() -> str:
    """'(q,t) = (a, b) mod 2^61-1' for (a, b) = SPAN_POINT, read when called."""
    return f"(q,t) = {SPAN_POINT} mod 2^61-1"


@dataclass(frozen=True)
class SpanReport:
    """Rank of span{ Delta_{s_nu} e_n : 1 <= |nu| <= nu_size_max } at SPAN_POINT.

    SPAN_POINT is the point (q, t) of GF(SPAN_PRIME)^2 the rank was taken at,
    so ``rank`` is a lower bound on the rank over Q(q,t).
    """

    n: int
    nu_count: int
    rank: int
    dim: int  # number of partitions of n, the ambient dimension


def _eigenvalue_rows(n: int) -> Callable[[Partition], list[int]]:
    """nu -> [s_nu[B_mu] for mu in partitions_of(n)] at (q,t) = SPAN_POINT mod SPAN_PRIME.

    s_nu = sum_rho chi^nu(rho)/z_rho p_rho (p > |nu|, so z_rho is a unit), and
    p_k[B_mu] = sum q^(col k) t^(row k) over the cells of mu.  Each rho's vector
    [p_rho[B_mu] for mu] is built once per call, as p_(rho_1) times the vector
    of the rest of rho, so a row is one weighted sum of those vectors.
    """
    p, (a, b) = SPAN_PRIME, SPAN_POINT
    cells = [tuple(mu.cells()) for mu in partitions_of(n)]
    power: dict[tuple[int, ...], list[int]] = {}  # rho -> [p_rho[B_mu] for mu]

    def vector(rho: tuple[int, ...]) -> list[int]:
        if rho not in power:
            k = rho[0]
            if len(rho) == 1:
                power[rho] = [sum(pow(a, j * k, p) * pow(b, i * k, p) for i, j in shape) % p
                              for shape in cells]
            else:
                power[rho] = [x * y % p for x, y in zip(vector(rho[:1]), vector(rho[1:]))]
        return power[rho]

    def row(nu: Partition) -> list[int]:
        total = [0] * len(cells)
        for rho in partitions_of(nu.size):
            if chi := sf.character(nu, rho):
                c = chi * pow(sf.zee(rho), -1, p)
                total = [s + c * v for s, v in zip(total, vector(rho))]
        return [s % p for s in total]

    return row


def span_rank_at_point(n: int, nu_size_max: int | None = None) -> SpanReport:
    """Rank the plain-Delta images of e_n at the point SPAN_POINT of GF(p)^2, p = SPAN_PRIME.

    Delta_{s_nu} e_n = sum_mu s_nu[B_mu] c_mu H~_mu, with the H~_mu (mu |- n) a
    basis over Q(q,t) and every c_mu = (1-q)(1-t) Pi'_mu B_mu / w_mu nonzero,
    so the images have the rank of [s_nu[B_mu]]_(nu,mu).  Its entries lie in
    ZZ[q,t], so a minor nonzero at the point mod p is nonzero over Q(q,t): the
    rank at the point is a lower bound on the exact rank.  The rows
    (``_eigenvalue_rows``) of s_nu, |nu| = 1..nu_size_max (default n) in
    partitions_of order, are reduced mod p until the span is full, each kept
    row scaled to pivot 1; nu_count counts the rows examined.  A nu_size_max
    below 1 is a ValueError.
    """
    if nu_size_max is not None and nu_size_max < 1:
        raise ValueError(f"need nu_size_max >= 1, got {nu_size_max}")
    p, dim = SPAN_PRIME, len(partitions_of(n))
    image = _eigenvalue_rows(n)
    rows: list[tuple[int, list[int]]] = []  # (pivot column, row scaled to pivot 1) in order
    count = 0
    for nu in (nu for size in range(1, (nu_size_max or n) + 1) for nu in partitions_of(size)):
        if len(rows) == dim:
            break
        count += 1
        vec = image(nu)
        for col, row in rows:
            if lead := vec[col]:
                vec = [(v - lead * r) % p for v, r in zip(vec, row)]
        col = next((j for j, v in enumerate(vec) if v), None)
        if col is not None:
            inverse = pow(vec[col], -1, p)
            rows.append((col, [v * inverse % p for v in vec]))
    return SpanReport(n=n, nu_count=count, rank=len(rows), dim=dim)
