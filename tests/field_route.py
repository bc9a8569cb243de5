"""The field routes to the q-only scalars and to plethysm, kept as the reference of the tests.

Every value here is built by Q(q,t) arithmetic, one gcd-normalized ``*`` or
``+`` at a time: a Pochhammer symbol as the product of its factors, a
q-binomial as a quotient of Pochhammer symbols, the alternating sums of
prop31 and cor32 term by term and the hook coefficients as the products of
their factors, a kernel moment as the literal sum over s of
``remmel_coeff(s)`` times a Pochhammer window, the kernel expansion as the
literal sum over s of ``remmel_coeff(s)`` times a hook kernel, f[XA] or f[A]
as the power-sum expansion of f with each p_rho scaled by p_rho[A] and mapped
back to Schur functions term by term, lhs_nu as that plethysm by 1 - q of
omega of the field image, thm43's direct side as that evaluation at
1 + q + ... + q^(j-2), the t=0 weight w_t0(mu) in closed form and as a cell
product, and the t=0 Hall-Littlewood sides one partition mu at a time: each
H~_mu(X;q,0) over its weight w_t0(mu), each P_mu[X;q] times q^(n(mu)) and
each P_mu[X;1/q] times q^(-n(mu)); and the rank of the span of the plain-Delta
images by fraction-free elimination over ZZ[q,t].
``deltaq.qfield``, ``deltaq.delta_ops`` and ``deltaq.symfunc`` build the same
values in ZZ[q,t] or ZZ[q] and convert once, or sum them by length first, and
rank the eigenvalues s_nu[B_mu] at one point mod 2^61-1; the tests require both
routes to agree.
"""

from functools import lru_cache

from references import (ONE, ZERO, basis_convert, coef, from_poly, from_power, lincomb, omega,
                        poly_sum)
from deltaq import delta_ops, hall_littlewood as hl, symfunc as sf
from deltaq.delta_ops import HookParams
from deltaq.partition import partitions_of
from deltaq.qfield import FIELD, RING, Coef, q


def qpoch_at(s: int, m: int):
    """(q^s; q)_m as the field product of 1 - q^e, e = s..s+m-1."""
    out = ONE
    for e in range(s, s + m):
        out *= ONE - q**e
    return out


def qbinom(a: int, b: int):
    """[a, b]_q = (q;q)_a / ((q;q)_b (q;q)_(a-b)); zero outside 0 <= b <= a."""
    if b < 0 or b > a:
        return ZERO
    return qpoch_at(1, a) / (qpoch_at(1, b) * qpoch_at(1, a - b))


def alternating_sum(k: int, a: int, ell: int, top: int):
    """sum_{i=0}^{top} (-1)^i q^C(i,2) [k+2, i]_q [a-i, ell]_q, one field term at a time."""
    total = ZERO
    for i in range(top + 1):
        total += (-1) ** i * q ** (i * (i - 1) // 2) * qbinom(k + 2, i) * qbinom(a - i, ell)
    return total


def prop31(k: int, m: int, ell: int):
    """Both sides of Prop 3.1 in Q(q,t)."""
    return (alternating_sum(k, m + 1, ell, min(k + 2, m + 1 - ell)),
            q ** ((k + 2) * (m + 1 - ell)) * qbinom(m - k - 1, ell - 2 - k))


def cor32(k: int, m: int, ell: int):
    """Both sides of Cor 3.2 in Q(q,t)."""
    return (alternating_sum(k, m + ell, ell, min(k + 2, m)),
            q ** ((k + 2) * m) * qbinom(m + ell - (k + 2), ell - (k + 2)))


def lhs_hook_coeff(params: HookParams, ell: int):
    """lhs_hook_closed's length-ell coefficient q^(m+C(k+1,2)) [m-1,k] [m+ell-k-2,m] (q;q)_ell."""
    k, m = params.k, params.m
    return (q ** (m + k * (k + 1) // 2) * qbinom(m - 1, k) * qbinom(m + ell - (k + 2), m)
            * qpoch_at(1, ell))


def rhs_hook_coeff(params: HookParams, j: int):
    """rhs_hook's length-j coefficient q^(m+C(k+2,2)-(k+2)j+1) [j-2,k] [m-1,j-2] (q;q)_j."""
    k, m = params.k, params.m
    return (q ** (m + (k + 2) * (k + 1) // 2 - (k + 2) * j + 1) * qbinom(j - 2, k)
            * qbinom(m - 1, j - 2) * qpoch_at(1, j))


def remmel_coeff(s: int, params: HookParams):
    """Coefficient of the kernel h_n[X(1-q^s)]/(1-q^s) in the hook image; zero off the kernel."""
    c, terms = delta_ops._remmel_ring(params)
    if s not in terms:
        return ZERO
    return from_poly(poly_sum((c, terms[s]), (-1, c, terms[s].shift(s))))


def remmel_sum(params: HookParams):
    """sum_s remmel_coeff(s) * h_n[X(1-q^s)]/(1-q^s), one field ``*`` and ``+`` per term."""
    return lincomb(*((c, delta_ops.hook_kernel(params.n, s)) for s in range(1, params.m + 2)
                     if (c := remmel_coeff(s, params)) != ZERO))


def kernel_moment(params: HookParams, shift: int, length: int):
    """sum_{s=1}^{m+1} remmel_coeff(s) * (q^(s+shift); q)_length."""
    total = ZERO
    for s in range(1, params.m + 2):
        total += remmel_coeff(s, params) * qpoch_at(s + shift, length)
    return total


@lru_cache(maxsize=None)
def power_image(rho, alphabet):
    """p_rho[A], the field product over the parts k of rho of p_k[A] = A(q^k, t^k).

    The exponents of A's numerator and denominator scale by k.  Cached, so a
    sweep over many f at one alphabet builds each p_rho[A] once.
    """
    out = ONE
    for k in rho:
        out *= FIELD.new(alphabet.numer.inflate((k, k)), alphabet.denom.inflate((k, k)))
    return out


def power_images(f, alphabet):
    """{rho: c_rho p_rho[A]} over the power-sum expansion sum_rho c_rho p_rho of f."""
    a = coef(alphabet)
    return {rho: c * power_image(rho, a) for rho, c in basis_convert(f, "p").items()}


def plethysm(f, alphabet):
    """f[XA], one field operation at a time."""
    return from_power(power_images(f, alphabet))


def evaluate(f, alphabet):
    """f[A], one field addition per power-sum term."""
    return sum(power_images(f, alphabet).values(), ZERO)


def lhs_nu(nu, n: int):
    """omega of the primed-Delta image of s_nu at t=0, then ``plethysm`` by 1 - q."""
    return plethysm(omega(delta_ops.delta_prime_t0(nu, n)), ONE - q)


def principal_eval(nu, j: int):
    """s_nu[1 + q + ... + q^(j-2)] by ``evaluate`` at the alphabet [j-1]_q."""
    return evaluate(sf.s(nu), qbinom(j - 1, 1))


def w_t0(mu):
    """(-1)^(n-l) q^(2 n(mu) + n - sum_i C(m_i+1, 2)) prod_i (q;q)_(m_i) in Q(q,t)."""
    mults = mu.multiplicities().values()
    out = (-1) ** (mu.size - len(mu)) * q ** (2 * mu.nstat() + mu.size
                                             - sum(m * (m + 1) // 2 for m in mults))
    for mult in mults:
        out *= qpoch_at(1, mult)
    return out


def w_t0_cell_product(mu):
    """prod over the cells of q^leg (1 - q^(leg+1)) at arm 0, q^leg (-q^(leg+1)) elsewhere."""
    out = ONE
    for cell in mu.cell_stats():
        out *= q**cell.leg
        if cell.arm == 0:
            out *= ONE - q ** (cell.leg + 1)
        else:
            out *= -(q ** (cell.leg + 1))
    return out


def operator_table(n: int, ell: int):
    """sum_{l(mu)=ell} (q;q)_ell / w_t0(mu) H~_mu(X;q,0), one partition mu of n at a time."""
    return lincomb(*((qpoch_at(1, ell) / w_t0(mu), hl.modified_macdonald_t0(mu))
                     for mu in partitions_of(n, length=ell)))


def delta_prime_t0(f, n: int):
    """sum_mu c_l / w_t0(mu) H~_mu(X;q,0), one mu at a time, l = l(mu).

    c_l = f[q + ... + q^(l-1)] (q;q)_l is the primed eigenvalue times (1-q) Pi'_mu B_mu.
    """
    c = {ell: evaluate(f, qbinom(ell, 1) - ONE) * qpoch_at(1, ell) for ell in range(1, n + 1)}
    return lincomb(*((c[len(mu)] / w_t0(mu), hl.modified_macdonald_t0(mu))
                     for mu in partitions_of(n)))


def length_sum(n: int, coeff):
    """sum_mu coeff(l(mu)) q^(n(mu)) P_mu[X;q], one ``hl_P`` at a time."""
    return lincomb(*((coeff(len(mu)) * q ** mu.nstat(), hl.hl_P(mu)) for mu in partitions_of(n)))


def length_sum_invq(n: int, coeff):
    """sum_mu coeff(l(mu)) q^(-n(mu)) P_mu[X;1/q], one ``_p_table_invq`` entry at a time."""
    table = hl._p_table_invq(n)
    return lincomb(*((coeff(len(mu)) * q ** -mu.nstat(), table[mu]) for mu in partitions_of(n)))


def span_dimension_report(n: int, nu_size_max: int | None = None) -> tuple[int, int, int]:
    """(nu_count, rank, dim) of the plain-Delta images of e_n, by elimination over ZZ[q,t].

    The exact reference for ``delta_ops.span_rank_at_point``, fed the same
    images in the same order: s_nu for |nu| = 1..nu_size_max (default n) in
    partitions_of order, stopping once the span is full.  Each image
    ``delta_full(s_nu, n, prime=False)`` is cleared of denominators by the least
    monomial q^a t^b that makes every coefficient a polynomial, then reduced
    against the stored rows in order by Bareiss's step
    v <- (p_k v - v[c_k] r_k) / p_(k-1), p_0 = 1, where r_k is the k-th stored
    row and p_k its pivot entry in column c_k.  Every such division is exact
    (Sylvester's identity); ``exquo`` raises if one is not.  A nu_size_max below
    1 is a ValueError.
    """
    if nu_size_max is not None and nu_size_max < 1:
        raise ValueError(f"need nu_size_max >= 1, got {nu_size_max}")
    basis = partitions_of(n)
    rows = []  # (pivot column, row) in insertion order
    count = 0
    for nu in (nu for size in range(1, (nu_size_max or n) + 1) for nu in partitions_of(size)):
        if len(rows) == len(basis):
            break
        count += 1
        terms = delta_ops.delta_full(sf.s(nu), n, prime=False).terms
        vec = delta_ops._ring_numerators([terms.get(lam, Coef()) for lam in basis])[0]
        prev = RING.one
        for col, row in rows:
            piv, lead = row[col], vec[col]
            vec = [(piv * v - lead * r).exquo(prev) for v, r in zip(vec, row)]
            prev = piv
        col = next((j for j, v in enumerate(vec) if v), None)
        if col is not None:
            rows.append((col, vec))
    return count, len(rows), len(basis)
