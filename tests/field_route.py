"""The field routes to the q-only scalars and to plethysm, kept as the reference of the tests.

Every value here is built by Q(q,t) arithmetic, one gcd-normalized ``*`` or
``+`` at a time: a Pochhammer symbol as the product of its factors, a
q-binomial as a quotient of Pochhammer symbols, a kernel moment as the
literal sum over s of ``remmel_coeff(s)`` times a Pochhammer window, and
f[XA] or f[A] as the power-sum expansion of f with each p_rho scaled by
p_rho[A] and mapped back to Schur functions term by term.
``deltaq.qfield``, ``deltaq.delta_ops`` and ``deltaq.symfunc`` build the same
values in ZZ[q,t] and convert once; the tests require both routes to agree.
"""

from deltaq import qfield, symfunc as sf
from deltaq.delta_ops import HookParams, remmel_coeff
from deltaq.partition import partitions_of
from deltaq.qfield import FIELD, ONE, ZERO, q


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


def kernel_moment(params: HookParams, shift: int, length: int):
    """sum_{s=1}^{m+1} remmel_coeff(s) * (q^(s+shift); q)_length."""
    total = ZERO
    for s in range(1, params.m + 2):
        total += remmel_coeff(s, params) * qpoch_at(s + shift, length)
    return total


def power_images(f, alphabet):
    """{rho: c_rho p_rho[A]} over the power-sum expansion sum_rho c_rho p_rho of f.

    p_k[A] = A(q^k, t^k): the exponents of A's numerator and denominator
    scale by k.  Each distinct part k is computed once.
    """
    a = qfield.coef(alphabet)
    images = {}
    out = {}
    for rho, c in sf.basis_convert(f, "p").items():
        for k in rho:
            if k not in images:
                images[k] = FIELD.new(a.numer.inflate((k, k)), a.denom.inflate((k, k)))
            c = c * images[k]
        out[rho] = c
    return out


def from_power(power_terms):
    """sum_rho c_rho p_rho in the Schur basis, p_rho = sum_lam chi^lam(rho) s_lam."""
    out = {}
    for rho, c in power_terms.items():
        if not c:
            continue
        for lam in partitions_of(rho.size):
            chi = sf.character(lam, rho)
            if chi:
                val = out.get(lam, ZERO) + c * chi
                if val:
                    out[lam] = val
                else:
                    out.pop(lam, None)
    return sf.SymFunc(out)


def plethysm(f, alphabet):
    """f[XA], one field operation at a time."""
    return from_power(power_images(f, alphabet))


def evaluate(f, alphabet):
    """f[A], one field addition per power-sum term."""
    return sum(power_images(f, alphabet).values(), ZERO)
