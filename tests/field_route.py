"""The field route to the q-only scalars, kept as the reference of the tests.

Every value here is built by Q(q,t) arithmetic, one gcd-normalized ``*`` or
``+`` at a time: a Pochhammer symbol as the product of its factors, a
q-binomial as a quotient of Pochhammer symbols, and a kernel moment as the
literal sum over s of ``remmel_coeff(s)`` times a Pochhammer window.
``deltaq.qfield`` and ``deltaq.delta_ops`` build the same values in ZZ[q] and
convert once; the tests require both routes to agree.
"""

from deltaq.delta_ops import HookParams, remmel_coeff
from deltaq.qfield import ONE, ZERO, q


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
