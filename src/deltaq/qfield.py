"""Integer Laurent polynomials in q and t, and the dense ZZ[q, 1/q] they are built from.

Every coefficient the package reports is a ``Coef``: an integer Laurent
polynomial in q and t in a canonical form, so equality is plain ``==``.  It
has no arithmetic and is built once per Schur coefficient, from a ``QPoly``
(``from_poly``) or from integer counts {(i, j): c} (``Coef(counts)``).

The q-only scalars and the t=0 tables are built in ``QPoly``, a dense
ZZ[q, 1/q]: a list of integer coefficients from a least exponent e, always
canonical, so ``==`` is equality.  It has no ``+``, ``-`` or ``*``: past
``shift``, unary ``-`` and ``reverse``, its arithmetic is ``dot`` and
``one_minus_product``.  ``dot`` takes a whole q-expression, the sum of
products f_1 ... f_r, terms of any arity, times an optional common factor,
in one pass of Kronecker substitution (D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", arXiv:0712.4046):
each coefficient list is packed into a Python int, and the expression is
one int sum of int products unpacked once, so no intermediate product is
unpacked and packed again.  Values are immutable, so each keeps its int
once packed at a digit width, a cached q-binomial is packed once, and
``shift``, which leaves the coefficients alone, shares the memo.  Digits are
signed, packed little-endian, and offset by H, the int whose every digit is
X/2; H is cut from one long constant per width (``_half``).  ``_pack`` and
``_unpack`` also serve ``symfunc.plethysm_one_minus_q``.

Every exact q-product is one ``one_minus_product``: a start polynomial times
factors 1 - q^e and exact divisions by 1 - q^j in the order given, as in
``qpoch_poly`` (for any start s) and in ``qbinom_poly``'s product formula,
both cached and neither recursive, and in ``hall_littlewood``'s division of
Q_mu by b_mu, which starts from each Schur coefficient; a start times one
factor 1 - q^e is the same call.  ``reverse`` gives poly(1/q) by reversing
the coefficients instead of substituting 1/q.

``render`` writes a ``Coef`` as the canonical text of its element of Q(q,t),
the package's one output format for coefficients, and ``render_poly``
writes a ``QPoly`` as that same text without building the ``Coef``; both
go through one term writer, ``_write``, with the monomial texts cached.
Nothing reads the text back.

Only the two-parameter route of ``delta_ops`` uses sympy: ``FIELD`` = Q(q,t),
``RING`` = ZZ[q,t] and their generators ``q``, ``t`` are built on first
access by the module ``__getattr__`` (PEP 562), so importing deltaq does not
import sympy.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import accumulate
from math import inf
from operator import neg, sub

#: FIELD, RING, q and t once built; kept here, not in the module namespace
_SYMBOLIC: dict = {}


def __getattr__(name: str):
    """``FIELD`` = Q(q,t) (lex order, q > t), ``RING`` = ZZ[q,t], and ``q``, ``t``, built once."""
    if name not in ("FIELD", "RING", "q", "t"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if not _SYMBOLIC:
        from sympy import ZZ, field, lex

        fld, gen_q, gen_t = field("q,t", ZZ, lex)
        _SYMBOLIC.update(FIELD=fld, RING=fld.ring, q=gen_q, t=gen_t)
    return _SYMBOLIC[name]


# -- dense ZZ[q, 1/q] -----------------------------------------------------------

#: struct codes of the signed integer digits that the Kronecker product packs
#: in one call, by byte width; other widths pack digit by digit.
_DIGIT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _canonical(c: list, e: int) -> tuple[list, int]:
    """c q^e as (c', e'): c less its zeros at either end, e past the low ones; ([], 0) if zero."""
    end = len(c)
    while end and not c[end - 1]:
        end -= 1
    if not end:
        return [], 0
    low = 0
    while not c[low]:
        low += 1
    return (c if low == 0 and end == len(c) else c[low:end]), e + low


#: the struct width that holds a sign bit and b bits, by b < 64
_WIDTHS = bytes([1] * 8 + [2] * 8 + [4] * 16 + [8] * 32)


def _digit_width(bound: int) -> int:
    """Bytes per signed digit for digits |c| <= bound: a width with a struct code if one fits."""
    bits = bound.bit_length()
    return _WIDTHS[bits] if bits < 64 else (bits + 8) // 8


#: width -> (n, H_n), H_n = sum_{i<n} (X/2) X^i at X = 2^(8 width), for the longest n asked
_HALVES: dict[int, tuple[int, int]] = {}


def _half(n: int, width: int) -> int:
    """H, the int of n digits that are all X/2, X = 2^(8 width): the top n digits of one constant.

    Every digit is the same, so H for fewer digits is the longest H built at
    this width shifted right; a longer n rebuilds it at twice that length.
    """
    digits, value = _HALVES.get(width, (0, 0))
    if digits < n:
        digits = max(2 * digits, n, 64)
        value = int.from_bytes((bytes(width - 1) + b"\x80") * digits, "little")
        _HALVES[width] = digits, value
    return value >> (8 * width * (digits - n))


def _pack(x: list, width: int) -> int:
    """sum_i x_i X^i at X = 2^(8 width), for signed digits |x_i| < X/2.

    The digits are written as little-endian two's complement bytes; xor-ing
    H (``_half``) flips each digit's top bit, which leaves the digit c + X/2,
    and subtracting H then leaves c.
    """
    code = _DIGIT_CODES.get(width)
    half = _half(len(x), width)
    if code:
        raw = struct.pack(f"<{len(x)}{code}", *x)
    else:
        raw = b"".join(v.to_bytes(width, "little", signed=True) for v in x)
    return (int.from_bytes(raw, "little") ^ half) - half


def _unpack(value: int, n: int, width: int) -> list:
    """The n signed digits of value = sum_i c_i X^i, X = 2^(8 width), every |c_i| < X/2.

    ``_pack`` backwards: adding H (``_half``) makes every digit c + X/2
    nonnegative and below X, and xor-ing H then leaves the two's complement of c.
    """
    half = _half(n, width)
    raw = ((value + half) ^ half).to_bytes(n * width, "little")
    code = _DIGIT_CODES.get(width)
    if code:
        return list(struct.unpack(f"<{n}{code}", raw))
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, n * width, width)]


def _wrap(c: list, e: int = 0) -> QPoly:
    """A QPoly holding c q^e, c with no zero at either end."""
    poly = object.__new__(QPoly)
    poly.c = c
    poly.e = e if c else 0
    return poly


def _norm_of(p: QPoly) -> int:
    """max |c_i| over the coefficients of p, p nonzero, computed once per value."""
    if (norm := getattr(p, "_norm", None)) is None:
        norm = p._norm = max(max(p.c), -min(p.c))
    return norm


def _packed(p: QPoly, width: int) -> int:
    """``_pack(p.c, width)``, computed once per value and width."""
    if (packs := getattr(p, "_packs", None)) is None:
        packs = p._packs = {}
    if (value := packs.get(width)) is None:
        value = packs[width] = _pack(p.c, width)
    return value


class QPoly:
    """An element of ZZ[q, 1/q], dense: ``c[i]`` is the coefficient of q^(e+i).

    Canonical: ``c`` has no zero at either end, and zero is ``c == []`` with
    ``e == 0``, so ``==`` is equality.  ``QPoly(coeffs, e)`` is
    sum coeffs[i] q^(e+i) for any list and any integer e.  There is no
    ``+``, ``-`` or ``*``: sums and products are ``dot`` and
    ``one_minus_product``, and ``==`` holds only between QPolys.  Values are
    immutable by contract: no operation changes ``c`` in place and no caller
    may, because polynomials are shared, not least by the caches of
    ``qpoch_poly`` and ``qbinom_poly``; so two memos that ``dot`` fills,
    ``_norm`` (``_norm_of``) and ``_packs``, the Kronecker int of ``c`` by
    digit width (``_packed``), stay valid, and a cached factor is packed once
    per width.  New values start without them, except that ``shift`` hands
    its result the same ``_packs``.  ``c`` is a list rather than a tuple
    because every operation frees short intermediates, and freed tuples of
    up to 20 items stay in CPython's per-size free lists: about 1 MiB more
    peak memory on a sweep of q-binomial identities.
    """

    __slots__ = ("c", "e", "_norm", "_packs")

    def __init__(self, coeffs=(), e: int = 0):
        self.c, self.e = _canonical(list(coeffs), e)

    def shift(self, e: int) -> QPoly:
        """q^e times self, for any integer e; the result shares self's Kronecker ints."""
        if not self.c:
            return self
        out = _wrap(self.c, self.e + e)
        if (packs := getattr(self, "_packs", None)) is None:
            packs = self._packs = {}
        out._packs = packs
        return out

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and (self.c, self.e) == (other.c, other.e)

    def __neg__(self) -> QPoly:
        return _wrap(list(map(neg, self.c)), self.e)

    def __repr__(self) -> str:
        return f"QPoly({self.c}, {self.e})"


def dot(terms, factor: QPoly | None = None) -> QPoly:
    """factor times the sum of f_1 ... f_r over the terms (f_1, ..., f_r) of QPolys, in one int.

    A term is a tuple or list of any number r of QPolys (r = 0 is the product
    1), and factor defaults to 1.  Kronecker substitution: every factor is
    evaluated at X = 2^(8w) (``_packed``), each term is one int product
    shifted by as many digits as its least exponent exceeds the least of them
    all, and the sum of the terms times the factor's int is unpacked once.  Evaluation at X is a
    ring map, so only the result's coefficients need to fit in w bytes with a
    sign bit.  A term's coefficients are bounded along its chain: from 1, each
    f_i multiplies the bound by ||f_i|| min(len(f_1 ... f_(i-1)), len f_i), so
    a pair gives ||a|| ||b|| min(len a, len b); the terms' bounds are summed,
    and the factor takes one more such step on the sum.
    """
    if factor is not None and not factor.c:
        return QPoly()
    live, bound, low, top = [], 0, inf, -inf
    for term in terms:
        s, size, length = 0, 1, 1  # of the empty product 1
        for f in term:
            if not f.c:
                break
            s += f.e
            size *= _norm_of(f) * min(length, len(f.c))
            length += len(f.c) - 1
        else:
            live.append((s, term))
            bound += size
            if s < low:
                low = s
            if s + length > top:
                top = s + length
    if not live:
        return QPoly()
    digits = top - low
    if factor is not None:
        bound *= _norm_of(factor) * min(digits, len(factor.c))
    width = _digit_width(bound)
    total = 0
    for s, term in live:
        value = 1
        for f in term:
            value *= _packed(f, width)
        total += value << (8 * width * (s - low))
    if factor is not None:
        total *= _packed(factor, width)
        low += factor.e
        digits += len(factor.c) - 1
    return _wrap(*_canonical(_unpack(total, digits, width), low))


def _times_one_minus(c: list, e: int) -> list:
    """c * (1 - q^e), for e >= 1, in one pass."""
    out = list(c) + [0] * e
    out[e:] = map(sub, out[e:], c)
    return out


def _over_one_minus(c: list, j: int) -> list:
    """c / (1 - q^j), for j >= 1; ArithmeticError unless 1 - q^j divides c.

    The quotient r satisfies r_i = c_i + r_(i-j): a running sum along each
    residue class of exponents mod j.  Its top j coefficients vanish exactly
    when the division is exact.
    """
    out = list(c)
    for s in range(j):
        out[s::j] = accumulate(c[s::j])
    cut = max(len(c) - j, 0)
    if any(out[cut:]):
        raise ArithmeticError(f"1 - q^{j} does not divide {QPoly(c)}")
    return out[:cut]


def reverse(poly: QPoly) -> QPoly:
    """poly(1/q), by reversing the coefficients."""
    return _wrap(poly.c[::-1], -poly.e - len(poly.c) + 1)


def one_minus_product(exponents, start: QPoly = QPoly([1])) -> QPoly:
    """start times the factors 1 - q^e (e > 0) and 1/(1 - q^-e) (e < 0), in the order given.

    A division that is not exact, at any step, is an ArithmeticError, and
    e = 0 a ValueError.
    """
    c = start.c
    for e in exponents:
        if not e:
            raise ValueError("the factor 1 - q^0 is zero")
        c = _times_one_minus(c, e) if e > 0 else _over_one_minus(c, -e)
    return _wrap(*_canonical(c, start.e))


@lru_cache(maxsize=None)
def qpoch_poly(s: int, m: int) -> QPoly:
    """(q^s; q)_m = prod_{j=0}^{m-1} (1 - q^(s+j)), for any s and m >= 0; zero if s <= 0 < s+m."""
    if m < 0:
        raise ValueError(f"Pochhammer length must be nonnegative, got m={m}")
    if s >= 1:
        return one_minus_product(range(s, s + m))
    if s + m > 0:
        return QPoly()
    # every exponent is negative: 1 - q^-a = -q^-a (1 - q^a)
    poly = qpoch_poly(1 - s - m, m)
    return (-poly if m % 2 else poly).shift(m * (2 * s + m - 1) // 2)


@lru_cache(maxsize=None)
def qbinom_poly(a: int, b: int) -> QPoly:
    """Gaussian binomial [a, b]_q; zero outside 0 <= b <= a.

    By the product formula [a, b] = prod_{j=1}^{b} (1 - q^(a-b+j)) / (1 - q^j),
    one factor of each at a time, so every partial product is the polynomial
    [a-b+j, j]_q; b is first replaced by the smaller of b and a - b.
    """
    if b < 0 or b > a:
        return QPoly()
    b = min(b, a - b)
    return one_minus_product(x for j in range(1, b + 1) for x in (a - b + j, -j))


# -- Laurent polynomials in q and t ----------------------------------------------

class Coef:
    """An integer Laurent polynomial in q and t, the coefficient type of the package.

    ``terms`` holds ((i, j), c) for each term c q^i t^j, sorted by (i, j)
    from the top with no zero c: one form per value, so ``==`` and ``hash``
    are those of ``terms``.  ``Coef(counts)`` builds it from a map
    {(i, j): c}; values are immutable and have no arithmetic.
    """

    __slots__ = ("terms",)

    def __init__(self, counts=None):
        self.terms = tuple(sorted(((key, c) for key, c in (counts or {}).items() if c),
                                  reverse=True))

    def swapped(self) -> Coef:
        """self with the exponents of q and t exchanged."""
        return Coef({(j, i): c for (i, j), c in self.terms})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coef) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"Coef({render(self)})"


def from_poly(poly: QPoly) -> Coef:
    """poly as a ``Coef``: its terms are the coefficients from the top."""
    c, e, out = poly.c, poly.e, object.__new__(Coef)
    out.terms = tuple(((e + i, 0), c[i]) for i in range(len(c) - 1, -1, -1) if c[i])
    return out


ZERO = Coef()
ONE = from_poly(QPoly([1]))


# -- rendering -----------------------------------------------------------------

@lru_cache(maxsize=None)
def _power(i: int, j: int) -> str:
    """The text of the monomial q^i t^j, i, j >= 0: 'q^2*t', 'q', ...; '' for 1."""
    return "*".join(x if k == 1 else f"{x}^{k}" for x, k in (("q", i), ("t", j)) if k)


@lru_cache(maxsize=None)
def _q_powers(n: int) -> tuple[str, ...]:
    """The texts of q^0 .. q^(n-1)."""
    return tuple(_power(k, 0) for k in range(n))


def _write(terms, den: str) -> str:
    """sum c m over the pairs (m, c) of terms in order, zero c skipped, over the monomial den.

    "0" for no term, and den "" is 1.  Over any other den the numerator is
    bracketed unless it is one term with a positive coefficient.
    """
    pieces = []
    for power, c in terms:
        if c:
            v = -c if c < 0 else c
            text = (power if v == 1 else f"{v}*{power}") if power else str(v)
            pieces.append(f" - {text}" if c < 0 else f" + {text}")
    text = "".join(pieces) or " + 0"
    num = text[3:] if text[1] == "+" else f"-{text[3:]}"
    if not den:
        return num
    return f"{num}/{den}" if len(pieces) == 1 and text[1] == "+" else f"({num})/{den}"


def render(f: Coef) -> str:
    """Canonical string form of f as an element of Q(q,t), e.g. '(q^3 - 2*t)/(q*t^2)'.

    The numerator is f times the least monomial q^a t^b that leaves no
    negative exponent, and q^a t^b is the denominator, unless it is 1.
    """
    terms = f.terms
    a = max(0, -min((i for (i, _), _ in terms), default=0))
    b = max(0, -min((j for (_, j), _ in terms), default=0))
    return _write([(_power(i + a, j + b), c) for (i, j), c in terms], _power(a, b))


def render_poly(poly: QPoly) -> str:
    """``render(from_poly(poly))`` without the ``Coef``: q^-e is the denominator when e < 0."""
    c, e = poly.c, poly.e
    low = max(e, 0)
    return _write(zip(reversed(_q_powers(low + len(c))[low:]), reversed(c)), _power(low - e, 0))
