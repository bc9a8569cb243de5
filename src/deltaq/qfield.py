"""Exact arithmetic in Q(q,t), plus q-Pochhammer and q-binomial primitives.

Coefficients throughout the package are elements of the fraction field of
ZZ[q,t] with lex monomial order (q > t).  sympy keeps every element in the
canonical form this package relies on: numerator and denominator coprime,
integer coefficients with no common content, denominator leading coefficient
positive.  Equality of coefficients is therefore plain ``==``.

The q-only scalars and the t=0 tables are built in ``QPoly``, a dense ZZ[q]:
a list of integer coefficients whose ``+`` and ``-`` run elementwise and
whose ``*`` is one product of two Python ints, each polynomial packed into an
int by Kronecker substitution (D. Harvey, "Faster polynomial multiplication
via multipoint Kronecker substitution", arXiv:0712.4046).  Values are
immutable, so each keeps its int once packed at a digit width and a cached
q-binomial is packed once; ``_pack`` and ``_unpack`` also serve
``symfunc.plethysm_one_minus_q``.  ``qpoch_poly`` is a
product of factors 1 - q^e and ``qbinom_poly`` the product formula with exact
division by each 1 - q^j (``_over_one_minus``, which raises ArithmeticError
when the division is not exact), both cached and neither recursive.  A Laurent
polynomial in q is a pair (poly, e), standing for poly * q^e: ``qpoch_laurent``
gives (q^s;q)_m so for any s, and ``reverse`` gives poly(1/q) * q^e by
reversing the coefficients instead of substituting 1/q; ``==`` on the
canonical pairs of ``laurent`` is equality, and ``dot`` sums products
q^s a b in one Kronecker pass.  Conversion is one-way: a value enters
Q(q,t) once, through ``from_poly``, whose only cancellation is of a power
of q, and no field element is turned back into a pair.  The sparse ring
``RING`` = ZZ[q,t] is kept for what needs both variables: the numerators
and denominators of Q(q,t), and ``swap_qt``, which exchanges them.

``render`` writes an element as canonical text, the package's one output
format for coefficients, and ``render_laurent`` writes a pair as that same
text in one pass; the package reads no coefficient text back.
"""

from __future__ import annotations

import struct
from functools import lru_cache, partial
from itertools import accumulate, repeat
from operator import add, mul, neg, sub

from sympy.polys.domains import ZZ
from sympy.polys.fields import field as _make_field
from sympy.polys.orderings import lex

FIELD, q, t = _make_field("q,t", ZZ, lex)

#: element type of Q(q,t); used in annotations
Coef = type(q)

ZERO = FIELD.zero
ONE = FIELD.one


def coef(value) -> Coef:
    """Coerce an int or a field element into Q(q,t)."""
    if isinstance(value, Coef):
        return value
    if isinstance(value, int):
        return FIELD(value)
    raise TypeError(f"cannot coerce {type(value).__name__} into Q(q,t)")


#: ZZ[q,t], the numerators and denominators of Q(q,t)
RING = FIELD.ring
_Q_POLY = RING.gens[0]


# -- dense ZZ[q] ----------------------------------------------------------------

#: Products whose shorter factor has at most this many coefficients are summed
#: term by term; longer ones go through one Kronecker-substituted int product.
_SCHOOLBOOK = 2

#: struct codes of the signed integer digits that the Kronecker product packs
#: in one call, by byte width; other widths pack digit by digit.
_DIGIT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _strip(c: list) -> list:
    """c without its trailing zeros."""
    end = len(c)
    while end and not c[end - 1]:
        end -= 1
    return c if end == len(c) else c[:end]


def _termwise(op, a: list, b: list) -> list:
    """op(a_i, b_i) for every i, the shorter of a and b padded with zeros."""
    n = min(len(a), len(b))
    out = list(map(op, a, b))
    out += a[n:]
    out += map(op, repeat(0), b[n:])
    return _strip(out)


def _digit_width(bound: int) -> int:
    """Bytes per signed digit for digits |c| <= bound: a width with a struct code if one fits."""
    width = (bound.bit_length() + 8) // 8
    return next((size for size in _DIGIT_CODES if size >= width), width)


def _pack(x: list, width: int) -> int:
    """sum_i x_i X^i at X = 2^(8 width), for signed digits |x_i| < X/2.

    The digits are written as two's complement bytes; xor-ing H, the int whose
    every digit is X/2, flips each digit's top bit, which leaves the digit
    c + X/2, and subtracting H then leaves c.
    """
    code = _DIGIT_CODES.get(width)
    half = int.from_bytes((bytes(width - 1) + b"\x80") * len(x), "little")
    if code:
        raw = struct.pack(f"<{len(x)}{code}", *x)
    else:
        raw = b"".join(v.to_bytes(width, "little", signed=True) for v in x)
    return (int.from_bytes(raw, "little") ^ half) - half


def _unpack(value: int, n: int, width: int) -> list:
    """The n signed digits of value = sum_i c_i X^i, X = 2^(8 width), every |c_i| < X/2.

    ``_pack`` backwards: adding H makes every digit c + X/2 nonnegative and
    below X, and xor-ing H then leaves the two's complement of c.
    """
    half = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = ((value + half) ^ half).to_bytes(n * width, "little")
    code = _DIGIT_CODES.get(width)
    if code:
        return list(struct.unpack(f"<{n}{code}", raw))
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, n * width, width)]


def _mul(a: list, b: list) -> list:
    """a * b summed term by term; ``QPoly`` sends longer products to ``dot``."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + len(b)] = map(add, out[i:i + len(b)], map(mul, b, repeat(x)))
    return out


def _coeffs(x):
    """The coefficient list of a QPoly or an int; NotImplemented for anything else."""
    if isinstance(x, QPoly):
        return x.c
    if isinstance(x, int):
        return [x] if x else []
    return NotImplemented


def _wrap(c: list) -> QPoly:
    """A QPoly holding c, which must have no trailing zero."""
    poly = object.__new__(QPoly)
    poly.c = c
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


def _operator(op, reflected: bool = False):
    """The QPoly method self op other (other op self if reflected), other a QPoly or an int."""
    def method(self, other):
        b = _coeffs(other)
        if b is NotImplemented:
            return b
        return _wrap(op(b, self.c) if reflected else op(self.c, b))
    return method


class QPoly:
    """An element of ZZ[q], dense: ``c[i]`` is the coefficient of q^i.

    ``c`` has no trailing zero, so the zero polynomial is ``[]``.  ``+``, ``-``
    and ``*`` take a QPoly or an int on either side; ``*`` of two QPolys is one
    Kronecker product (``dot``) unless a factor has at most ``_SCHOOLBOOK``
    coefficients.  Values are immutable by contract: no operation changes
    ``c`` in place and no caller may, because polynomials are shared, not
    least by the caches of ``qpoch_poly`` and ``qbinom_poly``; so two memos
    that a product fills, ``_norm`` (``_norm_of``) and ``_packs``, the
    Kronecker int by digit width (``_packed``), stay valid, and a cached
    factor is packed once per width.  New values start without them.  ``c``
    is a list rather than a tuple because every operation frees short
    intermediates, and freed tuples of up to 20 items stay in CPython's
    per-size free lists: about 1 MiB more peak memory on a sweep of
    q-binomial identities.
    """

    __slots__ = ("c", "_norm", "_packs")

    def __init__(self, coeffs=()):
        self.c = _strip(list(coeffs))

    @classmethod
    def from_terms(cls, terms: dict[int, int]) -> QPoly:
        """sum c q^e over the items e: c of terms, every e >= 0."""
        c = [0] * (max(terms, default=-1) + 1)
        for e, v in terms.items():
            c[e] += v
        return cls(c)

    def shift(self, e: int) -> QPoly:
        """q^e times self, for e >= 0; a negative e is a ValueError."""
        if e < 0:
            raise ValueError(f"cannot shift by q^{e} within ZZ[q]")
        return _wrap([0] * e + self.c) if self.c else self

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        return self.c == _coeffs(other)

    def __neg__(self) -> QPoly:
        return _wrap(list(map(neg, self.c)))

    __add__ = __radd__ = _operator(partial(_termwise, add))
    __sub__ = _operator(partial(_termwise, sub))
    __rsub__ = _operator(partial(_termwise, sub), reflected=True)
    _schoolbook = _operator(_mul)

    def __mul__(self, other):
        if isinstance(other, QPoly) and min(len(self.c), len(other.c)) > _SCHOOLBOOK:
            return dot(((0, self, other),))
        return self._schoolbook(other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"QPoly({self.c})"


def dot(terms) -> QPoly:
    """sum q^s a b over the triples (s, a, b) of QPolys a, b and s >= 0, read off one int sum.

    Kronecker substitution: every factor is evaluated at X = 2^(8w) (``_packed``),
    w bytes holding with a sign bit the bound sum ||a|| ||b|| min(len a, len b)
    on every coefficient; each int product is shifted by s digits.
    """
    live, bound, digits = [], 0, 0
    for s, a, b in terms:
        if s < 0:
            raise ValueError("cannot shift by a negative power of q within ZZ[q]")
        if a.c and b.c:
            live.append((s, a, b))
            bound += _norm_of(a) * _norm_of(b) * min(len(a.c), len(b.c))
            digits = max(digits, s + len(a.c) + len(b.c) - 1)
    if not live:
        return QPoly()
    width = _digit_width(bound)
    total = sum((_packed(a, width) * _packed(b, width)) << (8 * width * s) for s, a, b in live)
    return _wrap(_strip(_unpack(total, digits, width)))


#: a Laurent polynomial poly * q^e in q as the pair (poly, e)
Pair = tuple[QPoly, int]


def _times_one_minus(c: list, e: int) -> list:
    """c * (1 - q^e), for e >= 1, in one pass (``poly - poly.shift(e)`` takes three)."""
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


def from_poly(poly: QPoly, e: int = 0) -> Coef:
    """poly * q^e as an element of Q(q,t), for any integer e.

    The canonical form is reached without a gcd: the denominator is the least
    power of q that makes the numerator a polynomial.
    """
    c = poly.c
    if not c:
        return ZERO
    low = next(i for i, v in enumerate(c) if v)
    d = max(0, -e - low)
    # RING.dtype builds the element without converting each coefficient again
    numer = RING.dtype({(i + e + d, 0): ZZ.dtype(v) for i, v in enumerate(c) if v})
    return FIELD.raw_new(numer, _Q_POLY**d)


def laurent(poly: QPoly, e: int = 0) -> Pair:
    """poly * q^e as its canonical pair: nonzero constant coefficient, or (QPoly(), 0) for zero."""
    low = next((i for i, v in enumerate(poly.c) if v), None)
    if low is None:
        return poly, 0
    return (_wrap(poly.c[low:]), e + low) if low else (poly, e)


def reverse(poly: QPoly, e: int) -> Pair:
    """poly(1/q) * q^e as the pair (rev(poly), e - deg poly), rev reversing the coefficients."""
    return QPoly(poly.c[::-1]), e - len(poly.c) + 1


@lru_cache(maxsize=None)
def qpoch_poly(s: int, m: int) -> QPoly:
    """(q^s; q)_m = prod_{j=0}^{m-1} (1 - q^(s+j)), for s >= 1 and m >= 0."""
    if s < 1 or m < 0:
        raise ValueError(f"need s >= 1 and m >= 0, got s={s}, m={m}")
    c = [1]
    for e in range(s, s + m):
        c = _times_one_minus(c, e)
    return _wrap(c)


def qpoch_laurent(s: int, m: int) -> Pair:
    """(q^s; q)_m as (poly, e), standing for poly * q^e, for any s.  m < 0 is rejected."""
    if m < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    if s >= 1:
        return qpoch_poly(s, m), 0
    if s + m > 0:  # the factor 1 - q^0
        return QPoly(), 0
    # every exponent is negative: 1 - q^-a = -q^-a (1 - q^a)
    poly = qpoch_poly(1 - s - m, m)
    return (-poly if m % 2 else poly), m * (2 * s + m - 1) // 2


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
    c = [1]
    for j in range(1, b + 1):
        c = _over_one_minus(_times_one_minus(c, a - b + j), j)
    return _wrap(c)


def swap_qt(f: Coef) -> Coef:
    """f with q and t exchanged; FIELD.new restores the canonical form under lex q > t."""
    def swapped(poly):
        return RING.from_dict({(j, i): c for (i, j), c in poly.items()})
    return FIELD.new(swapped(f.numer), swapped(f.denom))


# -- rendering -----------------------------------------------------------------

def _poly_str(terms) -> str:
    """sum c q^i t^j over the items ((i, j), c) of terms, in their order; "0" for none."""
    pieces = []
    for (i, j), c in terms:
        c = int(c)
        power = ("q" if i == 1 else f"q^{i}") if i else ""
        if j:
            power = f"{power}*t" if power else "t"
            power += f"^{j}" if j > 1 else ""
        a = abs(c)
        text = (power if a == 1 else f"{a}*{power}") if power else str(a)
        pieces.append(f" - {text}" if c < 0 else f" + {text}")
    text = "".join(pieces) or " + 0"
    return text[3:] if text[1] == "+" else f"-{text[3:]}"


def _is_bare_term(poly) -> bool:
    terms = poly.terms()
    return len(terms) == 1 and int(terms[0][1]) > 0


def render(f: Coef) -> str:
    """Canonical string form, e.g. '(q^3 - q^2 + 1)/(q - 1)'."""
    num = _poly_str(f.numer.terms())
    if f.denom == FIELD.ring.one:
        return num
    if not _is_bare_term(f.numer):
        num = f"({num})"
    den = _poly_str(f.denom.terms())
    if not _is_bare_term(f.denom):
        den = f"({den})"
    return f"{num}/{den}"


def render_laurent(poly: QPoly, e: int = 0) -> str:
    """``render(from_poly(poly, e))``, written from the canonical pair: q^-e is the denominator."""
    poly, e = laurent(poly, e)
    c, low = poly.c, max(e, 0)
    pieces = []
    for k in range(len(c) - 1 + low, low - 1, -1):
        if v := c[k - low]:
            a, power = (-v if v < 0 else v), (f"q^{k}" if k > 1 else "q" if k else "")
            text = (power if a == 1 else f"{a}*{power}") if power else str(a)
            pieces.append(f" - {text}" if v < 0 else f" + {text}")
    text = "".join(pieces) or " + 0"
    num = text[3:] if text[1] == "+" else f"-{text[3:]}"
    if e >= 0:
        return num
    den = f"q^{-e}" if e < -1 else "q"
    return f"{num}/{den}" if len(c) == 1 and c[0] > 0 else f"({num})/{den}"  # one positive term
