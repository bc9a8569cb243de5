"""Integer Laurent polynomials in q and t, and the dense ZZ[q] they are built from.

Every coefficient the package reports is a ``Coef``: an integer Laurent
polynomial in q and t in a canonical form, so equality is plain ``==``.  It
has no arithmetic and is built once per Schur coefficient, from a pair
(``from_pair``) or from integer counts {(i, j): c} (``Coef(counts)``).

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
q^s a b in one Kronecker pass.

``render`` writes a ``Coef`` as the canonical text of its element of Q(q,t),
the package's one output format for coefficients, and ``render_laurent``
writes a pair as that same text in one pass; nothing reads it back.

Only the two-parameter route of ``delta_ops`` uses sympy: ``FIELD`` = Q(q,t),
``RING`` = ZZ[q,t] and their generators ``q``, ``t`` are built on first
access by the module ``__getattr__`` (PEP 562), so importing deltaq does not
import sympy.
"""

from __future__ import annotations

import struct
from functools import lru_cache, partial
from itertools import accumulate, repeat
from operator import add, mul, neg, sub

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


def from_pair(poly: QPoly, e: int = 0) -> Coef:
    """poly * q^e as a ``Coef``, for any integer e: its terms are the coefficients from the top."""
    c, out = poly.c, object.__new__(Coef)
    out.terms = tuple(((e + i, 0), c[i]) for i in range(len(c) - 1, -1, -1) if c[i])
    return out


ZERO = Coef()
ONE = from_pair(QPoly([1]))


# -- rendering -----------------------------------------------------------------

def _poly_str(terms) -> str:
    """sum c q^i t^j over the items ((i, j), c) of terms, in their order; "0" for none."""
    pieces = []
    for (i, j), c in terms:
        power = ("q" if i == 1 else f"q^{i}") if i else ""
        if j:
            power = f"{power}*t" if power else "t"
            power += f"^{j}" if j > 1 else ""
        a = abs(c)
        text = (power if a == 1 else f"{a}*{power}") if power else str(a)
        pieces.append(f" - {text}" if c < 0 else f" + {text}")
    text = "".join(pieces) or " + 0"
    return text[3:] if text[1] == "+" else f"-{text[3:]}"


def render(f: Coef) -> str:
    """Canonical string form of f as an element of Q(q,t), e.g. '(q^3 - 2*t)/(q*t^2)'.

    The numerator is f times the least monomial q^a t^b that leaves no
    negative exponent, and q^a t^b is the denominator, unless it is 1.  The
    numerator is bracketed unless it is one term with a positive coefficient.
    """
    terms = f.terms
    a = max(0, -min((i for (i, _), _ in terms), default=0))
    b = max(0, -min((j for (_, j), _ in terms), default=0))
    if not (a or b):
        return _poly_str(terms)
    num = _poly_str(((i + a, j + b), c) for (i, j), c in terms)
    if len(terms) > 1 or terms[0][1] < 0:
        num = f"({num})"
    return f"{num}/{_poly_str((((a, b), 1),))}"


def render_laurent(poly: QPoly, e: int = 0) -> str:
    """``render(from_pair(poly, e))``, written from the canonical pair: q^-e is the denominator."""
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
