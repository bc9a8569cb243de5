"""Exact arithmetic in Q(q,t), plus q-Pochhammer and q-binomial primitives.

Coefficients throughout the package are elements of the fraction field of
ZZ[q,t] with lex monomial order (q > t).  sympy keeps every element in the
canonical form this package relies on: numerator and denominator coprime,
integer coefficients with no common content, denominator leading coefficient
positive.  Equality of coefficients is therefore plain ``==``.

The q-only scalars are built in the polynomial ring ``RING`` = ZZ[q,t], where
``+`` and ``*`` run no gcd: ``qbinom_poly`` by the q-Pascal rule and
``qpoch_poly`` as a product of factors 1 - q^e, both cached.  A value enters
Q(q,t) once, as poly * q^e through ``from_poly``, whose only cancellation is
of a power of q.  ``qbinom`` and ``qpoch_at`` are those conversions, and
``from_reversed`` is the one for poly(1/q) * q^e: it reverses the coefficients
instead of substituting 1/q.  ``swap_qt`` exchanges the two variables.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from functools import lru_cache

from sympy.polys.domains import ZZ
from sympy.polys.fields import field as _make_field
from sympy.polys.orderings import lex

FIELD, q, t = _make_field("q,t", ZZ, lex)

#: element type of Q(q,t); used in annotations
Coef = type(q)

ZERO = FIELD.zero
ONE = FIELD.one


class PoleError(ZeroDivisionError):
    """A denominator vanishes identically, e.g. a division by zero in ``parse``."""


def coef(value) -> Coef:
    """Coerce an int, Fraction, or field element into Q(q,t)."""
    if isinstance(value, Coef):
        return value
    if isinstance(value, int):
        return FIELD(value)
    if isinstance(value, Fraction):
        return FIELD(value.numerator) / FIELD(value.denominator)
    raise TypeError(f"cannot coerce {type(value).__name__} into Q(q,t)")


#: ZZ[q,t], the numerators and denominators of Q(q,t)
RING = FIELD.ring
_Q_POLY = RING.gens[0]


def from_poly(poly, e: int = 0) -> Coef:
    """poly * q^e as an element of Q(q,t), for poly in RING and any integer e.

    The canonical form is reached without a gcd: the denominator is the least
    power of q that makes the numerator a polynomial.
    """
    if not poly:
        return ZERO
    d = max(0, -e - min(eq_ for eq_, _ in poly.itermonoms()))
    if e + d:
        poly = poly.mul_monom((e + d, 0))
    return FIELD.raw_new(poly, _Q_POLY**d)


@lru_cache(maxsize=None)
def qpoch_poly(s: int, m: int):
    """(q^s; q)_m = prod_{j=0}^{m-1} (1 - q^(s+j)) in RING, for s >= 1 and m >= 0.

    Cached: every caller shares the returned polynomial, so none may mutate it.
    """
    if s < 1 or m < 0:
        raise ValueError(f"need s >= 1 and m >= 0, got s={s}, m={m}")
    if m == 0:
        return RING.one
    rest = qpoch_poly(s, m - 1)
    return rest - rest.mul_monom((s + m - 1, 0))


def qpoch_at(s: int, m: int) -> Coef:
    """(q^s; q)_m = prod_{j=0}^{m-1} (1 - q^(s+j)).  m < 0 is rejected."""
    if m < 0:
        raise ValueError("Pochhammer length must be nonnegative")
    if s >= 1:
        return from_poly(qpoch_poly(s, m))
    if s + m > 0:  # the factor 1 - q^0
        return ZERO
    # every exponent is negative: 1 - q^-a = -q^-a (1 - q^a)
    poly = qpoch_poly(1 - s - m, m)
    return from_poly(-poly if m % 2 else poly, m * (2 * s + m - 1) // 2)


def qpoch(m: int) -> Coef:
    """(q; q)_m."""
    return qpoch_at(1, m)


@lru_cache(maxsize=None)
def qbinom_poly(a: int, b: int):
    """Gaussian binomial [a, b]_q in RING; zero outside 0 <= b <= a.

    Built by the q-Pascal rule [a, b] = [a-1, b-1] + q^b [a-1, b] and cached
    like ``qpoch_poly``: no caller may mutate the returned polynomial.
    """
    if b < 0 or b > a:
        return RING.zero
    if b == 0 or b == a:
        return RING.one
    return qbinom_poly(a - 1, b - 1) + qbinom_poly(a - 1, b).mul_monom((b, 0))


def qbinom(a: int, b: int) -> Coef:
    """Gaussian binomial [a, b]_q; zero outside 0 <= b <= a."""
    return from_poly(qbinom_poly(a, b))


def from_reversed(poly, e: int) -> Coef:
    """poly(1/q) * q^e as an element of Q(q,t), for poly in RING.

    With d the q-degree of poly, poly(1/q) = q^(-d) rev(poly), where rev
    reverses the q-coefficients; the value is from_poly(rev(poly), e - d).
    """
    if not poly:
        return ZERO
    d = poly.degree()
    return from_poly(RING.from_dict({(d - i, j): c for (i, j), c in poly.items()}), e - d)


def swap_qt(f: Coef) -> Coef:
    """f with q and t exchanged; FIELD.new restores the canonical form under lex q > t."""
    def swapped(poly):
        return RING.from_dict({(j, i): c for (i, j), c in poly.items()})
    return FIELD.new(swapped(f.numer), swapped(f.denom))


# -- rendering and parsing ---------------------------------------------------

def _monomial_str(eq_: int, et_: int, c: int) -> str:
    factors = []
    if abs(c) != 1 or (eq_ == 0 and et_ == 0):
        factors.append(str(abs(c)))
    if eq_:
        factors.append("q" if eq_ == 1 else f"q^{eq_}")
    if et_:
        factors.append("t" if et_ == 1 else f"t^{et_}")
    return "*".join(factors)


def _poly_str(poly) -> str:
    terms = poly.terms()
    if not terms:
        return "0"
    pieces = []
    for (eq_, et_), c in terms:
        c = int(c)
        text = _monomial_str(eq_, et_, c)
        if not pieces:
            pieces.append(text if c > 0 else f"-{text}")
        else:
            pieces.append(f" + {text}" if c > 0 else f" - {text}")
    return "".join(pieces)


def _is_bare_term(poly) -> bool:
    terms = poly.terms()
    return len(terms) == 1 and int(terms[0][1]) > 0


def render(f: Coef) -> str:
    """Canonical string form, e.g. '(q^3 - q^2 + 1)/(q - 1)'."""
    num = _poly_str(f.numer)
    if f.denom == FIELD.ring.one:
        return num
    if not _is_bare_term(f.numer):
        num = f"({num})"
    den = _poly_str(f.denom)
    if not _is_bare_term(f.denom):
        den = f"({den})"
    return f"{num}/{den}"


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _eval_node(node) -> Coef:
    if isinstance(node, ast.Expression):
        return _eval_node(node.body)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return FIELD(node.value)
        raise ValueError(f"non-integer literal {node.value!r}")
    if isinstance(node, ast.Name):
        if node.id == "q":
            return q
        if node.id == "t":
            return t
        raise ValueError(f"unknown symbol {node.id!r}")
    if isinstance(node, ast.UnaryOp):
        val = _eval_node(node.operand)
        if isinstance(node.op, ast.USub):
            return -val
        if isinstance(node.op, ast.UAdd):
            return val
        raise ValueError("unsupported unary operator")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        left = _eval_node(node.left)
        right = _eval_node(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            if not right:
                raise PoleError("division by zero in coefficient expression")
            return left / right
        # Pow: exponent must reduce to an integer constant
        terms = right.numer.terms()
        if right.denom == FIELD.ring.one and (not terms or terms[0][0] == (0, 0)):
            exp = int(terms[0][1]) if terms else 0
            return left**exp
        raise ValueError("exponent must be an integer")
    raise ValueError(f"unsupported syntax in coefficient expression: {ast.dump(node)}")


def parse(text: str) -> Coef:
    """Parse the grammar emitted by render(): +, -, *, /, ^ over q, t, integers."""
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse coefficient {text!r}") from exc
    return _eval_node(tree)
