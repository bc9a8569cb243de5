"""Reference arithmetic the benchmark checks deltaq's outputs against.

Nothing here imports deltaq: every value is computed with Python integers and
``fractions.Fraction`` from closed formulas (Gaussian-binomial product formula,
hook-length formula, Catalan and parking-function counts), and deltaq's
rendered coefficients are read back by a parser of this module's own.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from math import comb, factorial, prod


# -- closed formulas ------------------------------------------------------------

def gaussian_binomial(a: int, b: int, x: Fraction) -> Fraction:
    """[a, b]_x = prod_{i=1}^{b} (1 - x^(a-b+i)) / (1 - x^i); zero outside 0 <= b <= a."""
    if b < 0 or b > a:
        return Fraction(0)
    out = Fraction(1)
    for i in range(1, b + 1):
        out *= (1 - x ** (a - b + i)) / (1 - x**i)
    return out


def prop31_sides(k: int, m: int, ell: int, x: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the alternating q-binomial sum of prop31 at q = x."""
    lhs = sum(
        (-1) ** i * x ** comb(i, 2) * gaussian_binomial(k + 2, i, x)
        * gaussian_binomial(m + 1 - i, ell, x)
        for i in range(0, min(k + 2, m + 1 - ell) + 1)
    )
    rhs = x ** ((k + 2) * (m + 1 - ell)) * gaussian_binomial(m - k - 1, ell - 2 - k, x)
    return Fraction(lhs), rhs


def cor32_sides(k: int, m: int, ell: int, x: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the companion alternating sum of cor32 at q = x."""
    lhs = sum(
        (-1) ** i * x ** comb(i, 2) * gaussian_binomial(k + 2, i, x)
        * gaussian_binomial(m + ell - i, ell, x)
        for i in range(0, min(k + 2, m) + 1)
    )
    rhs = x ** ((k + 2) * m) * gaussian_binomial(m + ell - (k + 2), ell - (k + 2), x)
    return Fraction(lhs), rhs


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n in reverse-lexicographic order, (n) first, (1^n) last."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, max_part), 0, -1)
        for rest in partitions(n - first, first)
    ]


def standard_tableaux_count(shape: tuple[int, ...]) -> int:
    """f^shape by the hook-length formula."""
    conj = [sum(1 for p in shape if p > j) for j in range(shape[0])] if shape else []
    hooks = prod(
        (shape[i] - j - 1) + (conj[j] - i - 1) + 1
        for i in range(len(shape)) for j in range(shape[i])
    )
    return factorial(sum(shape)) // hooks


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def parking_function_count(n: int) -> int:
    return (n + 1) ** (n - 1)


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a matrix over Q by Gaussian elimination on Fractions."""
    pivots: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        vec = list(row)
        for col, prow in pivots:
            if vec[col]:
                ratio = vec[col] / prow[col]
                vec = [a - ratio * b for a, b in zip(vec, prow)]
        lead = next((i for i, v in enumerate(vec) if v), None)
        if lead is not None:
            pivots.append((lead, vec))
    return len(pivots)


# -- reading deltaq's rendered output -------------------------------------------

def evaluate(text: str, q: Fraction, t: Fraction = Fraction(0)) -> Fraction:
    """Evaluate a rendered coefficient (+, -, *, /, ^ over q, t and integers)."""
    tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
    return _eval(tree.body, {"q": Fraction(q), "t": Fraction(t)})


def _eval(node, names: dict[str, Fraction]) -> Fraction:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return Fraction(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        val = _eval(node.operand, names)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            exp = _eval(node.right, names)
            if exp.denominator != 1:
                raise ValueError("exponent must be an integer")
            return _eval(node.left, names) ** int(exp)
        left, right = _eval(node.left, names), _eval(node.right, names)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
    raise ValueError(f"unsupported syntax in rendered coefficient: {ast.dump(node)}")


def schur_terms(text: str) -> dict[tuple[int, ...], str]:
    """Split a rendered Schur expansion 's[3,1]*(c1) + s[2,2]*(c2)' into {partition: c}."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[tuple[int, ...], str] = {}
    pos = 0
    while True:
        if not text.startswith("s[", pos):
            raise ValueError(f"expected 's[' at offset {pos} of {text[:80]!r}")
        close = text.index("]", pos)
        inner = text[pos + 2:close]
        lam = tuple(int(x) for x in inner.split(",")) if inner else ()
        if not text.startswith("*(", close + 1):
            raise ValueError(f"expected '*(' at offset {close + 1}")
        depth, i = 1, close + 3
        while depth:
            depth += {"(": 1, ")": -1}.get(text[i], 0)
            i += 1
        out[lam] = text[close + 3:i - 1]
        if i == len(text):
            return out
        if not text.startswith(" + ", i):
            raise ValueError(f"expected ' + ' at offset {i}")
        pos = i + 3


def scalar(text: str, q: Fraction, t: Fraction = Fraction(0)) -> Fraction:
    """Value of a rendered degree-0 expansion 's[]*(c)' (or '0') at (q, t)."""
    terms = schur_terms(text)
    if set(terms) - {()}:
        raise ValueError(f"not a scalar expansion: {text[:80]!r}")
    return evaluate(terms[()], q, t) if terms else Fraction(0)
