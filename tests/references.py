"""Reference helpers shared by several test files; the package itself needs none of them.

The package reports integer Laurent polynomials in q,t (``qfield.Coef``) and
has no field arithmetic.  The tests' reference routes compute in Q(q,t)
(``qfield.FIELD``, sympy): ``to_field`` and ``field`` carry the package's
values there, ``from_field`` brings a Laurent polynomial back, ``lincomb``
is the one sum of ``SymFunc`` values, and ``render_field`` is the canonical
text of a field element, the oracle of ``qfield.render``.
"""

from collections import Counter
from functools import lru_cache
from operator import add

from sympy import sympify
from sympy.polys.domains import ZZ

from deltaq import delta_ops, hall_littlewood as hl, qfield, symfunc as sf
from deltaq.partition import Partition, partitions_of
from deltaq.qfield import FIELD, RING, QPoly, q, qbinom_poly, qpoch_poly, t
from deltaq.symfunc import SymFunc

#: element type of Q(q,t), and its zero and one
Field = type(q)
ZERO = FIELD.zero
ONE = FIELD.one
_Q_POLY = RING.gens[0]


# -- Q(q,t) and the package's Laurent polynomials --

def coef(value) -> Field:
    """Coerce an int, a ``qfield.Coef`` or a field element into Q(q,t)."""
    if isinstance(value, Field):
        return value
    if isinstance(value, int):
        return FIELD(value)
    if isinstance(value, qfield.Coef):
        return to_field(value)
    raise TypeError(f"cannot coerce {type(value).__name__} into Q(q,t)")


def to_field(c: qfield.Coef) -> Field:
    """A ``Coef`` as the element of Q(q,t) it stands for, numerator over a monomial."""
    a = max([0] + [-i for (i, _), _ in c.terms])
    b = max([0] + [-j for (_, j), _ in c.terms])
    numer = RING.from_dict({(i + a, j + b): v for (i, j), v in c.terms})
    return FIELD.new(numer, RING.from_dict({(a, b): 1}))


def from_field(f: Field) -> qfield.Coef:
    """A field element whose denominator is a monomial, as a ``Coef``; ValueError otherwise."""
    den = f.denom.terms()
    if len(den) != 1 or den[0][1] != 1:
        raise ValueError(f"not a Laurent polynomial: {render_field(f)}")
    (a, b), _ = den[0]
    return qfield.Coef({(i - a, j - b): int(c) for (i, j), c in f.numer.terms()})


def field(f: SymFunc) -> SymFunc:
    """f with every coefficient in Q(q,t) (``coef``)."""
    return SymFunc({lam: coef(c) for lam, c in f.terms.items()})


def lincomb(*terms) -> SymFunc:
    """sum c f over the pairs (c, f), c an int, ``Coef`` or field element: a SymFunc over Q(q,t)."""
    out = {}
    for c, f in terms:
        c = coef(c)
        for lam, v in f.terms.items():
            out[lam] = out.get(lam, ZERO) + c * coef(v)
    return SymFunc(out)


def from_poly(poly: QPoly) -> Field:
    """sum c[i] q^(e+i) over the coefficients c of poly from its exponent e, in Q(q,t).

    It reads ``poly.c`` and ``poly.e`` as given, canonical or not.  The
    canonical form is reached without a gcd: the denominator is the least
    power of q that makes the numerator a polynomial.
    """
    c, e = poly.c, poly.e
    if not any(c):
        return ZERO
    low = next(i for i, v in enumerate(c) if v)
    d = max(0, -e - low)
    # RING.dtype builds the element without converting each coefficient again
    numer = RING.dtype({(i + e + d, 0): ZZ.dtype(v) for i, v in enumerate(c) if v})
    return FIELD.raw_new(numer, _Q_POLY**d)


def is_canonical(poly: QPoly) -> bool:
    """poly's one form: no zero coefficient at either end, and exponent 0 when it is zero."""
    return (poly.c[0] != 0 != poly.c[-1]) if poly.c else poly.e == 0


def swap_qt(f: Field) -> Field:
    """f with q and t exchanged; FIELD.new restores the canonical form under lex q > t."""
    def swapped(poly):
        return RING.from_dict({(j, i): c for (i, j), c in poly.items()})
    return FIELD.new(swapped(f.numer), swapped(f.denom))


def _is_bare_term(poly) -> bool:
    terms = poly.terms()
    return len(terms) == 1 and int(terms[0][1]) > 0


def _ring_text(poly) -> str:
    """A polynomial of ``RING`` written out term by term from the top, e.g. 'q^2*t - 3'."""
    text = ""
    for (i, j), c in poly.terms():
        c = int(c)
        factors = []
        if i:
            factors.append("q" if i == 1 else f"q^{i}")
        if j:
            factors.append("t" if j == 1 else f"t^{j}")
        monomial = "*".join(factors)
        if not monomial:
            body = str(abs(c))
        else:
            body = monomial if abs(c) == 1 else f"{abs(c)}*{monomial}"
        text += (" - " if c < 0 else " + ") + body
    if not text:
        return "0"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def render_field(f: Field) -> str:
    """Canonical string form of a field element, e.g. '(q^3 - q^2 + 1)/(q - 1)'."""
    num = _ring_text(f.numer)
    if f.denom == RING.one:
        return num
    if not _is_bare_term(f.numer):
        num = f"({num})"
    den = _ring_text(f.denom)
    if not _is_bare_term(f.denom):
        den = f"({den})"
    return f"{num}/{den}"


# -- the package's q-series and Schur functions as field elements --

def qpoch_at(s: int, m: int) -> Field:
    """(q^s; q)_m = prod_{j=0}^{m-1} (1 - q^(s+j)), ``qfield.qpoch_poly`` in Q(q,t)."""
    return from_poly(qpoch_poly(s, m))


def qpoch(m: int) -> Field:
    """(q; q)_m."""
    return qpoch_at(1, m)


def qbinom(a: int, b: int) -> Field:
    """Gaussian binomial [a, b]_q, ``qfield.qbinom_poly`` in Q(q,t); zero outside 0 <= b <= a."""
    return from_poly(qbinom_poly(a, b))


def one() -> SymFunc:
    """The degree-0 Schur function s_() = 1."""
    return SymFunc({Partition(): ONE})


@lru_cache(maxsize=None)
def _kostka_column(content: Partition) -> dict[Partition, int]:
    """{shape: number of semistandard tableaux of that shape and content}, one walk."""
    return {shape: sum(counts.values()) for shape, counts in charge_counts(content).items()}


def kostka_number(shape: Partition, content: Partition) -> int:
    """The Kostka number K_(shape,content), K(q) at q = 1."""
    return _kostka_column(content).get(shape, 0)


def unitriangular_inverse(n: int, entry, minus=lambda x, c, v: x - c * v
                          ) -> dict[Partition, dict[Partition, object]]:
    """{a: {b: nonzero entry}}, the inverse of a unitriangular matrix over the partitions of n.

    ``entry(a, b)`` is 1 in its ring at b = a and zero unless b follows a in
    ``partitions_of`` order, which refines dominance: the Kostka-Foulkes
    matrix K(q), whose inverse is ``hall_littlewood._p_table``.
    Back substitution: row a = e_a - sum_b entry(a, b) row b, each step
    ``minus(x, c, v)`` = x - c v; an absent x is the int 0.
    """
    order = partitions_of(n)
    out: dict[Partition, dict[Partition, object]] = {}
    for j in range(len(order) - 1, -1, -1):
        a = order[j]
        row = {a: entry(a, a)}
        for b in order[j + 1:]:
            c = entry(a, b)
            if c:
                for lam, v in out[b].items():
                    val = minus(row.get(lam, 0), c, v)
                    if val:
                        row[lam] = val
                    else:
                        row.pop(lam, None)
        out[a] = row
    return out


@lru_cache(maxsize=None)
def inverse_kostka(n: int) -> dict[Partition, dict[Partition, int]]:
    """The monomial basis in Schur functions: m_mu = sum_lam c[mu][lam] s_lam."""
    return unitriangular_inverse(n, kostka_number)


def h(lam) -> SymFunc:
    """The complete symmetric function h_lam = sum_mu K_(mu,lam) s_mu, by Kostka numbers."""
    lam = sf._as_partition(lam)
    return SymFunc({mu: coef(kn) for mu, kn in _kostka_column(lam).items()})


def e(lam) -> SymFunc:
    """The elementary symmetric function e_lam = omega(h_lam)."""
    return omega(h(lam))


def dominates(lam, mu) -> bool:
    """Dominance order: every prefix sum of lam is >= that of mu.  Sizes must match."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size != mu.size:
        raise ValueError(f"dominance needs equal sizes, got {lam} and {mu}")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def kf_table(n: int) -> dict:
    """All Kostka-Foulkes polynomials in degree n (zeros included), keyed (lam, mu)."""
    parts = partitions_of(n)
    return {(lam, mu): to_field(hl.kostka_foulkes(lam, mu)) for lam in parts for mu in parts}


def poly_from_terms(terms: dict[int, int]) -> QPoly:
    """sum c q^e over the items e: c of terms, as one ``QPoly``."""
    low = min(terms, default=0)
    c = [0] * (max(terms, default=-1) - low + 1)
    for e, v in terms.items():
        c[e - low] += v
    return QPoly(c, low)


def poly_sum(*terms) -> QPoly:
    """sum f_1 ... f_r over the terms (f_1, ..., f_r) of QPolys and ints, on coefficient lists.

    The tests' one sum and product of ``QPoly`` values, since the package
    adds and multiplies them only through ``qfield.dot``: each product is
    summed term by term, r = 0 is 1, and the products are added once aligned.
    """
    products = []
    for term in terms:
        c, e = [1], 0
        for f in term:
            f = f if isinstance(f, QPoly) else QPoly([f])
            out = [0] * (len(c) + len(f.c) - 1) if c and f.c else []
            for i, v in enumerate(f.c):
                out[i:i + len(c)] = map(add, out[i:i + len(c)], [v * x for x in c])
            c, e = out, e + f.e
        products.append((c, e))
    low = min((e for _, e in products), default=0)
    out = [0] * max((e - low + len(c) for c, e in products), default=0)
    for c, e in products:
        out[e - low:e - low + len(c)] = map(add, out[e - low:e - low + len(c)], c)
    return QPoly(out, low)


def to_ring(poly: QPoly):
    """A ``QPoly`` with no negative exponent as the same element of the sparse ``qfield.RING``."""
    if poly.e < 0:
        raise ValueError(f"{poly} is not in ZZ[q]")
    return RING.from_dict({(poly.e + i, 0): c for i, c in enumerate(poly.c) if c})


# -- the charge walk, the reference of hall_littlewood._kf_column, and the --
# -- cell-by-cell tableau search it is checked against --

def charge_counts(content: Partition) -> dict[Partition, Counter]:
    """{shape: Counter of charges} over the semistandard tableaux of the given content.

    The cells of value v form a horizontal strip, placed from the bottom row up:
    a row grows by appending and never past the row above it, and the top row
    takes the cells left.  Each tableau's reading word (rows left to right,
    bottom row first) is charged and counted under its shape, and not kept.
    """
    rows: list[list[int]] = [[] for _ in range(len(content) + 1)]
    found: dict[tuple[int, ...], Counter] = {}

    def strip(v: int, height: int, r: int, left: int) -> None:
        # `left` cells of value v still go into rows r, r-1, ..., 0; rows[:height] are not empty
        row, start = rows[r], len(rows[r])
        if r:
            for a in range(min(left, len(rows[r - 1]) - start) + 1):
                strip(v, height, r - 1, left - a)
                row.append(v)
        else:
            row.extend([v] * left)
            height += bool(rows[height])
            if v < len(content):
                strip(v + 1, height, height, content[v])
            else:
                word = [x for done in reversed(rows[:height]) for x in done]
                found.setdefault(tuple(map(len, rows[:height])), Counter())[charge(word)] += 1
        del row[start:]

    strip(0, 0, 0, 0)  # value 0 has no cells; its top row starts value 1
    return {Partition(shape): counts for shape, counts in found.items()}


def charge(word) -> int:
    """Lascoux-Schutzenberger charge of a word whose content is a partition.

    Repeatedly extract a standard subword: take the rightmost 1, then scan
    leftward (cyclically) for a 2, then a 3, and so on.  Each letter whose
    scan wraps around the left end increments the running index; charge is
    the sum of the indices over all letters of all extracted subwords.
    """
    w = list(word)
    total = 0
    while w:
        top = max(w)
        pos = max(i for i, v in enumerate(w) if v == 1)
        chosen = [pos]
        index = 0
        for letter in range(2, top + 1):
            j = pos - 1
            wrapped = False
            while True:
                if j < 0:
                    j = len(w) - 1
                    wrapped = True
                if w[j] == letter:
                    break
                j -= 1
            if wrapped:
                index += 1
            total += index
            chosen.append(j)
            pos = j
        for j in sorted(chosen, reverse=True):
            del w[j]
    return total


def ssyt(shape: Partition, content: Partition) -> tuple[tuple[int, ...], ...]:
    """All semistandard tableaux of the given shape and content, each as its reading word.

    Rows weakly increase left to right, columns strictly increase downward,
    value i appears content[i-1] times.  The word reads the rows left to
    right, bottom row first, as ``charge`` takes it.
    """
    if shape.size != sum(content):
        return ()
    nvals = len(content)
    remaining = list(content)
    word = [0] * shape.size
    found: list[tuple[int, ...]] = []
    # (place in the word, places of the left and upper neighbours or -1), top row first
    start = [sum(shape[i + 1:]) for i in range(len(shape))]
    cells = [(start[i] + j, start[i] + j - 1 if j else -1, start[i - 1] + j if i else -1)
             for i, p in enumerate(shape) for j in range(p)]

    def fill(idx: int) -> None:
        if idx == len(cells):
            found.append(tuple(word))
            return
        at, left, up = cells[idx]
        lo = word[left] if left >= 0 else 1
        if up >= 0:
            lo = max(lo, word[up] + 1)
        for v in range(lo, nvals + 1):
            if remaining[v - 1]:
                remaining[v - 1] -= 1
                word[at] = v
                fill(idx + 1)
                remaining[v - 1] += 1

    fill(0)
    return tuple(found)


# -- substitution: an evaluator independent of the package's reversal and swap --

def _eval_poly(poly, q_val: Field, t_val: Field) -> Field:
    powers_q: dict[int, Field] = {}
    powers_t: dict[int, Field] = {}
    total = ZERO
    for (eq_, et_), c in poly.terms():
        pq = powers_q.get(eq_)
        if pq is None:
            pq = powers_q[eq_] = ONE if eq_ == 0 else q_val**eq_
        pt = powers_t.get(et_)
        if pt is None:
            pt = powers_t[et_] = ONE if et_ == 0 else t_val**et_
        total += int(c) * pq * pt
    return total


def subs(f, q_image=None, t_image=None) -> Field:
    """Substitute field elements (or ints) for q and/or t in f (a ``coef`` value), simultaneously.

    Raises ZeroDivisionError when the denominator of f vanishes identically
    under the substitution.
    """
    f = coef(f)
    q_val = q if q_image is None else coef(q_image)
    t_val = t if t_image is None else coef(t_image)
    den = _eval_poly(f.denom, q_val, t_val)
    if not den:
        raise ZeroDivisionError(f"substitution hits a pole of {render_field(f)}")
    return _eval_poly(f.numer, q_val, t_val) / den


def subs_coeffs(f: SymFunc, q_image=None, t_image=None) -> SymFunc:
    """Apply a q/t substitution to every coefficient."""
    return SymFunc(
        {lam: subs(c, q_image=q_image, t_image=t_image) for lam, c in f.terms.items()}
    )


def charge_content(nu: Partition, k: int) -> Field:
    """Charge-graded length-k content of s_nu: delta_ops._charge_poly over (q;q)_k, one cancel.

    sum_{l(rho)=k} K_(nu,rho)(q) q^(n(rho)) / b_rho(q), with b_rho the P-to-Q
    normalization prod_i (q;q)_(m_i(rho)).
    """
    return from_poly(delta_ops._charge_poly(nu, k)) / qpoch(k)


def charge_content_field_sum(nu: Partition, k: int) -> Field:
    """The same content, one field + and / per rho."""
    total = ZERO
    for rho in partitions_of(nu.size, length=k):
        c = to_field(hl.kostka_foulkes(nu, rho))
        if c == ZERO:
            continue
        total = total + c * q ** rho.nstat() / from_poly(hl.b_factor(rho))
    return total


def omega(f: SymFunc) -> SymFunc:
    """Standard involution: s_lam -> s_(lam')."""
    return SymFunc({lam.conjugate(): c for lam, c in f.terms.items()})


# -- the other bases: the package builds Schur functions, and from monomials only --

def from_power(terms) -> SymFunc:
    """sum_rho c_rho p_rho in the Schur basis, p_rho = sum_lam chi^lam(rho) s_lam."""
    out = {}
    for rho, c in terms.items():
        rho, c = sf._as_partition(rho), coef(c)
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
    return SymFunc(out)


def sym(basis: str, terms) -> SymFunc:
    """An expansion in the basis m, e, h or p.

    p goes through ``from_power``, m (by ``inverse_kostka``), h and e term by term.
    """
    if basis == "p":
        return from_power(terms)
    elem = {"m": m, "h": h, "e": e}[basis]
    return lincomb(*((c, elem(lam)) for lam, c in dict(terms).items()))


def p(lam) -> SymFunc:
    return from_power({lam: 1})


def m(lam) -> SymFunc:
    """The monomial symmetric function m_lam, by ``inverse_kostka``, over Q(q,t)."""
    lam = sf._as_partition(lam)
    return SymFunc({mu: coef(c) for mu, c in inverse_kostka(lam.size)[lam].items()})


@lru_cache(maxsize=None)
def _schur_to_power(lam: Partition) -> dict[Partition, Field]:
    """s_lam = sum_rho chi^lam(rho)/z_rho p_rho."""
    out = {}
    for rho in partitions_of(lam.size):
        chi = sf.character(lam, rho)
        if chi:
            out[rho] = coef(chi) / sf.zee(rho)
    return out


def basis_convert(f: SymFunc, basis: str) -> dict[Partition, Field]:
    """Expansion of f in one of the bases m, e, h, p, s, over Q(q,t), with zeros dropped."""
    if basis not in "mehps":
        raise ValueError(f"unknown basis {basis!r}")
    f = field(f)
    if basis == "s":
        return dict(f.terms)
    if not f:
        return {}
    if basis == "e":
        return basis_convert(omega(f), "h")
    out: dict[Partition, Field] = {}
    if basis == "h":
        # f = sum_mu a_mu h_mu with h_mu = sum_lam K_(lam,mu) s_lam, so a = K^-1 f
        for mu, row in inverse_kostka(next(iter(f.terms)).size).items():
            val = sum((c * f.terms[lam] for lam, c in row.items() if lam in f.terms), ZERO)
            if val:
                out[mu] = val
        return out
    for lam, c in f.terms.items():
        if basis == "p":
            images = _schur_to_power(lam)
        else:  # m: s_lam = sum_mu K_(lam,mu) m_mu
            images = {mu: kn for mu in partitions_of(lam.size) if (kn := kostka_number(lam, mu))}
        for mu, w in images.items():
            val = out.get(mu, ZERO) + c * w
            if val:
                out[mu] = val
            else:
                out.pop(mu, None)
    return out


def read_coef(text: str) -> Field:
    """A rendered coefficient read back by sympy's parser, independent of ``qfield.render``."""
    return FIELD.from_expr(sympify(text.replace("^", "**")))


def read_symfunc(text: str) -> SymFunc:
    """A rendered Schur expansion 's[3,1]*(c) + s[2,2]*(d)' read back term by term."""
    if text == "0":
        return SymFunc()
    out = {}
    # no coefficient text contains "s[", so each " + s[" starts a term
    for term in text.split(" + s["):
        shape, _, rest = term.removeprefix("s[").partition("]*(")
        lam = Partition(int(part) for part in shape.split(",") if part)
        out[lam] = read_coef(rest.removesuffix(")"))
    return SymFunc(out)
