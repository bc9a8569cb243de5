"""Reference helpers shared by several test files; the package itself needs none of them.

The package reports integer Laurent polynomials in q,t (``qfield.Coef``) and
has no field arithmetic.  The tests' reference routes compute in Q(q,t)
(``qfield.FIELD``, sympy): ``to_field`` and ``field`` carry the package's
values there, ``from_field`` brings a Laurent polynomial back, ``lincomb``
is the one sum of ``SymFunc`` values, and ``render_field`` is the canonical
text of a field element, the oracle of ``qfield.render``.
"""

from functools import lru_cache

from sympy import sympify
from sympy.polys.domains import ZZ

from deltaq import delta_ops, hall_littlewood as hl, qfield, symfunc as sf
from deltaq.partition import Partition, partitions_of
from deltaq.qfield import FIELD, RING, QPoly, q, qbinom_poly, qpoch_laurent, t
from deltaq.symfunc import SymFunc
from deltaq.tableaux import kostka_number

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


def from_poly(poly: QPoly, e: int = 0) -> Field:
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


def swap_qt(f: Field) -> Field:
    """f with q and t exchanged; FIELD.new restores the canonical form under lex q > t."""
    def swapped(poly):
        return RING.from_dict({(j, i): c for (i, j), c in poly.items()})
    return FIELD.new(swapped(f.numer), swapped(f.denom))


def _is_bare_term(poly) -> bool:
    terms = poly.terms()
    return len(terms) == 1 and int(terms[0][1]) > 0


def render_field(f: Field) -> str:
    """Canonical string form of a field element, e.g. '(q^3 - q^2 + 1)/(q - 1)'."""
    num = qfield._poly_str((key, int(c)) for key, c in f.numer.terms())
    if f.denom == RING.one:
        return num
    if not _is_bare_term(f.numer):
        num = f"({num})"
    den = qfield._poly_str((key, int(c)) for key, c in f.denom.terms())
    if not _is_bare_term(f.denom):
        den = f"({den})"
    return f"{num}/{den}"


# -- the package's q-series and Schur functions as field elements --

def qpoch_at(s: int, m: int) -> Field:
    """(q^s; q)_m = prod_{j=0}^{m-1} (1 - q^(s+j)), ``qfield.qpoch_laurent`` in Q(q,t)."""
    return from_poly(*qpoch_laurent(s, m))


def qpoch(m: int) -> Field:
    """(q; q)_m."""
    return qpoch_at(1, m)


def qbinom(a: int, b: int) -> Field:
    """Gaussian binomial [a, b]_q, ``qfield.qbinom_poly`` in Q(q,t); zero outside 0 <= b <= a."""
    return from_poly(qbinom_poly(a, b))


def one() -> SymFunc:
    """The degree-0 Schur function s_() = 1."""
    return SymFunc({Partition(): ONE})


def h(lam) -> SymFunc:
    """The complete symmetric function h_lam = sum_mu K_(mu,lam) s_mu, by Kostka numbers."""
    lam = sf._as_partition(lam)
    return SymFunc({mu: coef(kn) for mu in partitions_of(lam.size)
                    if (kn := kostka_number(mu, lam))})


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


def to_ring(poly: QPoly):
    """A dense ZZ[q] polynomial as the same element of the sparse ``qfield.RING``."""
    return RING.from_dict({(i, 0): c for i, c in enumerate(poly.c) if c})


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

    p goes through ``from_power``, m (by ``symfunc.sym``), h and e term by term.
    """
    if basis == "p":
        return from_power(terms)
    elem = {"m": m, "h": h, "e": e}[basis]
    return lincomb(*((c, elem(lam)) for lam, c in dict(terms).items()))


def p(lam) -> SymFunc:
    return from_power({lam: 1})


def m(lam) -> SymFunc:
    """The monomial symmetric function m_lam, by ``symfunc.sym``, over Q(q,t)."""
    return field(sf.sym({lam: {(0, 0): 1}}))


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
        for mu, row in sf._inverse_kostka(f.degree()).items():
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
