"""Reference helpers shared by several test files; the package itself needs none of them."""

from functools import lru_cache

from sympy import sympify

from deltaq import delta_ops, hall_littlewood as hl, symfunc as sf
from deltaq.partition import Partition, partitions_of
from deltaq.qfield import (FIELD, ONE, RING, ZERO, Coef, QPoly, coef, from_poly, q, qbinom_poly,
                           qpoch_laurent, render, t)
from deltaq.symfunc import SymFunc
from deltaq.tableaux import kostka_number


# -- the package's q-series and Schur functions as field elements --

def qpoch_at(s: int, m: int) -> Coef:
    """(q^s; q)_m = prod_{j=0}^{m-1} (1 - q^(s+j)), ``qfield.qpoch_laurent`` in Q(q,t)."""
    return from_poly(*qpoch_laurent(s, m))


def qpoch(m: int) -> Coef:
    """(q; q)_m."""
    return qpoch_at(1, m)


def qbinom(a: int, b: int) -> Coef:
    """Gaussian binomial [a, b]_q, ``qfield.qbinom_poly`` in Q(q,t); zero outside 0 <= b <= a."""
    return from_poly(qbinom_poly(a, b))


def one() -> SymFunc:
    """The degree-0 Schur function s_() = 1."""
    return SymFunc({Partition(): ONE})


def h(lam) -> SymFunc:
    """The complete symmetric function h_lam = sum_mu K_(mu,lam) s_mu, by Kostka numbers."""
    lam = sf._as_partition(lam)
    return SymFunc({mu: kn for mu in partitions_of(lam.size) if (kn := kostka_number(mu, lam))})


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
    return {(lam, mu): hl.kostka_foulkes(lam, mu) for lam in parts for mu in parts}


def to_ring(poly: QPoly):
    """A dense ZZ[q] polynomial as the same element of the sparse ``qfield.RING``."""
    return RING.from_dict({(i, 0): c for i, c in enumerate(poly.c) if c})


# -- substitution: an evaluator independent of the package's reversal and swap --

def _eval_poly(poly, q_val: Coef, t_val: Coef) -> Coef:
    powers_q: dict[int, Coef] = {}
    powers_t: dict[int, Coef] = {}
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


def subs(f: Coef, q_image=None, t_image=None) -> Coef:
    """Substitute field elements (or ints) for q and/or t in f, simultaneously.

    Raises ZeroDivisionError when the denominator of f vanishes identically
    under the substitution.
    """
    q_val = q if q_image is None else coef(q_image)
    t_val = t if t_image is None else coef(t_image)
    den = _eval_poly(f.denom, q_val, t_val)
    if not den:
        raise ZeroDivisionError(f"substitution hits a pole of {render(f)}")
    return _eval_poly(f.numer, q_val, t_val) / den


def subs_coeffs(f: SymFunc, q_image=None, t_image=None) -> SymFunc:
    """Apply a q/t substitution to every coefficient."""
    return SymFunc(
        {lam: subs(c, q_image=q_image, t_image=t_image) for lam, c in f.terms.items()}
    )


def charge_content(nu: Partition, k: int) -> Coef:
    """Charge-graded length-k content of s_nu: delta_ops._charge_poly over (q;q)_k, one cancel.

    sum_{l(rho)=k} K_(nu,rho)(q) q^(n(rho)) / b_rho(q), with b_rho the P-to-Q
    normalization prod_i (q;q)_(m_i(rho)).
    """
    return from_poly(delta_ops._charge_poly(nu, k)) / qpoch(k)


def charge_content_field_sum(nu: Partition, k: int) -> Coef:
    """The same content, one field + and / per rho."""
    total = ZERO
    for rho in partitions_of(nu.size, length=k):
        c = hl.kostka_foulkes(nu, rho)
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

    m goes through ``symfunc.sym``, p through ``from_power``, h and e term by term.
    """
    if basis == "m":
        return sf.sym(terms)
    if basis == "p":
        return from_power(terms)
    elem = {"h": h, "e": e}[basis]
    return sum((elem(lam).scale(c) for lam, c in dict(terms).items()), SymFunc())


def p(lam) -> SymFunc:
    return from_power({lam: 1})


def m(lam) -> SymFunc:
    return sf.sym({lam: 1})


@lru_cache(maxsize=None)
def _schur_to_power(lam: Partition) -> dict[Partition, Coef]:
    """s_lam = sum_rho chi^lam(rho)/z_rho p_rho."""
    out = {}
    for rho in partitions_of(lam.size):
        chi = sf.character(lam, rho)
        if chi:
            out[rho] = coef(chi) / sf.zee(rho)
    return out


def basis_convert(f: SymFunc, basis: str) -> dict[Partition, Coef]:
    """Expansion of f in one of the bases m, e, h, p, s, as {Partition: Coef} with zeros dropped."""
    if basis not in "mehps":
        raise ValueError(f"unknown basis {basis!r}")
    if basis == "s":
        return dict(f.terms)
    if not f:
        return {}
    if basis == "e":
        return basis_convert(omega(f), "h")
    out: dict[Partition, Coef] = {}
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


def read_coef(text: str) -> Coef:
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
