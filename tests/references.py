"""Reference helpers shared by several test files; the package itself needs none of them."""

from deltaq import delta_ops, hall_littlewood as hl
from deltaq.partition import Partition, partitions_of
from deltaq.qfield import (ONE, RING, ZERO, Coef, PoleError, QPoly, coef, from_poly, q, qpoch,
                           render, t)
from deltaq.symfunc import SymFunc


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

    Raises PoleError when the denominator of f vanishes identically under
    the substitution.
    """
    q_val = q if q_image is None else coef(q_image)
    t_val = t if t_image is None else coef(t_image)
    den = _eval_poly(f.denom, q_val, t_val)
    if not den:
        raise PoleError(f"substitution hits a pole of {render(f)}")
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
        total = total + c * q ** rho.nstat() / hl.b_factor(rho)
    return total
