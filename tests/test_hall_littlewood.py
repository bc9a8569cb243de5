"""Tests for Hall-Littlewood bases, Kostka-Foulkes polynomials, and Macdonald functions.

The Kostka-Foulkes columns of the Jing-Garsia operator are checked entry by
entry against the charge walk over semistandard tableaux
(``references.charge_counts``), and against a fully independent Gram-Schmidt
construction of the P basis from the q-deformed power-sum inner product, so
the tableau conventions cannot drift silently.
"""

from collections import Counter
from math import factorial, prod

import pytest
from sympy.utilities.iterables import multiset_permutations

import field_route
from references import (FIELD, ONE, ZERO, basis_convert, charge, charge_counts, coef, dominates, e,
                        field, from_poly, h, inverse_kostka, kf_table, kostka_number, lincomb, m,
                        poly_from_terms, poly_sum, qpoch, render_field, ssyt, subs, subs_coeffs,
                        to_field, to_ring, unitriangular_inverse)
from deltaq import hall_littlewood as hl, qfield, symfunc as sf
from deltaq.delta_ops import delta_prime_t0
from deltaq.partition import Partition, partitions_of
from deltaq.qfield import QPoly, q, t
from deltaq.symfunc import SymFunc


def transformed_H(mu) -> SymFunc:
    """Transformed Hall-Littlewood H_mu = Q_mu[X/(1-q)]."""
    return field_route.plethysm(hl.hl_Q(mu), ONE / (ONE - q))


def inner_q(f: SymFunc, g: SymFunc):
    """<p_rho, p_rho>_q = z_rho * prod_i 1/(1 - q^(rho_i)), zero off-diagonal."""
    fp = basis_convert(f, "p")
    gp = basis_convert(g, "p")
    total = ZERO
    for rho, c in fp.items():
        d = gp.get(rho)
        if d is None:
            continue
        norm = coef(sf.zee(rho))
        for part in rho:
            norm = norm / (ONE - q**part)
        total += c * d * norm
    return total


def gram_schmidt_P(n: int) -> dict[Partition, SymFunc]:
    """Orthogonalize the monomial basis bottom-up under inner_q."""
    order = list(reversed(partitions_of(n)))  # smallest first
    out: dict[Partition, SymFunc] = {}
    for mu in order:
        f = m(mu)
        for nu, p_nu in out.items():
            c = inner_q(f, p_nu) / inner_q(p_nu, p_nu)
            if c:
                f = lincomb((1, f), (-c, p_nu))
        out[mu] = f
    return out


def poly_terms(c) -> dict[tuple[int, int], int]:
    """Exponent->coefficient map of a coefficient that must be polynomial."""
    assert c.denom == ONE.numer, f"not a polynomial: {render_field(c)}"
    return {exps: int(v) for exps, v in c.numer.terms()}


class TestKostkaFoulkes:
    def test_gram_schmidt_oracle(self):
        for n in range(1, 6):
            oracle = gram_schmidt_P(n)
            for mu in partitions_of(n):
                assert field(hl.hl_P(mu)) == oracle[mu], mu.render()
            # K_(lam,mu) is the coefficient extracted against the oracle basis
            for lam in partitions_of(n):
                f = sf.s(lam)
                for mu in partitions_of(n):
                    p_mu = oracle[mu]
                    coeff = inner_q(f, p_mu) / inner_q(p_mu, p_mu)
                    assert to_field(hl.kostka_foulkes(lam, mu)) == coeff

    def test_q1_matches_tableau_counts_and_pieri(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    at_one = subs(hl.kostka_foulkes(lam, mu), q_image=1)
                    count = kostka_number(lam, mu)
                    assert at_one == coef(count)
                    # h_mu = sum_lam K_(lam,mu)(1) s_lam
                    assert coef(count) == h(mu).terms.get(lam, ZERO)

    def test_unitriangular_and_dominance(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    kf = hl.kostka_foulkes(lam, mu)
                    if lam == mu:
                        assert kf == qfield.ONE
                    elif not dominates(lam, mu):
                        assert kf == qfield.ZERO

    def test_coefficients_positive(self):
        for n in range(1, 7):
            for (lam, mu), kf in kf_table(n).items():
                for (eq_, et_), c in poly_terms(kf).items():
                    assert et_ == 0, "Kostka-Foulkes must not involve t"
                    assert c > 0

    def test_charge_regression(self):
        # two tableaux of shape (4,1) and content (2,2,1), charges 2 and 3
        assert to_field(hl.kostka_foulkes(Partition((4, 1)), Partition((2, 2, 1)))) == (
            q**2 + q**3
        )

    def test_columns_match_the_charge_walk(self):
        # the operator's columns against q^charge counted by the walk, mu = () included:
        # every entry, and no zero entry stored, for every |mu| <= 10
        for n in range(11):
            for mu in partitions_of(n):
                column = hl._kf_column(mu)
                assert all(column.values()), mu
                want = {lam: poly_from_terms(counts) for lam, counts in charge_counts(mu).items()}
                assert column == want, mu

    def test_every_vertical_strip_is_removed(self):
        # F[X - 1] takes e_j^perp for every j: with 1 - e_1^perp alone,
        # K_(3),(1,1,1) would read q^3 - 1
        assert hl._kf_column(Partition((1, 1, 1)))[Partition((3,))] == QPoly([1], 3)

    def test_dense_table_matches_ring_counts(self):
        # _kf_column against q^charge over the reference's tableaux, summed in
        # qfield.RING, and against kf_table, |mu| <= 7
        q_ring = qfield.RING.gens[0]
        for n in range(1, 8):
            table = kf_table(n)
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    counted = sum((q_ring ** charge(word) for word in ssyt(lam, mu)),
                                  qfield.RING.zero)
                    dense = to_ring(hl._kf_column(mu).get(lam, QPoly()))
                    assert dense == counted == table[(lam, mu)].numer, (lam, mu)

    def test_charge_counts_match_the_cell_by_cell_search(self):
        # one walk per content against the reference's search per (shape, content)
        for n in range(9):
            for mu in partitions_of(n):
                counts = charge_counts(mu)
                assert all(counts.values()), mu
                for lam in partitions_of(n):
                    want = Counter(map(charge, ssyt(lam, mu)))
                    assert counts.get(lam, Counter()) == want, (lam, mu)

    def test_every_word_of_the_content_is_counted_once(self):
        # RSK: the words of content mu are the pairs (P, Q) of a tableau P of
        # content mu and a standard Q of the same shape, so
        # sum_lam f^lam K_(lam,mu)(1) = n!/prod mu_i!, f^lam by the hook lengths
        for n in range(11):
            for mu in partitions_of(n):
                total = sum(factorial(n) // prod(cell.hook for cell in lam.cell_stats())
                            * sum(counts.values()) for lam, counts in charge_counts(mu).items())
                assert total == factorial(n) // prod(map(factorial, mu)), mu

    def test_ssyt_words_cut_into_semistandard_tableaux(self):
        # each word of the reference search, cut into the rows of lam from the bottom,
        # is a semistandard tableau of content mu; distinct words, as many as
        # kostka_number counts
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    words = ssyt(lam, mu)
                    assert len(set(words)) == len(words) == kostka_number(lam, mu)
                    for word in words:
                        rows, rest = [], list(word)
                        for part in reversed(lam):
                            rows.insert(0, rest[:part])
                            rest = rest[part:]
                        assert not rest
                        assert all(row == sorted(row) for row in rows), (lam, mu, word)
                        assert all(below[j] > above[j] for above, below in zip(rows, rows[1:])
                                   for j in range(len(below))), (lam, mu, word)
                        assert [word.count(v) for v in range(1, len(mu) + 1)] == list(mu)


class TestHallLittlewoodP:
    def test_q0_is_schur(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                assert subs_coeffs(hl.hl_P(mu), q_image=ZERO) == field(sf.s(mu))

    def test_q1_is_monomial(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                assert subs_coeffs(hl.hl_P(mu), q_image=ONE) == m(mu)

    def test_p_table_at_one_is_the_inverse_kostka_matrix(self):
        # P_mu at q = 1 is m_mu, the route of parking._monomials_to_symfunc
        for n in range(9):
            at_one = {mu: {lam: v for lam, c in row.items() if (v := sum(c.c))}
                      for mu, row in hl._p_table(n).items()}
            assert at_one == inverse_kostka(n), n

    def test_p_table_matches_ring_back_substitution(self):
        # every entry of the dense table against the same back substitution over
        # qfield.RING from the Kostka-Foulkes numerators of kf_table, |mu| <= 7
        for n in range(1, 8):
            table = kf_table(n)
            want = unitriangular_inverse(n, lambda a, b: table[(a, b)].numer)
            got = {mu: {lam: to_ring(c) for lam, c in row.items()}
                   for mu, row in hl._p_table(n).items()}
            assert got == want, n

    def test_p_table_matches_dense_back_substitution(self):
        # the plethysm route against inverting the Kostka-Foulkes columns in
        # dense QPoly, at every entry for every |mu| <= 10
        for n in range(11):
            want = unitriangular_inverse(n, lambda a, b: hl._kf_column(b).get(a, 0),
                                         lambda x, c, v: poly_sum((x,), (-1, c, v)))
            assert hl._p_table(n) == want, n

    def test_inverse_q_variant(self):
        # the reversed table against substituting 1/q, for every mu with |mu| <= 7
        for n in range(1, 8):
            table = hl._p_table_invq(n)
            for mu in partitions_of(n):
                assert field(table[mu]) == subs_coeffs(hl.hl_P(mu), q_image=ONE / q), mu

    def test_q_normalization(self):
        assert from_poly(hl.b_factor(Partition((1, 1, 1)))) == qpoch(3)
        assert from_poly(hl.b_factor(Partition((3, 2)))) == qpoch(1) ** 2
        for n in range(1, 7):
            for mu in partitions_of(n):
                want = lincomb((from_poly(hl.b_factor(mu)), hl.hl_P(mu)))
                assert field(hl.hl_Q(mu)) == want, mu

    def test_cauchy_kernel(self):
        # sum_lam P_lam (x) Q_lam, expanded over power sums in each slot,
        # must be diagonal with entry prod_i (1 - q^(rho_i)) / z_rho
        for n in range(1, 6):
            parts = partitions_of(n)
            lhs: dict[tuple[Partition, Partition], object] = {}
            for lam in parts:
                pp = basis_convert(hl.hl_P(lam), "p")
                qq = basis_convert(hl.hl_Q(lam), "p")
                for r1, c1 in pp.items():
                    for r2, c2 in qq.items():
                        key = (r1, r2)
                        lhs[key] = lhs.get(key, ZERO) + c1 * c2
            for r1 in parts:
                for r2 in parts:
                    got = lhs.get((r1, r2), ZERO)
                    if r1 != r2:
                        assert got == ZERO
                    else:
                        expected = ONE / coef(sf.zee(r1))
                        for part in r1:
                            expected *= ONE - q**part
                        assert got == expected


class TestModifiedMacdonald:
    def test_frozen_small_values(self):
        assert field(hl.modified_macdonald_full(Partition((2,)))) == lincomb(
            (1, sf.s(2)), (q, sf.s((1, 1))))
        assert field(hl.modified_macdonald_full(Partition((1, 1)))) == lincomb(
            (1, sf.s(2)), (t, sf.s((1, 1))))
        assert field(hl.modified_macdonald_full(Partition((2, 1)))) == lincomb(
            (1, sf.s(3)), (q + t, sf.s((2, 1))), (q * t, sf.s((1, 1, 1))))

    def test_schur_corner_coefficients(self):
        for n in range(1, 6):
            row, col = Partition((n,)), Partition((1,) * n)
            for mu in partitions_of(n):
                f = field(hl.modified_macdonald_full(mu))
                assert f.terms.get(row, ZERO) == ONE
                expected = q ** mu.conjugate().nstat() * t ** mu.nstat()
                assert f.terms.get(col, ZERO) == expected

    def test_conjugation_swaps_parameters(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                swapped = subs_coeffs(
                    hl.modified_macdonald_full(mu.conjugate()), q_image=t, t_image=q
                )
                assert field(hl.modified_macdonald_full(mu)) == swapped

    def test_matches_content_fillings(self):
        # the coefficient of m_lam counts the fillings of content lam by q^inv t^maj
        for n in range(1, 7):
            for mu in partitions_of(n):
                attack, descent = hl._shape_geometry(mu)
                mono = {}
                for lam in partitions_of(n):
                    multiset = [v + 1 for v, count in enumerate(lam) for _ in range(count)]
                    agg: dict[tuple[int, int], int] = {}
                    for values in multiset_permutations(multiset):
                        key = hl._filling_stats(values, attack, descent)
                        agg[key] = agg.get(key, 0) + 1
                    mono[lam] = sum((c * q**a * t**b for (a, b), c in agg.items()), ZERO)
                assert basis_convert(hl.modified_macdonald_full(mu), "m") == mono, mu

    def test_filling_words_follow_sympys_multiset_order(self):
        # _filling_counts walks the words of 1..n by itertools.permutations; its
        # letters are distinct, so the words and their order are sympy's multiset order
        for n in range(1, 8):
            words = [list(word) for word in hl.multiset_permutations(range(1, n + 1))]
            assert words == list(multiset_permutations(list(range(1, n + 1)))), n

    def test_size_limit_guard(self):
        with pytest.raises(ValueError):
            hl.modified_macdonald_full(Partition((7,)))

    def test_one_pass_over_the_words_matches_one_shape_at_a_time(self):
        # every shape's straightened counts against a pass over the words for it alone
        for n in range(6):
            together = hl._filling_counts(n)
            assert list(together) == list(partitions_of(n))
            for mu, counts in together.items():
                attack, descent = hl._shape_geometry(mu)
                agg: dict = {}
                for values in hl.multiset_permutations(range(1, n + 1)):
                    slot = agg.setdefault(sf.inverse_descents(values), {})
                    key = hl._filling_stats(values, attack, descent)
                    slot[key] = slot.get(key, 0) + 1
                assert counts == sf.straighten_aggregate(agg), mu

    def test_empty_shape_is_one(self):
        # H~ of the empty shape is s_() = 1; its one filling has the empty composition
        assert hl.modified_macdonald_full(Partition()) == sf.s(())


class TestOneParameterSpecializations:
    def test_t_zero_conjugates(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                full = hl.modified_macdonald_full(mu)
                assert subs_coeffs(full, t_image=ZERO) == field(hl.modified_macdonald_t0(
                    mu.conjugate()))

    def test_q_zero_renames(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                full = hl.modified_macdonald_full(mu)
                collapsed = subs_coeffs(
                    subs_coeffs(full, q_image=ZERO), t_image=q
                )
                assert collapsed == field(hl.modified_macdonald_t0(mu))

    def test_t0_vs_transformed_H(self):
        # cocharge twist: the one-parameter function is q^nstat * H at 1/q
        for n in range(1, 7):
            for mu in partitions_of(n):
                twisted = lincomb((q ** mu.nstat(), subs_coeffs(transformed_H(mu), q_image=ONE / q)))
                assert field(hl.modified_macdonald_t0(mu)) == twisted

    def test_t0_reversal_matches_substitution(self):
        # q^n(mu) K_(lam,mu)(1/q) by reversal against substituting 1/q, |mu| <= 7
        for n in range(1, 8):
            for mu in partitions_of(n):
                want = SymFunc({
                    lam: q ** mu.nstat() * subs(hl.kostka_foulkes(lam, mu), q_image=ONE / q)
                    for lam in partitions_of(n)})
                assert field(hl.modified_macdonald_t0(mu)) == want, mu

    def test_t0_top_coefficient(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                top = hl.modified_macdonald_t0(mu).terms.get(Partition((n,)), qfield.ZERO)
                assert top == qfield.ONE


class TestExpansionWeights:
    def test_w_dual_routes(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert hl.w_t0(mu) == hl.w_t0_cell_product(mu)

    def test_w_specializes_from_two_parameters(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                w0 = from_poly(hl.w_t0(mu))
                assert subs(FIELD(hl.macdonald_weights(mu.conjugate())[1]), t_image=ZERO) == w0
                assert (
                    subs(subs(FIELD(hl.macdonald_weights(mu)[1]), q_image=ZERO), t_image=q)
                    == w0
                )

    def test_e_n_reconstruction_t0(self):
        # Delta'_1 scales nothing, so it rebuilds e_n from the t=0 weights
        for n in range(1, 6):
            assert field(delta_prime_t0((), n)) == e(n)

    def test_e_n_reconstruction_full(self):
        for n in range(1, 5):
            terms = []
            for mu in partitions_of(n):
                # (1-q)(1-t) Pi'_mu B_mu over w_mu, Pi'_mu and B_mu rebuilt from the cells
                b, pi_prime = ZERO, ONE
                for i, j in mu.cells():
                    b += q**j * t**i
                    if (i, j) != (0, 0):
                        pi_prime *= ONE - q**j * t**i
                numer, w = hl.macdonald_weights(mu)
                assert FIELD(numer) == (ONE - q) * (ONE - t) * pi_prime * b
                terms.append((FIELD(numer) / FIELD(w), hl.modified_macdonald_full(mu)))
            assert lincomb(*terms) == e(n)
