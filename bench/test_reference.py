"""Tests of the benchmark's own reference code and case sets; no workload runs.

    python3 -m pytest bench/test_reference.py
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import reference as ref
import run
import workloads


def test_gaussian_binomial_small_values():
    two = Fraction(2)
    assert ref.gaussian_binomial(4, 2, two) == 35  # (2^4-1)(2^3-1)/((2^2-1)(2-1))
    assert ref.gaussian_binomial(3, 1, two) == 7  # 1 + 2 + 4
    assert ref.gaussian_binomial(5, 0, two) == 1
    assert ref.gaussian_binomial(5, 5, two) == 1
    assert ref.gaussian_binomial(3, 4, two) == 0
    assert ref.gaussian_binomial(3, -1, two) == 0
    assert ref.gaussian_binomial(4, 2, Fraction(3)) == 130  # 1 + 3 + 2*9 + 27 + 81


def test_gaussian_binomial_pascal_rule():
    x = Fraction(3)
    for a in range(1, 8):
        for b in range(1, a):
            assert ref.gaussian_binomial(a, b, x) == (
                ref.gaussian_binomial(a - 1, b - 1, x)
                + x**b * ref.gaussian_binomial(a - 1, b, x))


@pytest.mark.parametrize("sides", [ref.prop31_sides, ref.cor32_sides])
def test_reference_sides_agree(sides):
    for x in (Fraction(2), Fraction(3), Fraction(-1, 2)):
        for m in range(1, 6):
            for k in range(0, m):
                for ell in range(k + 2, m + 2):
                    lhs, rhs = sides(k, m, ell, x)
                    assert lhs == rhs


def test_hook_length_formula():
    assert ref.standard_tableaux_count((2, 1)) == 2
    assert ref.standard_tableaux_count((2, 2)) == 2
    assert ref.standard_tableaux_count((3, 2)) == 5
    assert ref.standard_tableaux_count((3, 2, 1)) == 16
    assert ref.standard_tableaux_count((4,)) == 1
    for n in range(1, 8):
        assert sum(ref.standard_tableaux_count(lam) ** 2 for lam in ref.partitions(n)) == factorial(n)


def test_partitions():
    assert ref.partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [len(ref.partitions(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_catalan_and_parking_counts():
    assert [ref.catalan(n) for n in range(1, 8)] == [1, 2, 5, 14, 42, 132, 429]
    assert [ref.parking_function_count(n) for n in range(1, 6)] == [1, 3, 16, 125, 1296]


def test_fraction_rank():
    f = Fraction
    assert ref.fraction_rank([[f(1), f(0)], [f(0), f(1)]]) == 2
    assert ref.fraction_rank([[f(1), f(2)], [f(2), f(4)]]) == 1
    assert ref.fraction_rank([[f(0), f(0)], [f(0), f(0)]]) == 0
    assert ref.fraction_rank([[f(1), f(1), f(0)], [f(0), f(1), f(1)], [f(1), f(2), f(1)]]) == 2
    assert ref.fraction_rank([[f(0), f(1, 2)], [f(3), f(0)], [f(1), f(1)]]) == 2


def test_evaluate_rendered_coefficients():
    assert ref.evaluate("(q^2 - 1)/(q - 1)", Fraction(3)) == 4
    assert ref.evaluate("-q^3*t + 2", Fraction(2), Fraction(1, 2)) == -2
    assert ref.evaluate("q/(q^2*t^2 - 1)", Fraction(1), Fraction(2)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        ref.evaluate("x + 1", Fraction(1))


def test_schur_terms_and_scalar():
    terms = ref.schur_terms("s[2,1]*(q + 1) + s[1,1,1]*((q^2 - 1)/(q + 1))")
    assert terms == {(2, 1): "q + 1", (1, 1, 1): "(q^2 - 1)/(q + 1)"}
    assert ref.schur_terms("0") == {}
    assert ref.scalar("s[]*(q^2 + 1)", Fraction(2)) == 5
    assert ref.scalar("0", Fraction(2)) == 0
    with pytest.raises(ValueError):
        ref.scalar("s[1]*(1)", Fraction(2))


def test_workload_case_sets():
    sizes = {"qbinom-moments": 2010, "hl-expansions": 554, "parking-side": 49, "span-rank": 2}
    for name, count in sizes.items():
        cases = workloads.WORKLOADS[name].cases(seed=1)
        assert len(cases) == count
        assert Counter(c.identity for c in cases) == Counter(
            c.identity for c in workloads.WORKLOADS[name].cases(seed=2))
    hl = Counter(c.identity for c in workloads.WORKLOADS["hl-expansions"].cases(0))
    assert hl == {"thm43": 232, "thm44": 68, "wmu_consistency": 44, "thm41": 39, "cor42": 35,
                  "eq10": 35, "eq12": 28, "eq16": 28, "hook_support": 24, "ghry23": 21}


def test_seed_orders_cases():
    w = workloads.WORKLOADS["hl-expansions"]
    first, again, other = w.cases(3), w.cases(3), w.cases(4)
    assert first == again
    assert first != other
    keys = [(c.size, c.top) for c in first]
    assert keys == sorted(keys)  # smallest size first, non-top before top within a size


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
