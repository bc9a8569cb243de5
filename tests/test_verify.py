"""Tests for the identity registry, the suite runner, and the command line."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

import field_route
import references
from references import ONE, ZERO, field, from_field, subs_coeffs
from deltaq import cli, delta_ops, hall_littlewood as hl, parking, symfunc as sf
from deltaq import verify as ver
from deltaq.partition import Partition, partitions_of
from deltaq import qfield
from deltaq.qfield import Coef, QPoly, q, t


class TestRegistry:
    def test_ids_and_shape(self):
        assert len(ver.REGISTRY) == 19
        for identity_id, entry in ver.REGISTRY.items():
            assert entry.identity_id == identity_id
            assert entry.description
            assert callable(entry.check)
            cases = list(entry.default_cases(None))
            assert cases, identity_id
            assert all(isinstance(c, dict) for c in cases)

    def test_suites_cover_registry(self):
        covered = [i for name, ids in ver.SUITES.items() if name != "all" for i in ids]
        assert sorted(covered) == sorted(ver.REGISTRY)
        assert len(set(covered)) == len(covered)
        assert sorted(ver.SUITES["all"]) == sorted(ver.REGISTRY)

    def test_nmax_caps_sweeps(self):
        wide = list(ver.REGISTRY["prop31"].default_cases(None))
        narrow = list(ver.REGISTRY["prop31"].default_cases(4))
        assert 0 < len(narrow) < len(wide)


class TestRunOne:
    def test_equal(self):
        report = ver.run_one("prop31", {"k": 0, "m": 2, "ell": 2})
        assert report.status == "equal"
        assert report.witness == ""
        assert report.elapsed_ms >= 0

    def test_skip_out_of_hypothesis(self):
        report = ver.run_one("prop31", {"k": 0, "m": 2, "ell": 9})
        assert report.status == "skipped"
        assert "hypothesis" in report.witness
        report = ver.run_one("cor32", {"k": 3, "m": 4, "ell": 1})
        assert report.status == "skipped"

    def test_skip_invalid_params(self):
        # HookParams rejects m >= n; the hook identities state that as their hypothesis
        report = ver.run_one("eq10", {"k": 0, "m": 3, "n": 3})
        assert report.status == "skipped"
        assert report.witness == "hypothesis 0 <= k, k+1 <= m, m < n fails"

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            ver.run_one("nonsense", {})

    def test_mismatch_is_detected(self, monkeypatch):
        monkeypatch.setattr(ver.do, "cor32", lambda k, m, ell: (QPoly([1]), QPoly()))
        report = ver.run_one("cor32", {"k": 0, "m": 1, "ell": 2})
        assert report.status == "mismatch"
        assert "first differing component" in report.witness

    def test_every_identity_has_a_green_case(self):
        # cheapest default case of each identity must verify end to end
        for identity_id, entry in ver.REGISTRY.items():
            params = next(iter(entry.default_cases(None)))
            report = ver.run_one(identity_id, params)
            assert report.status == "equal", (identity_id, params, report.witness)


def _field_sides(identity_id: str, p: dict):
    """Both sides of a scalar identity in Q(q,t), from the field route."""
    if identity_id in ("prop31", "cor32"):
        return getattr(field_route, identity_id)(p["k"], p["m"], p["ell"])
    if identity_id == "thm43":
        nu, j = Partition(tuple(p["nu"])), p["j"]
        # sum_k content_k (q^(j-k);q)_k, each content one field + and / per rho
        graded = sum((references.charge_content_field_sum(nu, k) * field_route.qpoch_at(j - k, k)
                      for k in range(1, nu.size + 1)), ZERO)
        return field_route.principal_eval(nu, j), graded
    if identity_id == "wmu_consistency":
        mu = Partition(tuple(p["mu"]))
        return field_route.w_t0(mu), field_route.w_t0_cell_product(mu)
    params = delta_ops.HookParams(k=p["k"], m=p["m"], n=p["n"])
    if identity_id == "prop33a":
        return (field_route.kernel_moment(params, 1 - p["j"], p["j"] - 1),
                field_route.rhs_hook_coeff(params, p["j"]))
    return (field_route.kernel_moment(params, 1, p["ell"] - 1),
            field_route.lhs_hook_coeff(params, p["ell"]))


class TestScalarRoute:
    """Scalar sides are compared and rendered as Laurent polynomials in q, never through Q(q,t)."""

    def test_default_cases_render_as_the_field_route(self):
        # every default case up to n = 6; the hook families sweep one n at a time;
        # thm43 (|nu| <= 6, j <= 8) and wmu_consistency (|mu| <= 6) whole
        cases = [(i, p) for i in ("prop31", "cor32") for p in ver.REGISTRY[i].default_cases(6)]
        cases += [(i, p) for i in ("prop33a", "prop33b", "eq17")
                  for n in range(2, 7) for p in ver.REGISTRY[i].default_cases(n)]
        cases += [(i, p) for i in ("thm43", "wmu_consistency")
                  for p in ver.REGISTRY[i].default_cases(None)]
        for identity_id, p in cases:
            report = ver.run_one(identity_id, p)
            lhs, rhs = _field_sides(identity_id, p)
            assert report.status == "equal", (identity_id, p, report.witness)
            for text, side in ((report.lhs_render, lhs), (report.rhs_render, rhs)):
                assert text == sf.render(sf.SymFunc({Partition(): from_field(side)})), (identity_id, p)
        assert {i for i, _ in cases} == {
            "prop31", "cor32", "prop33a", "prop33b", "eq17", "thm43", "wmu_consistency"}
        assert sum(i == "thm43" for i, _ in cases) == 8 * sum(len(partitions_of(n))
                                                             for n in range(1, 7))

    def test_mismatch_witness_names_the_degree_zero_component(self, monkeypatch):
        monkeypatch.setattr(ver.do, "cor32", lambda k, m, ell: (QPoly([0, 0, 3], -4), QPoly()))
        report = ver.run_one("cor32", {"k": 0, "m": 1, "ell": 2})
        assert report.status == "mismatch"
        assert report.witness == "first differing component s[]: lhs (3/q^2) vs rhs (0)"
        assert (report.lhs_render, report.rhs_render) == ("s[]*(3/q^2)", "0")

    def test_field_sides_must_be_laurent_polynomials_in_q(self, monkeypatch):
        # scalar sides are QPolys only: one in Q(q,t) or a Coef is an error, never equal
        # or a mismatch, whether or not it is a Laurent polynomial and the sides agree
        for sides in ((ONE, ONE), (ONE / (ONE - q), ZERO), (qfield.ONE, qfield.ONE)):
            monkeypatch.setattr(ver.do, "cor32", lambda k, m, ell: sides)
            report = ver.run_one("cor32", {"k": 0, "m": 1, "ell": 2})
            assert report.status == "error", sides
            assert report.witness.startswith("TypeError: "), sides


class TestOutcomes:
    def test_implementation_limit_is_an_error(self, monkeypatch):
        report = ver.run_one("span_dim", {"n": 7})
        assert report.status == "equal"
        assert report.lhs_render == "rank 15 from 30 images"
        # a rank at a point that does not exceed n proves nothing: error, not mismatch
        monkeypatch.setattr(delta_ops, "SPAN_POINT", (2, 0))
        report = ver.run_one("span_dim", {"n": 4})
        assert report.status == "error"
        assert report.witness == (
            "ValueError: inconclusive: rank 4 <= n = 4 at (q,t) = (2, 0) mod 2^61-1")
        assert report.lhs_render == report.rhs_render == ""

    def test_error_exit_code(self, capsys, monkeypatch):
        rc = cli.main(["verify", "--id", "span_dim", "--params", "n=7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "total 1: 1 equal, 0 mismatch, 0 skipped, 0 error" in out
        monkeypatch.setattr(delta_ops, "SPAN_POINT", (2, 0))
        rc = cli.main(["verify", "--id", "span_dim", "--params", "n=7"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "total 1: 0 equal, 0 mismatch, 0 skipped, 1 error" in out
        assert "rank 7 <= n = 7 at (q,t) = (2, 0) mod 2^61-1" in out

    def test_span_below_four_is_skipped(self, capsys):
        reports = ver.run_suite("span", nmax=3)
        assert [r.params["n"] for r in reports] == [1, 2, 3]
        assert all(r.status == "skipped" for r in reports)
        assert all(r.witness == "hypothesis n >= 4 fails" for r in reports)
        rc = cli.main(["verify", "--suite", "span", "--nmax", "3"])
        capsys.readouterr()
        assert rc == 0

    @pytest.mark.parametrize("exc", [ValueError("bad"), ZeroDivisionError("pole")])
    def test_exceptions_do_not_abort_the_suite(self, monkeypatch, exc):
        def boom(k, m, ell):
            raise exc

        monkeypatch.setattr(ver.do, "cor32", boom)
        reports = ver.run_suite("qbinom", nmax=2)
        errors = [r for r in reports if r.status == "error"]
        assert errors and all(r.identity_id == "cor32" for r in errors)
        assert errors[0].witness == f"{type(exc).__name__}: {exc}"
        assert ver.summarize(reports)["error"] == len(errors)


# Registry-wide properties over a small grid of parameters: every integer
# parameter in -2..4, every partition of size <= 4 plus some non-partitions.
_GRID_INTS = range(-2, 5)
_GRID_PARTS = [list(nu) for size in range(5) for nu in partitions_of(size)] + [
    [0], [-1], [1, 2], [2, 0]]


def _grid(identity_id: str, inside: bool) -> list[dict]:
    entry = ver.REGISTRY[identity_id]
    keys = list(next(iter(entry.default_cases(None))))
    axes = [_GRID_PARTS if key in ("nu", "mu") else _GRID_INTS for key in keys]
    points = (dict(zip(keys, values)) for values in itertools.product(*axes))
    return [p for p in points if bool(entry.hypothesis(p)) == inside]


class TestRegistryProperties:
    @pytest.mark.parametrize("identity_id", sorted(ver.REGISTRY))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_outside_hypothesis_is_skipped(self, identity_id, data):
        params = data.draw(st.sampled_from(_grid(identity_id, inside=False)))
        report = ver.run_one(identity_id, params)
        assert report.status == "skipped", (params, report.witness)
        assert report.witness == f"hypothesis {ver.REGISTRY[identity_id].hypothesis_text} fails"

    @pytest.mark.parametrize("identity_id", sorted(ver.REGISTRY))
    @given(data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_inside_hypothesis_is_equal(self, identity_id, data):
        params = data.draw(st.sampled_from(_grid(identity_id, inside=True)))
        report = ver.run_one(identity_id, params)
        assert report.status == "equal", (params, report.witness)


class TestSuiteRunner:
    def test_single_identity_with_params(self):
        reports = ver.run_suite(identity_id="prop31", params={"k": 0, "m": 2, "ell": 2})
        assert len(reports) == 1
        assert reports[0].status == "equal"

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            ver.run_suite("nonsense")

    @pytest.mark.parametrize("nmax", [0, -1])
    def test_nmax_below_one_is_rejected(self, capsys, nmax):
        # 0 once ran the full default sweep and -1 checked no case at all
        with pytest.raises(ValueError, match="nmax must be at least 1"):
            ver.run_suite("qbinom", nmax=nmax)
        rc = cli.main(["verify", "--suite", "qbinom", "--nmax", str(nmax)])
        assert rc == 2
        assert "nmax must be at least 1" in capsys.readouterr().err

    def test_q_to_t_renames_coefficients(self):
        # deltaconj_q0 compares against the t=0 image with q renamed t
        f = sf.SymFunc({Partition((2, 1)): Coef({(2, 0): 1, (1, 0): 1}),
                        Partition((3,)): Coef({(-2, 0): 3, (0, 0): -1}),
                        Partition((1, 1, 1)): Coef({(-1, 0): 1})})
        assert field(ver._q_to_t(f)) == subs_coeffs(f, q_image=t)
        image = delta_ops.delta_prime_t0((1, 1), 4)
        assert field(ver._q_to_t(image)) == subs_coeffs(image, q_image=t)

    def test_qbinom_suite_small(self):
        reports = ver.run_suite("qbinom", nmax=4)
        counts = ver.summarize(reports)
        assert counts["mismatch"] == 0
        assert counts["equal"] > 0
        assert {r.identity_id for r in reports} == set(ver.SUITES["qbinom"])

    def test_jsonl_round_trip(self, tmp_path):
        out = tmp_path / "reports.jsonl"
        reports = ver.run_suite(identity_id="prop31", params={"k": 0, "m": 2, "ell": 2})
        ver.write_jsonl(reports, str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == len(reports) == 1
        payload = json.loads(lines[0])
        assert payload["identity_id"] == "prop31"
        assert payload["status"] == "equal"
        assert set(payload) == {
            "identity_id", "params", "status", "lhs_render", "rhs_render",
            "witness", "elapsed_ms",
        }

    def test_summarize(self):
        reports = [
            ver.run_one("prop31", {"k": 0, "m": 2, "ell": 2}),
            ver.run_one("prop31", {"k": 0, "m": 2, "ell": 9}),
        ]
        assert ver.summarize(reports) == {"equal": 1, "mismatch": 0, "skipped": 1, "error": 0}


class TestParamParsing:
    def test_split_params(self):
        assert cli._split_params("k=1,m=3,nu=[2,1]") == {"k": 1, "m": 3, "nu": [2, 1]}
        assert cli._split_params("n=4") == {"n": 4}
        # commas inside brackets stay, one trailing comma is dropped
        assert cli._split_params("nu=[3, 2,1] , n=7,") == {"nu": [3, 2, 1], "n": 7}
        assert cli._split_params("") == {}

    def test_repeated_key(self, capsys):
        with pytest.raises(ValueError, match="repeated parameter 'k'"):
            cli._split_params("k=1,m=4,ell=4,k=0")
        assert cli.main(["verify", "--id", "prop31", "--params", "k=1,m=4,ell=4,k=0"]) == 2
        assert capsys.readouterr().err == "error: repeated parameter 'k'\n"

    def test_malformed(self):
        with pytest.raises(ValueError):
            cli._split_params("k=")
        with pytest.raises(ValueError):
            cli._split_params("=3")
        with pytest.raises(ValueError, match="malformed parameter ''"):
            cli._split_params("k=1,,m=2")
        for text in (",k=1", "k=1, ", "nu=[2,1", "nu=2,1]"):
            with pytest.raises(ValueError):
                cli._split_params(text)


class TestCli:
    def test_verify_exit_codes(self, capsys, monkeypatch):
        rc = cli.main(["verify", "--id", "prop31", "--params", "k=0,m=2,ell=2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "equal" in out
        assert "total 1: 1 equal, 0 mismatch, 0 skipped" in out

        monkeypatch.setattr(ver.do, "cor32", lambda k, m, ell: (ONE, ZERO))
        rc = cli.main(["verify", "--id", "cor32", "--params", "k=0,m=1,ell=2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "mismatch" in out

    @pytest.mark.parametrize("identity, params",
                             [("prop31", "k=0,m=1500,ell=3"), ("cor32", "k=1,m=1200,ell=4")])
    def test_verify_deep_q_binomials(self, capsys, identity, params):
        # q-binomials with a thousand or more factors build without deep recursion
        rc = cli.main(["verify", "--id", identity, "--params", params])
        assert rc == 0
        assert "total 1: 1 equal, 0 mismatch, 0 skipped" in capsys.readouterr().out

    def test_verify_params_fit_one_identity(self, capsys):
        # ghry23 of the kernels suite takes k, but --id eq12 selects only eq12
        rc = cli.main(["verify", "--suite", "kernels", "--id", "eq12", "--params", "n=4,i=2"])
        assert rc == 0
        assert "total 1: 1 equal" in capsys.readouterr().out

    def test_verify_writes_jsonl(self, capsys, tmp_path):
        out_file = tmp_path / "run.jsonl"
        rc = cli.main([
            "verify", "--id", "prop31", "--params", "k=0,m=2,ell=2",
            "--out", str(out_file),
        ])
        capsys.readouterr()
        assert rc == 0
        assert json.loads(out_file.read_text())["status"] == "equal"

    def test_verify_out_that_cannot_be_opened_runs_no_case(self, capsys, monkeypatch, tmp_path):
        ran = []
        monkeypatch.setattr(ver, "run_one", lambda *case: ran.append(case))
        out_file = tmp_path / "missing" / "run.jsonl"
        rc = cli.main(["verify", "--id", "prop31", "--out", str(out_file)])
        captured = capsys.readouterr()
        assert rc == 2 and ran == [] and captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{out_file}'\n"

    def test_expand_schur(self, capsys):
        rc = cli.main(["expand", "--what", "P", "--mu", "[2,1]"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert out == sf.render(hl.hl_P((2, 1)))

    @pytest.mark.parametrize("what", ["P", "Q", "Htilde0", "Htilde"])
    def test_expand_empty_partition(self, capsys, what):
        rc = cli.main(["expand", "--what", what, "--mu", "[]"])
        assert rc == 0
        assert capsys.readouterr().out == "s[]*(1)\n"

    def test_expand_csv(self, capsys):
        rc = cli.main([
            "expand", "--what", "lhs_hook", "--params", "k=0,m=1,n=2", "--csv",
        ])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert out[0] == "partition,coefficient"
        assert out[1] == '"[1,1]",q^3 - q^2 - q + 1'

    @pytest.mark.parametrize("argv, message", [
        (["expand", "--what", "Htilde", "--mu", "7"],
         "filling enumeration limited to size 6, got 7"),
        (["expand", "--what", "lhs_hook", "--params", "k=2,m=1,n=3"],
         "need 0 <= k, k+1 <= m, m < n; got k=2, m=1, n=3"),
        (["expand", "--what", "P", "--mu", "3,x"],
         "invalid literal for int() with base 10: 'x'"),
        (["pf", "--n", "0"], "n must be at least 1"),
        (["deltaside", "--n", "3", "--k", "0"], "need 1 <= k <= n, got k=0, n=3"),
        (["expand", "--what", "Htilde0"], "--what Htilde0 needs --mu"),
        (["expand", "--what", "P"], "--what P needs --mu"),
        (["expand", "--what", "lhs_hook", "--params", "k=1,m=3"],
         "--what lhs_hook needs n in --params"),
        (["expand", "--what", "lhs_nu"], "--what lhs_nu needs nu, n in --params"),
        (["expand", "--what", "ghry", "--params", "n=3"], "--what ghry needs k in --params"),
        (["expand", "--what", "lhs_nu", "--params", "nu=2,n=3"],
         "--what lhs_nu needs nu as a list such as [2,1], got 2"),
        (["expand", "--what", "lhs_hook", "--params", "k=[1],m=3,n=4"],
         "--what lhs_hook needs k as an int, got [1]"),
        (["verify", "--id", "prop31", "--params", "k="], "malformed parameter 'k='"),
        (["verify", "--suite", "span", "--params", "n=x"],
         "invalid literal for int() with base 10: 'x'"),
        (["verify", "--suite", "kernels", "--params", "n=4,i=2"], "ghry23 needs k in --params"),
        (["verify", "--suite", "nu", "--params", "n=4"],
         "thm41 needs nu in --params; thm43 needs nu, j in --params; "
         "thm44 needs nu in --params"),
        (["verify", "--id", "thm44", "--params", "nu=3,n=4"],
         "thm44 needs nu as a list such as [2,1], got 3"),
        (["verify", "--id", "prop31", "--params", "k=[1],m=3,ell=3"],
         "prop31 needs k as an int, got [1]"),
        (["verify", "--id", "wmu_consistency", "--params", "mu=2"],
         "wmu_consistency needs mu as a list such as [2,1], got 2"),
        (["verify", "--id", "thm44", "--params", "nu=[2],n=4,nn=5"],
         "thm44 takes no nn in --params"),
        (["verify", "--id", "span_dim", "--params", "n=4,nu_size_max=2"],
         "span_dim takes no nu_size_max in --params"),
        (["expand", "--what", "rhs_nu", "--params", "nu=[2],n=4,kk=1"],
         "--what rhs_nu takes no kk in --params"),
        (["expand", "--what", "P", "--mu", "[2,1]", "--params", "k=1"],
         "--what P takes no k in --params"),
        (["expand", "--what", "ghry", "--params", "n=3,k=0"], "need 1 <= k <= n, got k=0, n=3"),
        (["expand", "--what", "ghry", "--params", "n=3,k=5"], "need 1 <= k <= n, got k=5, n=3"),
        (["expand", "--what", "rhs_nu", "--params", "nu=[2,1],n=0"], "n must be at least 1"),
        (["pf", "--n", "0", "--stats"], "n must be at least 1"),
        (["pf", "--n", "-1", "--stats"], "n must be at least 1"),
        (["verify", "--id", "prop31", "--params", "k=0,m=1_0,ell=2"],
         "invalid literal for int() with base 10: '1_0'"),
        (["verify", "--id", "prop31", "--params", "k=0,m=10,ell=+2"],
         "invalid literal for int() with base 10: '+2'"),
        (["verify", "--id", "prop31", "--params", "k=0,m=\uff13,ell=2"],
         "invalid literal for int() with base 10: '\uff13'"),
        (["expand", "--what", "P", "--mu", "[2, +1]"],
         "invalid literal for int() with base 10: '+1'"),
        (["verify", "--id", "thm43", "--params", "nu=[+1_0],j=2"],
         "invalid literal for int() with base 10: '+1_0'"),
        (["expand", "--what", "P", "--mu", "[\uff12]"],
         "invalid literal for int() with base 10: '\uff12'"),
    ], ids=["htilde-size-7", "hook-outside-hypothesis", "malformed-mu", "pf-n-0",
            "deltaside-k-0", "htilde0-without-mu", "p-without-mu", "hook-without-n",
            "nu-without-params", "ghry-without-k", "nu-not-a-list", "hook-k-not-an-int",
            "verify-empty-value", "verify-value-not-an-int", "verify-params-unfit",
            "verify-params-unfit-several", "verify-nu-not-a-list", "verify-k-not-an-int",
            "verify-mu-not-a-list", "verify-unknown-key", "verify-span-nu-size-max",
            "expand-unknown-key", "p-unknown-key", "ghry-k-0", "ghry-k-above-n",
            "rhs-nu-n-0", "pf-stats-n-0", "pf-stats-n-negative", "verify-int-with-underscore",
            "verify-int-with-plus", "verify-full-width-digit", "mu-part-with-plus",
            "verify-list-part-not-digits", "mu-full-width-digit"])
    def test_bad_input_exits_2(self, capsys, argv, message):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_pf_count_and_stats(self, capsys):
        rc = cli.main(["pf", "--n", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 parking functions of size 2" in out

        rc = cli.main(["pf", "--n", "2", "--stats"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert lines[0] == "cars,areas,area,dinv,word,ides"
        assert lines[1:] == [
            "1 2,0 0,0,1,2 1,1 1",
            "2 1,0 0,0,0,1 2,2",
            "1 2,0 1,1,0,2 1,1 1",
        ]

    def test_pf_counts_without_building_them(self, capsys):
        # 10^8 parking functions: counted path by path, none built
        rc = cli.main(["pf", "--n", "9"])
        assert rc == 0
        assert capsys.readouterr().out == "100000000 parking functions of size 9\n"

    # sha256 of the whole --stats CSV, rows in path order and cars in lexicographic order
    PF_STATS_SHA256 = {
        1: "68de5424901442245acb94fdf24778b6ab1094c6982095a442a3be946e44062a",
        2: "041a987849d5e3ea47aa0f1129c318f9ce11dede1baa554073fe1a9678086c4b",
        3: "542b9b18ecac92badee647562e3962b2b9e585ba14df9f39b2755947c8bba857",
        4: "d0a04008db815bf4f0f187f774ae8c301a5318ac4831889c2c4b48459d8fbf3a",
    }

    @pytest.mark.parametrize("n", sorted(PF_STATS_SHA256))
    def test_pf_stats_output_is_frozen(self, capsys, n):
        rc = cli.main(["pf", "--n", str(n), "--stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(out.splitlines()) == 1 + (n + 1) ** (n - 1)
        assert hashlib.sha256(out.encode()).hexdigest() == self.PF_STATS_SHA256[n]

    def test_deltaside(self, capsys):
        rc = cli.main(["deltaside", "--n", "2", "--k", "2"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert out == sf.render(parking.delta_side_combinatorial(2, 2))

    def test_deltaside_t0(self, capsys):
        rc = cli.main(["deltaside", "--n", "3", "--k", "2", "--t0"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert out == sf.render(delta_ops.delta_prime_t0((1,), 3))
