"""``scripts/span_report.py``: the rank of the span of the Delta images at a point."""

import importlib.util
from pathlib import Path

import pytest

from deltaq import delta_ops

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "span_report.py"


@pytest.fixture(scope="module")
def span_report():
    spec = importlib.util.spec_from_file_location("span_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("nu_size_max", ["0", "-3"])
def test_nu_size_max_below_one_is_a_usage_error(span_report, capsys, nu_size_max):
    with pytest.raises(SystemExit) as exc:
        span_report.main(["--nmin", "2", "--nmax", "3", "--nu-size-max", nu_size_max])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith("error: need nu-size-max >= 1\n")


def test_ranks_per_n(span_report, capsys):
    assert span_report.main(["--nmin", "2", "--nmax", "3", "--nu-size-max", "1"]) == 0
    rows = [line.split()[:5] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["2", "1", "2", "1", "no"], ["3", "1", "3", "1", "no"]]


def test_n7_is_full_without_fillings(span_report, capsys):
    # past size 6, where the fillings behind H~_mu stop; the rank at a point needs none
    assert span_report.main(["--nmin", "7", "--nmax", "7"]) == 0
    rows = [line.split()[:5] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["7", "15", "15", "30", "yes"]]


def test_help_names_the_point_and_what_full_certifies(span_report, capsys):
    with pytest.raises(SystemExit) as exc:
        span_report.main(["--help"])
    assert exc.value.code == 0
    shown = capsys.readouterr().out
    for text in (span_report.__doc__, shown):
        assert delta_ops.point_label() in text
        assert "lower bound" in text
        assert '"full? yes" certifies rank = p(n)' in text
