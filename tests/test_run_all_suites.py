"""``scripts/run_all_suites.py``: the scoreboard of every identity suite."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_suites.py"


@pytest.fixture(scope="module")
def run_all():
    spec = importlib.util.spec_from_file_location("run_all_suites", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_nmax_below_one_is_a_usage_error(run_all, capsys, nmax):
    with pytest.raises(SystemExit) as exc:
        run_all(["--suites", "qbinom", "--nmax", nmax])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith("error: need nmax >= 1\n")

