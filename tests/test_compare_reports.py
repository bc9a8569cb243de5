"""``scripts/compare_reports.py``: line-by-line comparison of two verify reports."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _report(path, *statuses, elapsed=1.0):
    lines = [json.dumps({"identity_id": "prop31", "params": {"k": i}, "status": status,
                         "lhs_render": "s[]*(1)", "rhs_render": "s[]*(1)", "witness": "",
                         "elapsed_ms": elapsed})
             for i, status in enumerate(statuses)]
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def test_equal_reports_pass_and_timings_are_ignored(compare, tmp_path, capsys):
    a = _report(tmp_path / "a.jsonl", "equal", "skipped")
    b = _report(tmp_path / "b.jsonl", "equal", "skipped", elapsed=9.0)
    assert compare([a, b]) == 0
    assert "2 lines compared, 0 differ" in capsys.readouterr().out


def test_a_differing_line_fails(compare, tmp_path, capsys):
    a = _report(tmp_path / "a.jsonl", "equal", "equal")
    b = _report(tmp_path / "b.jsonl", "equal", "mismatch")
    assert compare([a, b]) == 1
    assert "1 differ" in capsys.readouterr().out


def test_different_line_counts_fail(compare, tmp_path):
    a = _report(tmp_path / "a.jsonl", "equal", "equal")
    b = _report(tmp_path / "b.jsonl", "equal")
    assert compare([a, b]) == 1


@pytest.mark.parametrize("empty_side", ["before", "after", "both"])
def test_an_empty_report_fails(compare, tmp_path, capsys, empty_side):
    full = _report(tmp_path / "full.jsonl", "equal")
    empty = _report(tmp_path / "empty.jsonl")
    before = empty if empty_side in ("before", "both") else full
    after = empty if empty_side in ("after", "both") else full
    assert compare([before, after]) == 1
    assert "empty report" in capsys.readouterr().out
