"""The identity checks and ``span_report.py`` run without sympy; only ``delta_full`` loads it.

The test process itself has imported sympy (the tests' field route is built
on it), so the check runs in a fresh interpreter: it imports ``deltaq.cli``,
runs every identity's default sweep through ``verify.run_one`` and
``scripts/span_report.py`` for n = 2..6, and finds no sympy module loaded;
then one ``delta_full`` call builds Q(q,t) on first access and still gives
its frozen image.
"""

import os
import subprocess
import sys
from pathlib import Path

import deltaq

SRC = Path(deltaq.__file__).resolve().parents[1]
SPAN_REPORT = SRC.parent / "scripts" / "span_report.py"

SCRIPT = """
import contextlib
import importlib.util
import io
import sys

import deltaq.cli
from deltaq import verify

for name, entry in verify.REGISTRY.items():
    for params in entry.default_cases(None):
        report = verify.run_one(name, params)
        assert report.status == "equal", (name, params, report.witness)

spec = importlib.util.spec_from_file_location("span_report", sys.argv[1])
span_report = importlib.util.module_from_spec(spec)
spec.loader.exec_module(span_report)
with contextlib.redirect_stdout(io.StringIO()) as table:
    assert span_report.main(["--nmin", "2", "--nmax", "6"]) == 0
rows = [line.split()[:5] for line in table.getvalue().splitlines()[1:]]
assert [(row[0], row[4]) for row in rows] == [(str(n), "yes") for n in range(2, 7)], rows
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "sympy")
assert loaded == [], loaded[:5]

from deltaq import delta_ops, symfunc

image = symfunc.render(delta_ops.delta_full(symfunc.s((1, 1)), 2, prime=False))
assert image == "s[2]*(1) + s[1,1]*(q + t)", image
assert "sympy" in sys.modules
print("ok")
"""


def test_verify_route_does_not_load_sympy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(SPAN_REPORT)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]
