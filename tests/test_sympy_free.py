"""The identity checks run without sympy; only the two-parameter route loads it.

The test process itself has imported sympy (the tests' field route is built
on it), so the check runs in a fresh interpreter: it imports ``deltaq.cli``,
runs every identity's default sweep through ``verify.run_one`` and finds no
sympy module loaded; then one ``delta_full`` call builds Q(q,t) on first
access and still gives its frozen image.
"""

import os
import subprocess
import sys
from pathlib import Path

import deltaq

SRC = Path(deltaq.__file__).resolve().parents[1]

SCRIPT = """
import sys

import deltaq.cli
from deltaq import verify

for name, entry in verify.REGISTRY.items():
    for params in entry.default_cases(None):
        report = verify.run_one(name, params)
        assert report.status == "equal", (name, params, report.witness)
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
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]
