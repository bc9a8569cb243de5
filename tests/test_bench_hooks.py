"""The benchmark's tracer finds every name it patches in the package.

``bench/spans.py`` wraps named functions, methods and generators of deltaq
from outside the program; a rename or deletion here would break
``bench/run.py --trace 1``.  Installing and uninstalling the tracer fails
first.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    mods = spans.deltaq_modules()
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    tracer = spans.Tracer()
    try:
        tracer.install(mods)
        side = "delta_side_combinatorial"
        assert getattr(mods["parking"], side) is not before["parking"][side]
    finally:
        tracer.uninstall()
    assert {name: dict(vars(mod)) for name, mod in mods.items()} == before
