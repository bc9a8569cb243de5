"""The benchmark's hooks into the package still hold.

``bench/spans.py`` wraps named functions, methods and generators of deltaq
from outside the program; a rename or deletion here would break
``bench/run.py --trace 1``.  Installing and uninstalling the tracer fails
first.

Every timed round starts from cold caches: ``bench/run.py`` clears the
package's lru caches and collects garbage.  A ``QPoly`` keeps its Kronecker
ints (``_packs``) only while something holds it, so once the caches are
cleared no packed int may survive a round; a module-level store of them
would make later rounds warm.
"""

import gc
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


def test_cleared_caches_leave_no_packed_ints(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads
    from deltaq import verify
    from deltaq.qfield import QPoly

    def memoized():
        return [obj for obj in gc.get_objects() if isinstance(obj, QPoly) and hasattr(obj, "_packs")]

    caches = spans.lru_caches(spans.deltaq_modules())
    spans.clear_caches(caches)
    gc.collect()
    held = memoized()  # memoized before this round; held so that no id is reused
    known = {id(poly) for poly in held}
    for identity, _ in workloads.WORKLOADS["qbinom-moments"].families:
        for params in workloads.FAMILIES[identity](5):
            assert verify.run_one(identity, params).status == "equal", (identity, params)
    assert any(id(poly) not in known for poly in memoized())
    spans.clear_caches(caches)
    gc.collect()
    assert [poly for poly in memoized() if id(poly) not in known] == []
