"""The benchmark's hooks into the package still hold.

``bench/spans.py`` wraps named functions, methods and generators of deltaq
from outside the program; a rename or deletion here would break
``bench/run.py --trace 1``.  Installing and uninstalling the tracer fails
first.

Every timed round starts from cold caches: ``bench/run.py`` clears the
package's lru caches and collects garbage.  A ``QPoly`` keeps its Kronecker
ints (``_packs``) only while something holds it, so once the caches are
cleared no packed int may survive a round; a module-level store of them
would make later rounds warm.  Nor may an ``lru_cache`` that the benchmark
cannot find: every one in ``src/deltaq`` must be a module-level function of a
module that ``bench/spans.py`` lists.
"""

import ast
import gc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "deltaq"
CACHES = ("lru_cache", "cache")


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
        return [obj for obj in gc.get_objects()
                if isinstance(obj, QPoly) and obj._packs is not None]

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


def _cache_sites(path: Path) -> set[str]:
    """``module.name`` of each module-level function a functools cache decorates.

    Any other use of one, in a class or a function or as a call, is
    ``module:line``, which no cache the benchmark clears is named.
    """
    tree = ast.parse(path.read_text())
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in CACHES}

    def is_cache(node) -> bool:
        if isinstance(node, ast.Attribute):
            return (node.attr in CACHES and isinstance(node.value, ast.Name)
                    and node.value.id == "functools")
        return isinstance(node, ast.Name) and node.id in names

    sites, seen = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found = [sub for dec in node.decorator_list for sub in ast.walk(dec) if is_cache(sub)]
            if found:
                sites.add(f"{path.stem}.{node.name}")
                seen.update(map(id, found))
    return sites | {f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                    if is_cache(node) and id(node) not in seen}


def test_the_benchmark_clears_every_lru_cache(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    defined = set().union(*map(_cache_sites, sorted(PACKAGE.glob("*.py"))))
    assert defined, "no lru_cache found: the search is broken"
    cleared = set(spans.lru_caches(spans.deltaq_modules()))
    assert sorted(defined - cleared) == []
