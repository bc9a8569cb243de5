"""Every public top-level name of deltaq has a caller outside the tests.

Parses ``src/deltaq/*.py`` and looks for a ``Name`` or ``Attribute`` load of
each public top-level function or class in ``src/``, ``scripts/`` or
``bench/``.  Loads inside the name's own definition (a recursive call) do not
count.  A name used only by tests belongs in the tests, as an oracle beside
the code it checks.  Likewise every name a ``src/deltaq`` module imports must
be loaded in that module: an import left behind by a refactor is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "deltaq"
CALLERS = (ROOT / "src", ROOT / "scripts", ROOT / "bench")

ALLOWED = {
    "parse_symfunc": "the documented inverse of render; tests check the round trip",
    "fundamental_monomials": "the monomial reference route, pinned by bench/spans.py "
                             "until the next benchmark change",
}

UNUSED_IMPORTS_ALLOWED = {
    ("parking", "permutations"): "bench/spans.py patches parking.permutations to count "
                                 "permutations, until the next benchmark change",
}


def _public_definitions() -> dict[str, list[ast.AST]]:
    out: dict[str, list[ast.AST]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.setdefault(node.name, []).append(node)
    return out


def _loaded_names(tree: ast.AST, skip: set[int]) -> set[str]:
    """Names loaded anywhere in ``tree`` outside the nodes whose ids are in ``skip``."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    definitions = _public_definitions()
    skip = {id(node) for nodes in definitions.values() for node in nodes}
    used: set[str] = set()
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            used |= _loaded_names(ast.parse(path.read_text()), skip)
    # the bodies of the definitions still count as callers of other names
    for name, nodes in definitions.items():
        for node in nodes:
            for child in ast.iter_child_nodes(node):
                used |= _loaded_names(child, skip) - {name}
    assert set(ALLOWED) <= set(definitions), "allowlist names a deleted definition"
    unused = sorted(set(definitions) - used - set(ALLOWED))
    assert unused == [], f"public names only tests call: {unused}"


def test_every_import_is_loaded_in_its_module():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        # a bare name, not an attribute: module.name does not use an imported name
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unused.add((path.stem, name))
    assert unused == set(UNUSED_IMPORTS_ALLOWED), f"imports never loaded: {sorted(unused)}"
