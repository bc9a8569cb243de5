"""Every top-level name of deltaq has a caller outside the tests.

Parses ``src/deltaq/*.py`` and looks for a load of each top-level function
or class but the dunders, public or private, in ``src/``, ``scripts/`` or
``bench/``.  The private functions that ``bench/spans.py`` traces by name
(``spans.PRIVATE_SPANS``) are exempt: the tracer looks them up by string.
A load counts only when it resolves to that definition: a bare name bound
to it (in its own module or by ``from ... import``) and not shadowed by a
local binding, or an attribute of an alias of the ``deltaq`` module that
defines or imports it.  So ``p["n"]`` or ``params.m`` do not call
``symfunc.p`` or ``symfunc.m``.
Loads inside the name's own definition (a recursive call) do not count.  A
name used only by tests belongs in the tests, as an oracle beside the code it
checks.  Likewise every name a ``src/deltaq`` or ``tests`` module imports must
be loaded in that module: an import left behind by a refactor is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "deltaq"
TESTS = ROOT / "tests"
CALLERS = (ROOT / "src", ROOT / "scripts", ROOT / "bench")
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

ALLOWED: dict[str, str] = {}

UNUSED_IMPORTS_ALLOWED = {
    ("parking", "permutations"): "bench/spans.py patches parking.permutations to count "
                                 "permutations, until the next benchmark change",
}

# A binding is ("module", m) for the deltaq module m ("" for the package),
# ("from", m, name) for the name as module m binds it, or None for anything else.
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _import_bindings(node, module: str | None) -> dict:
    """The names an import statement binds, from the file of ``module`` (None outside deltaq)."""
    out = {}
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] != "deltaq":
                out[alias.asname or parts[0]] = None
            elif alias.asname:
                out[alias.asname] = ("module", parts[1] if len(parts) > 1 else "")
            else:
                out["deltaq"] = ("module", "")
        return out
    if node.level and module is not None:
        source = node.module  # relative imports: only within the package
    elif node.module and node.module.split(".")[0] == "deltaq":
        source = node.module.partition(".")[2] or None
    else:
        return {alias.asname or alias.name: None for alias in node.names}
    for alias in node.names:
        name = alias.asname or alias.name
        if source is None:
            out[name] = ("module", alias.name) if alias.name in MODULES else None
        else:
            out[name] = ("from", source, alias.name)
    return out


def _scope_bindings(scope, module: str | None) -> dict:
    """Every name bound directly in ``scope``; top-level definitions of a deltaq module are its own."""
    out = {}
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
            if arg is not None:
                out[arg.arg] = None
    own = module is not None and isinstance(scope, ast.Module)
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = ("from", module, node.name) if own else None
            stack.extend(node.decorator_list)
            continue
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out[node.id] = None
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out[node.name] = None
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(_import_bindings(node, module))
        stack.extend(ast.iter_child_nodes(node))
    return out


def _package_tables() -> tuple[dict, dict]:
    """({module: its top-level bindings}, {module: {name: definition}}), dunders left out."""
    tables, definitions = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        tables[path.stem] = _scope_bindings(tree, path.stem)
        definitions[path.stem] = {
            node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
        }
    return tables, definitions


def _resolve(binding, tables: dict):
    """Follow ``from`` bindings to ("module", m), ("def", m, name) or None."""
    seen = set()
    while binding is not None and binding[0] == "from":
        _, module, name = binding
        if module == "":
            return ("module", name) if name in MODULES else None
        if (module, name) in seen or module not in tables:
            return None
        seen.add((module, name))
        binding = tables[module].get(name)
        if binding == ("from", module, name):
            return ("def", module, name)
    return binding


def _uses(tree, module: str | None, tables: dict) -> set[tuple[str, str]]:
    """(module, name) of every deltaq definition that ``tree`` loads outside its own body."""
    used = set()

    def lookup(name: str, scopes: list):
        innermost = len(scopes) - 1
        for i in range(innermost, -1, -1):
            kind, names = scopes[i]
            if kind is ast.ClassDef and i != innermost:
                continue  # a class body does not enclose its methods
            if name in names:
                return _resolve(names[name], tables)
        return None

    def module_of(node, scopes: list) -> str | None:
        if isinstance(node, ast.Name):
            binding = lookup(node.id, scopes)
        elif isinstance(node, ast.Attribute):
            owner = module_of(node.value, scopes)
            binding = None if owner is None else _resolve(("from", owner, node.attr), tables)
        else:
            return None
        return binding[1] if binding and binding[0] == "module" else None

    def visit(node, scopes: list, inside) -> None:
        if isinstance(node, _SCOPES):
            scopes = scopes + [(type(node), _scope_bindings(node, module))]
            if module is not None and len(scopes) == 2 and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                inside = (module, node.name)
        binding = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            binding = lookup(node.id, scopes)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = module_of(node.value, scopes)
            if owner is not None:
                binding = _resolve(("from", owner, node.attr), tables)
        if binding and binding[0] == "def" and binding[1:] != inside:
            used.add(binding[1:])
        for child in ast.iter_child_nodes(node):
            visit(child, scopes, inside)

    visit(tree, [], None)
    return used


def _uncalled() -> tuple[set[str], set[str]]:
    """(every definition "module.name", the ones nothing in src/, scripts/ or bench/ loads)."""
    tables, definitions = _package_tables()
    used: set[tuple[str, str]] = set()
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            module = path.stem if path.parent == PACKAGE else None
            used |= _uses(ast.parse(path.read_text()), module, tables)
    defined = {f"{module}.{name}" for module, names in definitions.items() for name in names}
    return defined, defined - {f"{module}.{name}" for module, name in used}


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, uncalled = _uncalled()
    assert set(ALLOWED) <= defined, "allowlist names a deleted definition"
    unused = sorted(name for name in uncalled - set(ALLOWED) if "._" not in name)
    assert unused == [], f"public names only tests call: {unused}"


def test_every_private_name_has_a_caller_outside_the_tests(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans

    traced = {f"{module}.{name}" for module, names in spans.PRIVATE_SPANS.items() for name in names}
    defined, uncalled = _uncalled()
    assert traced <= defined, "bench/spans.py traces a deleted definition"
    unused = sorted(name for name in uncalled - traced if "._" in name)
    assert unused == [], f"private names only tests call: {unused}"


def test_every_import_is_loaded_in_its_module():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
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
