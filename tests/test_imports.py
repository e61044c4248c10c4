"""Source hygiene: every name a module imports is used in that module, every
parameter a function of the package takes is read in its body, and every
private function of the package has a caller in the package."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(path: pathlib.Path) -> list:
    """'file:line: name' for each imported name that no Name node of the module reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    # a package __init__ imports names to re-export them
    files = [p for top in ("src", "tests", "demos") for p in sorted((ROOT / top).rglob("*.py")) if p.name != "__init__.py"]
    assert len(files) > 20
    assert [entry for path in files for entry in unused_imports(path)] == []


# parameters kept only so that existing callers still work; each is accepted and ignored
UNREAD_PARAMETERS = {
    "src/perco/coupling.py": {("check_thinning_bounds", "threads")},
    "src/perco/estimators.py": {("estimate_mixing_cov", "threads")},
}


def unread_parameters(path: pathlib.Path) -> set:
    """(function, parameter) for each parameter that no Name node of its function's body reads.

    ``self``, ``cls`` and names starting with ``_`` are exempt; a lambda is named ``<lambda>``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        read = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        found |= {(name, p.arg) for p in params if p.arg not in {"self", "cls", *read} and not p.arg.startswith("_")}
    return found


def test_every_parameter_is_read():
    files = sorted((ROOT / "src" / "perco").glob("*.py"))
    assert len(files) > 10
    got = {str(path.relative_to(ROOT)): unread_parameters(path) for path in files}
    assert {rel: hits for rel, hits in got.items() if hits} == UNREAD_PARAMETERS


def private_functions_without_src_caller(files: list) -> list:
    """'file:line: name' for each _-prefixed function or method that no code outside its own def names.

    A name counts where a Name or Attribute node reads it; dunder methods are exempt.
    """
    defs, named = [], {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defs.append((path, node))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                named.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(node)
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path, node in defs
        if set(named.get(node.name, ())) <= set(ast.walk(node))
    ]


def test_every_private_function_has_a_src_caller():
    # code that only a test calls belongs in the tests (tests/reference.py for an oracle)
    files = sorted((ROOT / "src" / "perco").glob("*.py"))
    assert len(files) > 10
    assert private_functions_without_src_caller(files) == []
