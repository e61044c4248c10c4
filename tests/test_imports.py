"""Source hygiene: every name a module imports is used in that module, and every
parameter a function of the package takes is read in its body."""

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
