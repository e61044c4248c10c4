"""Source hygiene: every name a module imports is used in that module."""

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
