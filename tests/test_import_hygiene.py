"""Every module reads every name it imports."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the package's __init__ re-exports what it imports, so it is not checked
MODULES = sorted(p for p in (ROOT / "src" / "hankelpert").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path):
    """(line, name) of each name ``path`` imports but never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in MODULES for line, name in _unused_imports(path)]
    assert unused == []
