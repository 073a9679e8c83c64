"""Every name a module imports is used in that module."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """Names bound by path's imports that no expression in it reads.
    `import a.b` binds `a`; `from __future__` imports bind nothing."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # a package's __init__ imports its exports without using them
    paths = [
        path
        for pattern in ("src/pbent/*.py", "tests/*.py", "demos/*.py")
        for path in sorted(ROOT.glob(pattern))
        if path.name != "__init__.py"
    ]
    assert len(paths) > 20
    unused = {str(path.relative_to(ROOT)): unused_imports(path) for path in paths}
    assert {path: names for path, names in unused.items() if names} == {}
