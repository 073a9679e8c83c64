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


def test_every_top_level_name_is_read():
    """Every function, class and constant defined at the top of a module in
    src/pbent is read somewhere in src/, tests/ or demos/: as a name, an
    attribute or a string (monkeypatch's), beyond its own definition and
    the package's __init__, which only exports."""
    modules = [path for path in sorted(ROOT.glob("src/pbent/*.py")) if path.name != "__init__.py"]
    defined = set()
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    read = set()
    for pattern in ("src/pbent/*.py", "tests/*.py", "demos/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    assert sorted(name for name in defined - read if not name.startswith("__")) == []
