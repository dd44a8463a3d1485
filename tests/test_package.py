"""The package namespace: every public name of the layer modules, once; no
module or test imports a name it never uses; and the library imports only
numpy, PyYAML and the standard library."""

import ast
import sys
from pathlib import Path

import hankellab

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_resolve_once():
    names = hankellab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hankellab, name) is not None, name
    assert {"TruncationSpec", "Experiment", "EXPERIMENTS",
            "top_block_index", "__version__"} <= set(names)


def _unused_imports(source: str) -> list:
    """Names bound by an import in `source` and never read as a name there.
    `from __future__` imports, star imports and names listed in a literal
    `__all__` are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names
                         if a.name != "*"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return sorted(imported - used)


def test_no_unused_imports():
    assert _unused_imports("import os\nfrom a import b as c, d\nd()\n") \
        == ["c", "os"]
    # the package __init__ only re-exports, so it is not scanned
    paths = [p for p in sorted((ROOT / "src" / "hankellab").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = {p.relative_to(ROOT).as_posix(): _unused_imports(p.read_text())
              for p in paths}
    assert {p: names for p, names in unused.items() if names} == {}


def test_library_imports_only_numpy_yaml_and_stdlib():
    # hypothesis, scipy and pytest may be installed for the tests; the
    # library must run without them
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml"}
    for path in sorted((ROOT / "src" / "hankellab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert {n.split(".")[0] for n in names} <= allowed, path.name
