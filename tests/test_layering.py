"""The import layering of the package, read off the source with ast."""

import ast
import sys
from pathlib import Path

import kvgeom

SRC = Path(kvgeom.__file__).parent


def package_imports(module: str) -> set:
    """The kvgeom modules that src/kvgeom/<module>.py imports."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ["kvgeom"] * (node.level == 1) + [node.module] * bool(node.module)
            names = [".".join(base + [alias.name]) for alias in node.names]
        else:
            continue
        out.update(name.split(".")[1] for name in names if name.startswith("kvgeom."))
    return out


def test_parser_reads_both_relative_forms():
    # kvsolve has `from . import cyclic` and `from .freelie import ...`
    assert package_imports("kvsolve") == {"cyclic", "freelie"}


def test_layers():
    # the exact series tables sit at the bottom; the numeric engine reads
    # them without the symbolic solver's modules
    assert package_imports("freelie") == set()
    assert package_imports("matrixlie") == {"freelie"}
    assert package_imports("geom") <= {"freelie", "matrixlie"}


def top_level_imports(source: str) -> set:
    """The top-level names of every absolute import in a source, the
    imports inside functions included."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_runtime_dependencies():
    # numpy is the only runtime dependency: scipy, sympy, mpmath and
    # hypothesis stay in the tests
    probe = "import a.b\nfrom . import c\ndef f():\n    from d.e import g\n"
    assert top_level_imports(probe) == {"a", "d"}
    found = set().union(*(top_level_imports(path.read_text()) for path in SRC.glob("*.py")))
    assert found - sys.stdlib_module_names <= {"numpy", "kvgeom"}


def unused_imports(source: str) -> set:
    """The names a module's source imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_used():
    assert unused_imports("import os.path\nfrom x import a, b as c\nc()") == {"os", "a"}
    # __init__ imports to re-export
    paths = sorted(path for path in SRC.glob("*.py") if path.stem != "__init__")
    paths += sorted(Path(__file__).parent.glob("*.py"))
    found = {path.name: unused_imports(path.read_text()) for path in paths}
    assert found == {name: set() for name in found}
