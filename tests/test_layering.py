"""The import layering of the package, read off the source with ast."""

import ast
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
