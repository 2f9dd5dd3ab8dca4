"""Every name the benchmark uses still exists in kvgeom.

bench/tracer.py names the layer functions it wraps by module (or class)
path and attribute; a name that no longer resolves is skipped there
without an error.  bench/run.py calls public functions of the package's
modules; a renamed one shows up only as a failed benchmark run.  These
tests turn either loss into a failure.
"""

import ast
import importlib.util
from pathlib import Path

import kvgeom
import kvgeom.cli  # noqa: F401  (the package does not import its CLI)

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
RUNNER = BENCH / "run.py"

# traced names whose functions are gone and whose benchmark entries await
# restatement (ROADMAP, item 5)
KNOWN_ABSENT = {"cyclic.linear_part_to_assoc", "geom.powers"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(path: str, attr: str) -> bool:
    owner = kvgeom
    for part in filter(None, path.split(".")):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return attr in vars(owner)


def test_traced_layer_functions_exist():
    entries = _load_tracer().LAYER_FUNCTIONS
    absent = {name for name, path, attr, _ in entries if not _resolves(path, attr)}
    assert absent == KNOWN_ABSENT


# how bench/run.py names the package's modules: as attributes of the
# imported package (kv.<module>, self.kv.<module>), by module name in its
# set-up code, and as ml for matrixlie
MODULE_ALIASES = {"geom": "geom", "matrixlie": "matrixlie", "ml": "matrixlie",
                  "cli": "cli", "freelie": "freelie", "cyclic": "cyclic",
                  "kvsolve": "kvsolve"}
# public names run.py is known to call; the parse must find them all
CALLED = {("geom", "kirillov_P0"), ("geom", "extract_AB"), ("geom", "lambda_det"),
          ("geom", "sample_points"), ("matrixlie", "kappa_t"), ("matrixlie", "phi_t"),
          ("matrixlie", "analytic_ad"), ("matrixlie", "fn_dexp"),
          ("matrixlie", "fn_dexp_right"), ("matrixlie", "load_algebra"),
          ("matrixlie", "get_algebra"), ("matrixlie", "PointV"), ("cli", "main"),
          ("cli", "build_parser")}


def _chain(node):
    """The dotted name read by an attribute node, as a list, else []."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if parts and isinstance(node, ast.Name) else []


def _runner_names():
    """(path, attribute) in kvgeom for every module and module attribute
    bench/run.py reads, its set-up code (run in fresh interpreters) included."""
    tree = ast.parse(RUNNER.read_text())
    setup = next(node.value.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["SETUP_CODE"])
    names = set()
    for node in [*ast.walk(tree), *ast.walk(ast.parse(setup))]:
        chain = _chain(node)
        while chain[:1] in (["self"], ["kv"]):
            chain = chain[1:]
        if chain[:1] and chain[0] in MODULE_ALIASES:
            module = MODULE_ALIASES[chain[0]]
            names.add((module, chain[1]) if len(chain) > 1 else ("", module))
    return names


def test_runner_names_exist():
    names = _runner_names()
    assert CALLED <= names
    assert {name for name in names if not _resolves(*name)} == set()
