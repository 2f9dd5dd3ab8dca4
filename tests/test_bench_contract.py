"""Every name the benchmark uses still exists in kvgeom.

bench/tracer.py names the layer functions it wraps by module (or class)
path and attribute; a name that no longer resolves is skipped there
without an error.  bench/run.py calls public functions of the package's
modules; a renamed one shows up only as a failed benchmark run.  These
tests turn either loss into a failure.
"""

import ast
import functools
import gc
import importlib.util
import types
from collections import Counter
from pathlib import Path

import kvgeom
import kvgeom.cli  # noqa: F401  (the package does not import its CLI)
from kvgeom import cyclic, freelie, kvsolve

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
RUNNER = BENCH / "run.py"

# traced names whose functions are gone and whose benchmark entries await
# restatement (ROADMAP, item 9)
KNOWN_ABSENT = {"cyclic.linear_part_to_assoc", "geom.powers", "freelie.assoc_to_lyndon",
                "cyclic.delta_derivative", "cyclic.cyclic_reduce"}


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


def test_solve_counter_reads_solve_exact(monkeypatch):
    # the tracer's counter unpacks solve_exact's arguments and result: on
    # the joint degree-3 system (3 eq1 rows and 2 necklace rows over the 4
    # unknowns of A_3 and B_3, no free variable) it counts all three
    systems = []

    def recording(rows, rhs):
        systems.append((rows, rhs))
        return solve(rows, rhs)

    solve = kvsolve.solve_exact
    monkeypatch.setattr(kvsolve, "solve_exact", recording)
    kvsolve.solve_kv(3, "joint-eq1-eq2")
    monkeypatch.undo()
    rows, rhs = systems[-1]
    rows2, _ = kvsolve._eq2_rows(3, cyclic._trace_rhs(3).component(3))
    assert rows == kvsolve._eq1_rows(3) + rows2
    result = solve(rows, rhs)
    assert result[1:] == ([], (4, 4))
    counts = Counter()
    _load_tracer()._count_solve(counts, {}, (rows, rhs), result)
    assert counts == {"kvsolve.unknowns": 4, "kvsolve.rows": 5, "kvsolve.rank": 4}


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


def _runner_method(cls_name: str, name: str):
    """A method of a bench/run.py class, compiled on its own from the parse,
    so that the runner's import-time set-up does not run in the tests."""
    tree = ast.parse(RUNNER.read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == cls_name)
    fn = next(node for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    namespace = {}
    exec(compile(ast.Module(body=[fn], type_ignores=[]), str(RUNNER), "exec"), namespace)
    return namespace[name]


SYMBOLIC_MODULES = {"kvgeom.freelie", "kvgeom.cyclic", "kvgeom.kvsolve"}
LRU_WRAPPER = type(functools.lru_cache(maxsize=None)(lambda: None))


def test_clear_memos_reaches_every_symbolic_memo(capsys):
    # every memo of the symbolic modules, wherever it sits, found from the
    # heap rather than from the module namespaces clear_memos walks: a memo
    # it missed would stay warm across the benchmark's ops
    assert kvgeom.cli.main(["solve-kv", "--degree", "5", "--strategy", "joint-eq1-eq2"]) == 0
    capsys.readouterr()
    memos = [obj for obj in gc.get_objects()
             if isinstance(obj, LRU_WRAPPER) and obj.__module__ in SYMBOLIC_MODULES]
    assert any(memo.cache_info().currsize for memo in memos)
    _runner_method("SymSolve", "clear_memos")(types.SimpleNamespace(kv=kvgeom))
    assert {memo.__qualname__: memo.cache_info().currsize for memo in memos} == {
        memo.__qualname__: 0 for memo in memos}


def test_symbolic_ops_start_cold():
    # after clear_memos a solve misses on every memo exactly as often as a
    # solve in a fresh process does: the benchmark's ops stay as cold as a
    # CLI call, and no memo is left out of the reset
    clear = _runner_method("SymSolve", "clear_memos")
    package = types.SimpleNamespace(kv=kvgeom)
    clear(package)
    kvsolve.solve_kv(7, "joint-eq1-eq2")
    memos = [obj for obj in gc.get_objects()
             if isinstance(obj, LRU_WRAPPER) and obj.__module__ in SYMBOLIC_MODULES]
    first = {memo.__qualname__: memo.cache_info().misses for memo in memos}
    assert any(first.values())
    clear(package)
    assert {memo.__qualname__: memo.cache_info().currsize for memo in memos} == {
        memo.__qualname__: 0 for memo in memos}
    kvsolve.solve_kv(7, "joint-eq1-eq2")
    assert {memo.__qualname__: memo.cache_info().misses for memo in memos} == first


def _module_tables():
    """The size of every module-level dict, list and set of the symbolic
    modules: a table kept there, and not in a functools memo, would not be
    emptied by clear_memos."""
    return {(mod.__name__, name): len(obj)
            for mod in (freelie, cyclic, kvsolve)
            for name, obj in vars(mod).items()
            if isinstance(obj, (dict, list, set)) and not name.startswith("__")}


def test_no_table_outside_the_memos_grows(monkeypatch):
    # only functools memos may fill up during a solve, so the benchmark's
    # reset leaves no warm table behind
    clear = _runner_method("SymSolve", "clear_memos")
    package = types.SimpleNamespace(kv=kvgeom)
    clear(package)
    before = _module_tables()
    kvsolve.solve_kv(7, "joint-eq1-eq2")
    assert _module_tables() == before

    # the check sees a hidden table that a solve fills
    monkeypatch.setattr(freelie, "_hidden", {}, raising=False)
    bch = kvsolve.bch
    monkeypatch.setattr(kvsolve, "bch",
                        lambda *args: freelie._hidden.setdefault(args, bch(*args)))
    clear(package)
    before = _module_tables()
    kvsolve.solve_kv(7, "joint-eq1-eq2")
    assert _module_tables() != before
