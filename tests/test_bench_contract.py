"""Every function the benchmark's tracer wraps still exists in kvgeom.

bench/tracer.py names the layer functions it wraps by module (or class)
path and attribute; a name that no longer resolves is skipped there
without an error.  This test turns such a loss into a failure.
"""

import importlib.util
from pathlib import Path

import kvgeom
import kvgeom.cli  # noqa: F401  (the package does not import its CLI)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

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
    for part in path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return attr in vars(owner)


def test_traced_layer_functions_exist():
    entries = _load_tracer().LAYER_FUNCTIONS
    absent = {name for name, path, attr, _ in entries if not _resolves(path, attr)}
    assert absent == KNOWN_ABSENT
