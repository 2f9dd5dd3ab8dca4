"""kvgeom benchmark: three closed-loop workloads driven through public entry points.

Run from the root of a kvgeom checkout:

    python3 bench/run.py --workload sym_solve --seed 1 --seconds 25 --trace 0

One caller, one process, one operation at a time.  The program is imported
from the checkout's `src/`; nothing is installed.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones (see bench/README.md).
"""

import os

# One BLAS thread, set before numpy is first imported, so that timings do not
# depend on the pool size the machine would pick.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)
# No bytecode cache: the benchmark writes nothing into src/, and every
# set-up compiles the program the same way.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

sys.dont_write_bytecode = True

from tracer import Tracer  # noqa: E402  (bench/ is on sys.path as the script's directory)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

# The acceptance tolerances (geom.DEFAULT_TOLERANCES when this benchmark was
# defined).  They are held here so that loosening the library's defaults
# cannot loosen the benchmark's gate, and so accuracy_digits keeps one scale.
TOL = {"eq1": 1e-7, "kappaVsLambda": 1e-7, "transportPhi": 1e-6, "transportVol": 1e-5}
# accuracy_digits of a check whose residual is exactly zero: float64's
# decimal precision, since no float result can do better.
EXACT_DIGITS = 16.0

SETUP_REPEATS = 9           # fresh processes timed per run for setup_s
SYM_DEGREE = "7"
SYM_STRATEGIES = ("joint-eq1-eq2", "eq1-only")
FLOW_POINTS = 2             # one-point flows per round of geom_flow_so3
FLOW_ARGS = ["--algebra", "so3", "--samples", "1", "--steps", "40"]
FLOW_WARMUP_ARGS = ["--algebra", "so3", "--samples", "2", "--steps", "2"]
SL3_RADIUS = 0.3
SL3_ROUND_POINTS = 20       # the seed's points; every round is one pass over them
SL3_MIN_POINTS = 100        # so that p90 has at least 10 samples beyond it

# Set-up timed in a fresh process: import the program, then build and
# validate what the workload needs (the algebra and its engine, or the CLI).
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
import kvgeom
from kvgeom import cli, geom, matrixlie
if sys.argv[2] == "sym_solve":
    cli.build_parser()
else:
    if sys.argv[2] == "geom_points_sl3":
        alg = matrixlie.load_algebra(sys.argv[3])
    else:
        alg = matrixlie.get_algebra("so3")
    zero = np.zeros(alg.dim)
    geom.kirillov_P0(alg, matrixlie.PointV(zero, zero))   # builds the engine
print(json.dumps({"setup_s": time.perf_counter() - t0, "module": kvgeom.__file__}))
"""


@dataclass
class Op:
    """One operation of a workload and the verdict of its checks."""
    latency_s: float
    ok: bool
    digits: float       # min over the op's checks of log10(tolerance / residual)


def digits(tol: float, residual: float) -> float:
    if residual == 0.0:
        return EXACT_DIGITS
    if not math.isfinite(residual):
        return -EXACT_DIGITS
    return math.log10(tol / residual)


def sha256_of(entries) -> str:
    text = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def import_program():
    """Import kvgeom from this checkout's src/, and refuse any other copy."""
    if not (SRC / "kvgeom" / "__init__.py").is_file():
        raise SystemExit(f"error: no kvgeom sources under {SRC}; "
                         "run from the root of a kvgeom checkout")
    sys.path.insert(0, str(SRC))
    import kvgeom
    import kvgeom.cli   # the package does not import its CLI module itself
    if Path(kvgeom.__file__).resolve().parent != (SRC / "kvgeom").resolve():
        raise SystemExit(f"error: imported kvgeom from {kvgeom.__file__}, not {SRC}")
    return kvgeom


def measure_setup(workload: str) -> List[float]:
    """setup_s samples, one per fresh interpreter, each timed inside it."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), workload, str(BENCH / "sl3.json")],
            cwd=ROOT, env=dict(os.environ), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(out["module"]).resolve().parent != (SRC / "kvgeom").resolve():
            raise SystemExit(f"error: set-up imported kvgeom from {out['module']}")
        samples.append(out["setup_s"])
    return samples


def run_cli(kv, argv: List[str], tracer, op_name: str):
    """kvgeom.cli.main(argv) in-process; returns (latency, exit code, report)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            (tracer.op(op_name) if tracer else contextlib.nullcontext()):
        t0 = time.perf_counter()
        rc = kv.cli.main(argv)
        latency = time.perf_counter() - t0
    text = out.getvalue()
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    brace = text.find("{")
    report = json.loads(text[brace:]) if brace >= 0 else {}
    return latency, rc, report


def guarded(make_op: Callable[[], Op]) -> Op:
    """An exception, OutsideDomainError included, fails the op, not the run."""
    gc.collect()    # untimed: every op starts from a collected heap
    try:
        return make_op()
    except Exception:
        traceback.print_exc()
        return Op(float("nan"), False, -EXACT_DIGITS)


# ---------------------------------------------------------------------------
# workloads: each is set up once, then yields rounds of ops on demand


class SymSolve:
    """solve-kv at degree 7, joint then eq1-only, each with cold memos.

    The inputs are fixed by the degree; the seed does not change them.
    """
    unit = f"solve-kv --degree {SYM_DEGREE}, joint-eq1-eq2 then eq1-only"
    min_ops = 1
    per_point = False

    def __init__(self, kv, seed: int):
        self.kv = kv
        with open(BENCH / "reference_digests.json") as fh:
            self.reference = json.load(fh)[f"solve-kv --degree {SYM_DEGREE}"]

    def clear_memos(self) -> None:
        """Empty every functools memo of the symbolic layers (bch among them),
        so that each op starts as cold as a fresh CLI invocation does."""
        for mod in (self.kv.freelie, self.kv.cyclic, self.kv.kvsolve):
            for obj in list(vars(mod).values()):
                # one __wrapped__ link at a time: the memo may sit under the
                # tracer's wrapper, and the bare function under the memo
                while obj is not None and not hasattr(obj, "cache_clear"):
                    obj = getattr(obj, "__wrapped__", None)
                if obj is not None and callable(obj.cache_clear):
                    obj.cache_clear()

    def warm_up(self) -> None:
        pass

    def round(self, k: int, tracer) -> List[Op]:
        return [guarded(lambda s=s: self.solve(s, tracer)) for s in SYM_STRATEGIES]

    def solve(self, strategy: str, tracer) -> Op:
        self.clear_memos()
        latency, rc, rep = run_cli(
            self.kv, ["solve-kv", "--degree", SYM_DEGREE, "--strategy", strategy],
            tracer, "op.solve-kv")
        ref = self.reference[strategy]
        ok = (rc == 0 and rep.get("residual1") == "0"
              and sha256_of(rep["A"]) == ref["A"] and sha256_of(rep["B"]) == ref["B"])
        if strategy == "joint-eq1-eq2":
            raw = rep["residual2_report"]["raw"]
            ok = ok and not raw["necklaces"] and raw["scalar"] == "0/1"
        if not ok:
            print(f"check failed: solve-kv {strategy}: exit {rc}, digests or "
                  "residuals differ from the reference", file=sys.stderr)
        return Op(latency, ok, EXACT_DIGITS if ok else -EXACT_DIGITS)


class GeomFlowSo3:
    """flow on so3 through the CLI: one point per op, 40 RK4 steps.

    A round is FLOW_POINTS ops; op j flows the point of CLI seed
    FLOW_POINTS * seed + j, so different seeds never share a point.
    """
    unit = f"{FLOW_POINTS} x flow --algebra so3 --samples 1 --steps 40"
    min_ops = FLOW_POINTS
    per_point = True

    def __init__(self, kv, seed: int):
        self.kv = kv
        self.seeds = [str(FLOW_POINTS * seed + j) for j in range(FLOW_POINTS)]

    def warm_up(self) -> None:
        run_cli(self.kv, ["flow"] + FLOW_WARMUP_ARGS + ["--seed", self.seeds[0]],
                None, "warm-up")

    def round(self, k: int, tracer) -> List[Op]:
        return [guarded(lambda s=s: self.flow(s, tracer)) for s in self.seeds]

    def flow(self, seed: str, tracer) -> Op:
        latency, rc, rep = run_cli(self.kv, ["flow"] + FLOW_ARGS + ["--seed", seed],
                                   tracer, "op.flow")
        phi = rep["transportPhi"]["max"]
        vol = rep["transportVol"]["max"]
        ok = (rc == 0 and rep["pass"] is True
              and phi <= TOL["transportPhi"] and vol <= TOL["transportVol"])
        if not ok:
            print(f"check failed: flow: exit {rc}, transportPhi {phi:.3e}, "
                  f"transportVol {vol:.3e}", file=sys.stderr)
        return Op(latency, ok, min(digits(TOL["transportPhi"], phi),
                                   digits(TOL["transportVol"], vol)))


class GeomPointsSl3:
    """Per-point library calls on the custom sl3 descriptor (dim 8, generic charts).

    The 20 points come from geom.sample_points(alg, 20, seed, 0.3), and every
    round is one pass over them in the same order, so each point is timed
    once per round.  Each op is one point's extract_AB, lambda_det(1),
    kappa_t(1) and phi_t(0.5).
    """
    unit = f"{SL3_ROUND_POINTS} points of extract_AB, lambda_det, kappa_t, phi_t"
    min_ops = SL3_MIN_POINTS
    per_point = True

    def __init__(self, kv, seed: int):
        self.kv = kv
        self.alg = kv.matrixlie.load_algebra(str(BENCH / "sl3.json"))
        self.points = kv.geom.sample_points(self.alg, SL3_ROUND_POINTS, seed, SL3_RADIUS)
        # a point of its own, so that warm-up does not pre-run a timed point
        self.warm_point = kv.geom.sample_points(self.alg, 1, seed + 1, SL3_RADIUS)[0]

    def warm_up(self) -> None:
        self.point(self.warm_point, None)

    def round(self, k: int, tracer) -> List[Op]:
        return [guarded(lambda q=q: self.point(q, tracer)) for q in self.points]

    def point(self, q, tracer) -> Op:
        geom, ml = self.kv.geom, self.kv.matrixlie
        alg = self.alg
        d = alg.dim
        p = ml.PointV(q[:d], q[d:])
        with tracer.op("op.point") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            A, B = geom.extract_AB(alg, p)
            lam = geom.lambda_det(alg, 1.0, p)
            kap = ml.kappa_t(alg, 1.0, p)
            half = ml.phi_t(alg, 0.5, p)
            latency = time.perf_counter() - t0
        # checks, outside the timed span: eq1 from public matrixlie functions
        X, Y = p.X, p.Y
        lhs = ml.phi_t(alg, 1.0, ml.PointV(Y, X)) - X - Y        # log(e^Y e^X) - X - Y
        rhs = (alg.ad(X) @ ml.analytic_ad(alg, ml.fn_dexp, X) @ A             # (1 - e^{-ad_X}) A
               + alg.ad(Y) @ ml.analytic_ad(alg, ml.fn_dexp_right, Y) @ B)    # (e^{ad_Y} - 1) B
        eq1 = float(abs(lhs - rhs).max())
        kl = abs(kap - lam) / abs(kap)
        ok = (eq1 <= TOL["eq1"] and kl <= TOL["kappaVsLambda"]
              and bool(all(map(math.isfinite, half))))
        if not ok:
            print(f"check failed: sl3 point: eq1 {eq1:.3e}, kappa vs lambda {kl:.3e}",
                  file=sys.stderr)
        return Op(latency, ok, min(digits(TOL["eq1"], eq1), digits(TOL["kappaVsLambda"], kl)))


WORKLOADS = {"sym_solve": SymSolve, "geom_flow_so3": GeomFlowSo3,
             "geom_points_sl3": GeomPointsSl3}


def ran(op: Op) -> bool:
    """The op ran to its end (its checks may still have failed it)."""
    return not math.isnan(op.latency_s)


def one_round(wl, k: int, tracer):
    """Round k; its wall is the sum of the latencies of its ops that ran to
    the end, so the checks between ops are not timed."""
    ops = wl.round(k, tracer)
    return ops, sum(op.latency_s for op in ops if ran(op))


def run_rounds(wl, seconds: float):
    """Untraced rounds until `seconds` have passed and `wl.min_ops` ops are
    done; returns the ops of each round and each round's wall."""
    rounds: List[List[Op]] = []
    walls: List[float] = []
    start = time.perf_counter()
    while (not walls or time.perf_counter() - start < seconds
           or sum(map(len, rounds)) < wl.min_ops):
        batch, wall = one_round(wl, len(walls), None)
        rounds.append(batch)
        walls.append(wall)
    return rounds, walls


def p90(values: List[float]) -> float:
    """90th percentile.  On a shared VM the upper percentiles of many short
    samples are steadier than the median (see README.md)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def p75(values: List[float]) -> float:
    """75th percentile; see p90."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def round_at_p75(rounds: List[List[Op]]) -> float:
    """One round with each of its ops at that op's 75th percentile latency.

    Every round repeats the same work in the same order, so op j of every
    round is the same op.  Each op's quantile is taken over the rounds that
    ran it to the end (see README.md for why the 75th percentile).
    """
    total = 0.0
    for same_ops in zip(*rounds):
        lat = [op.latency_s for op in same_ops if ran(op)]
        total += p75(lat) if lat else float("nan")
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def env_line() -> str:
    import numpy as np
    import scipy
    pins = " ".join(f"{k}={v}" for k, v in BLAS_ENV.items())
    return (f"env: python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, BLAS pinned to one thread ({pins})")


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(wl, workload: str, seconds: float) -> dict:
    setup = measure_setup(workload)
    wl.warm_up()
    rounds, walls = run_rounds(wl, seconds)
    ops = [op for batch in rounds for op in batch]
    # per-point latency; without per-point calls the round is the sample
    lat = ([op.latency_s for op in ops if ran(op)] if wl.per_point else walls) or [float("nan")]
    # a fixed set of ops, so that a faster program does not check more points
    checked = ops[:wl.min_ops] if wl.per_point else ops
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "wall_s": (round_at_p75(rounds), "s",
                   f"one round, each op at its own 75th percentile over {len(rounds)} "
                   f"rounds; a round is {wl.unit}"),
        "point_p90_s": (p90(lat), "s", f"n={len(lat)} samples"),
        "peak_rss_mb": (peak_rss_mb(), "MiB", "process high-water mark"),
        "accuracy_digits": (min(op.digits for op in checked), "digits",
                            f"min over the checks of {len(checked)} ops of "
                            "log10(tolerance / worst residual)"),
    }
    lines = [f"point_p50_s = {statistics.median(lat):.6g} s  (n={len(lat)} samples; "
             "printed, not gated, since the median moves with the host's load)"]
    return {"ops": ops, "metrics": metrics, "lines": lines}


PER_LAYER_SPANS = {
    # span name: the aggregates reported for it
    "freelie.bch": ("calls", "self_s"),
    "freelie.lie_bracket": ("calls", "self_s"),
    "freelie.ad_series_apply": ("calls", "self_s"),
    "freelie.assoc_to_lyndon": ("calls", "self_s"),
    "cyclic.delta_derivative": ("calls", "self_s"),
    "cyclic.linear_part_to_assoc": ("calls", "self_s"),
    "cyclic.cyclic_reduce": ("calls", "self_s"),
    "cyclic.kv2_residual": ("calls", "self_s"),
    "kvsolve.eq1_rows": ("self_s",),
    "kvsolve.eq2_rows": ("self_s",),
    "kvsolve.solve_exact": ("self_s",),
    "kvsolve.kv1_residual": ("self_s",),
    "matrixlie.exp_chart": ("calls", "self_s"),
    "matrixlie.log_chart": ("calls", "self_s"),
    "matrixlie.logm": ("calls",),
    "matrixlie.analytic_ad": ("self_s",),
    "matrixlie.kappa_t": ("self_s",),
    "matrixlie.phi_t": ("self_s",),
    "geom.sigma": ("calls", "self_s"),
    "geom.powers": ("self_s",),
    "geom.varpi": ("self_s",),
    "geom.moser_w": ("calls", "self_s"),
    "geom.alpha_gauge": ("calls", "self_s"),
    "geom.extract": ("calls", "self_s"),
    "geom.flow": ("total_s",),
    "geom.divergence": ("total_s",),
    "cli.emit": ("self_s",),
}
PER_LAYER_COUNTS = ("kvsolve.unknowns", "kvsolve.rows", "kvsolve.rank",
                    "matrixlie.exp_chart.matrices", "matrixlie.log_chart.matrices",
                    "geom.sigma.points", "geom.powers.matmuls",
                    "geom.outside_domain", "cli.report_bytes")
# predicted shares of a traced round, checked by the traced run
SHARE_PREDICTIONS = {
    "sym_solve": ("share.cyclic_kvsolve", "self time of cyclic and kvsolve"),
    "geom_flow_so3": ("share.sigma_kernel", "self time of geom.powers and geom.varpi"),
    "geom_points_sl3": ("share.log_chart", "time inside matrixlie.log_chart"),
}


def traced_run(kv, wl, workload: str, seconds: float, seed: int) -> dict:
    """Untraced and traced rounds alternate, so that drift in the machine's
    speed affects both sides of the tracing overhead alike.  Per-layer
    numbers are per traced round."""
    wl.warm_up()
    tracer = Tracer(kv.matrixlie.OutsideDomainError)
    ops: List[Op] = []
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        batch, wall = one_round(wl, 2 * len(plain_walls), None)
        ops += batch
        plain_walls.append(wall)
        tracer.install(kv)
        try:
            batch, wall = one_round(wl, 2 * len(traced_walls) + 1, tracer)
        finally:
            tracer.uninstall()
        ops += batch
        traced_walls.append(wall)
    n = len(traced_walls)
    agg = tracer.aggregate()
    metrics = {}
    for span, kinds in PER_LAYER_SPANS.items():
        for kind in kinds:
            unit = "count" if kind == "calls" else "s"
            metrics[f"{span}.{kind}"] = (agg[span][kind] / n, unit, "")
    for name in PER_LAYER_COUNTS:
        unit = "B" if name == "cli.report_bytes" else "count"
        metrics[name] = (tracer.counts[name] / n, unit, "")
    rows = tracer.counts["kvsolve.rows"]
    metrics["kvsolve.rank_ratio"] = (tracer.counts["kvsolve.rank"] / rows if rows else 0.0,
                                     "ratio", "rank / rows over all solved systems")
    metrics["geom.gauge.min_det"] = (tracer.minima.get("geom.gauge.min_det", 0.0), "det",
                                     "min det(1 + sigma_t P0) seen")
    traced_wall = sum(traced_walls)

    def self_time(prefixes):
        return sum(a["self_s"] for s, a in agg.items() if s.startswith(prefixes))

    shares = {
        "share.cyclic_kvsolve": self_time(("cyclic.", "kvsolve.")),
        "share.sigma_kernel": self_time(("geom.powers", "geom.varpi")),
        "share.log_chart": agg["matrixlie.log_chart"]["total_s"],
    }
    for name, value in shares.items():
        metrics[name] = (value / traced_wall if traced_wall else 0.0, "ratio", "of traced wall")
    overhead = p90(traced_walls) - p90(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s", "traced minus untraced wall_s, per round")

    header = {"workload": workload, "seed": seed, "untraced_rounds": len(plain_walls),
              "traced_rounds": n, "untraced_wall_s": plain_walls, "traced_wall_s": traced_walls,
              "absent": tracer.absent, "env": env_line()}
    trace_path = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
    tracer.write(trace_path, header)

    share_name, what = SHARE_PREDICTIONS[workload]
    share = metrics[share_name][0]
    metrics["share.check_pass"] = (float(share >= 0.5), "bool",
                                   f"1 if {share_name} >= 0.5, as predicted, else 0")
    lines = [f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}",
             f"tracing overhead: {overhead:+.4f} s per round (traced "
             f"{p90(traced_walls):.4f} s over {n} rounds, untraced "
             f"{p90(plain_walls):.4f} s over {len(plain_walls)} rounds)",
             f"share check: {what} = {share:.3f} of the traced round, predicted >= 0.5: "
             f"{'pass' if share >= 0.5 else 'FAIL'}"]
    if tracer.absent:
        lines.append("not in this program, reported as 0: " + ", ".join(tracer.absent))
    return {"ops": ops, "metrics": metrics, "lines": lines}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    kv = import_program()
    print(f"kvgeom benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(env_line())
    wl = WORKLOADS[args.workload](kv, args.seed)
    if args.trace:
        result = traced_run(kv, wl, args.workload, args.seconds, args.seed)
    else:
        result = untraced_run(wl, args.workload, args.seconds)
    ops = result["ops"]
    failed = sum(not op.ok for op in ops)
    print(f"fail_ratio = {failed}/{len(ops)} (failed/attempted ops)")
    for name, (value, unit, note) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for line in result.get("lines", []):
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
