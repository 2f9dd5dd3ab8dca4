"""Command-line front end: symbolic solves, numeric sweeps, flow experiments.

Subcommands: bch, solve-kv, check-kv1, check-kv2, geom-run, flow.
Every command emits a JSON report (stdout, and to --out when given); the
human-readable lines are renderings of the same data.  Exit codes: 0 when
all checks pass, 1 on a tolerance/zero-residual failure (report is still
written), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, List, Optional

from . import cyclic, freelie, geom, kvsolve
from .freelie import format_fraction
from .matrixlie import OutsideDomainError, builtin_algebras, get_algebra, load_algebra

MAX_DEGREE = 10
CACHE_ENV = "KVGEOM_CACHE_DIR"


@dataclass
class RunConfig:
    command: str
    degree: int = 8
    order: str = "XY"
    strategy: str = "eq1-only"
    algebra: str = "so3"
    samples: int = 100
    seed: int = 42
    radius: float = 0.3
    steps: int = 200
    out: Optional[str] = None
    cache: Optional[str] = None
    algebra_file: Optional[str] = None
    tolerances: Optional[Dict[str, float]] = None

    def __post_init__(self):
        if not 1 <= self.degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE} "
                             "(coefficient growth beyond that is impractical)")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.algebra == "all" and self.algebra_file:
            raise ValueError("--algebra all cannot be combined with --algebra-file")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out:
        d = os.path.dirname(os.path.abspath(out))
        os.makedirs(d, exist_ok=True)
        with open(out, "w") as fh:
            fh.write(text)


def _series_entries(series: freelie.LieSeries) -> List[dict]:
    return [{"word": w, "c": format_fraction(c)} for w, c in series.items()]


def _resolve_algebra(cfg: RunConfig):
    if cfg.algebra_file:
        return load_algebra(cfg.algebra_file)
    return get_algebra(cfg.algebra)


# ---------------------------------------------------------------------------
# subcommand implementations

def cmd_bch(cfg: RunConfig) -> int:
    cache = cfg.cache or os.environ.get(CACHE_ENV)
    if cache:
        series = freelie.bch_cached(cfg.degree, cfg.order, cache)
    else:
        series = freelie.bch(cfg.degree, cfg.order)
    for w, c in series.items():
        print(f"{w}: {format_fraction(c)}")
    report = {
        "command": "bch",
        "degree": cfg.degree,
        "order": cfg.order,
        "coeffs": _series_entries(series),
        "timestamp": _timestamp(),
    }
    _emit(report, cfg.out)
    return 0


def _residual1(cfg: RunConfig, pair: kvsolve.KVPair) -> freelie.LieSeries:
    # through degree + 1: the top parts A_N, B_N first enter there
    return kvsolve.kv1_residual(pair, cfg.degree + 1)


def _residual2_report(cfg: RunConfig, pair: kvsolve.KVPair):
    """The trace residual and its report entry (raw and folded by reversal)."""
    resid2 = cyclic.kv2_residual(pair.A, pair.B, cfg.degree)
    return resid2, {"raw": resid2.to_json_dict(),
                    "mod_reversal": cyclic.fold_reversal(resid2).to_json_dict()}


def cmd_solve_kv(cfg: RunConfig) -> int:
    try:
        pair = kvsolve.solve_kv(cfg.degree, cfg.strategy)
    except kvsolve.InfeasibleDegreeError as exc:
        _emit({"command": "solve-kv", "degree": cfg.degree, "strategy": cfg.strategy,
               "error": str(exc), "timestamp": _timestamp()}, cfg.out)
        return 1
    resid1 = _residual1(cfg, pair)
    _, resid2_report = _residual2_report(cfg, pair)
    report = {
        "command": "solve-kv",
        "degree": cfg.degree,
        "strategy": cfg.strategy,
        "A": _series_entries(pair.A),
        "B": _series_entries(pair.B),
        "residual1": "0" if resid1.is_zero() else str(resid1),
        "residual2_report": resid2_report,
        "timestamp": _timestamp(),
    }
    _emit(report, cfg.out)
    return 0 if resid1.is_zero() else 1


def cmd_check_kv1(cfg: RunConfig) -> int:
    resid1 = _residual1(cfg, kvsolve.solve_kv(cfg.degree, cfg.strategy))
    ok = resid1.is_zero()
    print(f"kv1 residual (degree {cfg.degree}, {cfg.strategy}): "
          f"{'0' if ok else 'NONZERO'}")
    _emit({"command": "check-kv1", "degree": cfg.degree, "strategy": cfg.strategy,
           "residual1": "0" if ok else str(resid1), "pass": ok,
           "timestamp": _timestamp()}, cfg.out)
    return 0 if ok else 1


def cmd_check_kv2(cfg: RunConfig) -> int:
    try:
        pair = kvsolve.solve_kv(cfg.degree, cfg.strategy)
    except kvsolve.InfeasibleDegreeError as exc:
        _emit({"command": "check-kv2", "degree": cfg.degree, "strategy": cfg.strategy,
               "error": str(exc), "timestamp": _timestamp()}, cfg.out)
        return 1
    resid2, resid2_report = _residual2_report(cfg, pair)
    ok = resid2.is_zero()
    print(f"kv2 necklace residual (degree {cfg.degree}, {cfg.strategy}): "
          f"{'0' if ok else 'nonzero, see report'}")
    _emit({"command": "check-kv2", "degree": cfg.degree, "strategy": cfg.strategy,
           "residual2_report": resid2_report,
           "pass": ok, "timestamp": _timestamp()}, cfg.out)
    return 0 if ok else 1


def cmd_geom_run(cfg: RunConfig) -> int:
    algs = builtin_algebras() if cfg.algebra == "all" else [_resolve_algebra(cfg)]
    reports = []
    for alg in algs:
        rep = geom.run_geometry_suite(
            alg, n_samples=cfg.samples, seed=cfg.seed, radius=cfg.radius,
            steps=cfg.steps, tolerances=cfg.tolerances)
        reports.append(rep)
        res = rep["residuals"]
        print(f"[{alg.name}] eq1.max={res['eq1']['max']:.3e} "
              f"eq2.max={res['eq2']['max']:.3e} "
              f"kappaVsLambda.max={res['kappaVsLambda']['max']:.3e} "
              f"pass={rep['pass']}")
    all_pass = all(rep["pass"] for rep in reports)
    report = reports[0] if len(reports) == 1 else {"reports": reports, "pass": all_pass}
    report["timestamp"] = _timestamp()
    _emit(report, cfg.out)
    return 0 if all_pass else 1


def cmd_flow(cfg: RunConfig) -> int:
    alg = _resolve_algebra(cfg)
    tol = dict(geom.DEFAULT_TOLERANCES)
    if cfg.tolerances:
        tol.update(cfg.tolerances)
    P = geom.sample_points(alg, cfg.samples, cfg.seed, cfg.radius)
    phi_drift, vol_drift = geom.transport_drift(alg, P, cfg.steps,
                                                keep_every=max(2, cfg.steps // 10))
    ok = phi_drift <= tol["transportPhi"] and vol_drift <= tol["transportVol"]
    print(f"[{alg.name}] flow steps={cfg.steps} points={cfg.samples} "
          f"maxPhiDrift={phi_drift:.3e} maxVolDrift={vol_drift:.3e} pass={ok}")
    _emit({"command": "flow", "algebra": alg.name, "steps": cfg.steps,
           "samples": cfg.samples, "seed": cfg.seed, "radius": cfg.radius,
           "transportPhi": {"max": phi_drift}, "transportVol": {"max": vol_drift},
           "tolerances": {"transportPhi": tol["transportPhi"],
                          "transportVol": tol["transportVol"]},
           "pass": ok, "timestamp": _timestamp()}, cfg.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing

_TOL_FLAGS = {
    "tol_eq1": "eq1",
    "tol_eq2": "eq2",
    "tol_kappa_lambda": "kappaVsLambda",
    "tol_jacobi": "jacobi",
    "tol_moment": "momentMap",
    "tol_transport_phi": "transportPhi",
    "tol_transport_vol": "transportVol",
}


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON report to this path")


def _add_numeric(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algebra", default="so3",
                   help="so3 | sl2 | gl2 | all (default so3)")
    p.add_argument("--algebra-file", help="JSON descriptor of a custom algebra")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--radius", type=float, default=0.3)
    p.add_argument("--steps", type=int, default=200)
    for flag in _TOL_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kvgeom",
        description="Kashiwara-Vergne equations: exact symbolic solver and "
                    "Poisson-geometric verification on quadratic Lie algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bch", help="Campbell-Hausdorff coefficients in the Lyndon basis")
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--order", choices=("XY", "YX"), default="XY")
    p.add_argument("--cache", help=f"BCH cache directory (or set ${CACHE_ENV})")
    _add_out(p)

    for name in ("solve-kv", "check-kv1", "check-kv2"):
        p = sub.add_parser(name)
        p.add_argument("--degree", type=int, default=8)
        p.add_argument("--strategy", choices=("eq1-only", "joint-eq1-eq2"),
                       default="eq1-only")
        _add_out(p)

    p = sub.add_parser("geom-run", help="numeric verification sweep")
    _add_numeric(p)
    _add_out(p)

    p = sub.add_parser("flow", help="Moser flow transport experiment")
    _add_numeric(p)
    _add_out(p)

    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    tolerances = {}
    for flag, key in _TOL_FLAGS.items():
        v = getattr(args, flag, None)
        if v is not None:
            tolerances[key] = v
    return RunConfig(
        command=args.command,
        degree=getattr(args, "degree", 8),
        order=getattr(args, "order", "XY"),
        strategy=getattr(args, "strategy", "eq1-only"),
        algebra=getattr(args, "algebra", "so3"),
        algebra_file=getattr(args, "algebra_file", None),
        samples=getattr(args, "samples", 100),
        seed=getattr(args, "seed", 42),
        radius=getattr(args, "radius", 0.3),
        steps=getattr(args, "steps", 200),
        out=getattr(args, "out", None),
        cache=getattr(args, "cache", None),
        tolerances=tolerances or None,
    )


_DISPATCH = {
    "bch": cmd_bch,
    "solve-kv": cmd_solve_kv,
    "check-kv1": cmd_check_kv1,
    "check-kv2": cmd_check_kv2,
    "geom-run": cmd_geom_run,
    "flow": cmd_flow,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[cfg.command](cfg)
    except OutsideDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
