"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line into the terminal summary (see
conftest.record_criterion) and asserts the criterion itself.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from kvgeom import cli
from kvgeom.freelie import bch
from kvgeom.geom import _Engine, sample_points, transport_drift
from kvgeom.kvsolve import kv1_residual, solve_kv
from kvgeom.matrixlie import builtin_algebras, get_algebra, matrix_exp

from conftest import (
    dsigma_dt,
    eval_lie_series_exact,
    exp_nilpotent,
    frac_mul,
    log_unitriangular,
    random_strict_upper,
    record_criterion,
)

TOL_EQ1 = 1e-7
TOL_EQ2 = 1e-5
TOL_KL = 1e-7
TOL_JACOBI = 1e-5
TOL_MOMENT = 1e-5
TOL_PHI = 1e-6
TOL_VOL = 1e-5
TOL_MODULAR = 1e-7
TOL_EQUIV = 1e-6
TOL_HOMOTOPY = 1e-5


@pytest.fixture(scope="module")
def sweeps():
    """Shared 100-point seeded sweeps per algebra (criteria 3, 4, 5, 7, 8)."""
    out = {}
    for alg in builtin_algebras():
        eng = _Engine(alg)
        pts = sample_points(alg, 100, 42, 0.3)
        t0 = time.monotonic()
        eq1 = float(np.max(eng.eq1_residual(pts)))
        eq1_time = time.monotonic() - t0
        out[alg.name] = {"alg": alg, "eng": eng, "pts": pts,
                         "eq1": eq1, "eq1_time": eq1_time}
    return out


def test_criterion_1_exact_bch(capsys):
    t0 = time.monotonic()
    assert cli.main(["bch", "--degree", "8"]) == 0
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    z8 = bch(8, "XY")
    worst_ok = True
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        MX = random_strict_upper(9, rng)
        MY = random_strict_upper(9, rng)
        direct = log_unitriangular(frac_mul(exp_nilpotent(MX), exp_nilpotent(MY)))
        worst_ok = worst_ok and (direct == eval_lie_series_exact(z8, MX, MY))
    ok = worst_ok and elapsed < 60.0
    record_criterion(1, "exact degree-8 Campbell-Hausdorff vs nilpotent matrices",
                     ok, f"cli {elapsed:.1f}s, residual exactly zero: {worst_ok}")
    assert elapsed < 60.0
    assert worst_ok


def test_criterion_2_symbolic_solver():
    t0 = time.monotonic()
    pair = solve_kv(8, "eq1-only")
    elapsed = time.monotonic() - t0
    resid = kv1_residual(pair, 8)
    c_minus_b = pair.B.coefficient("x") - pair.A.coefficient("y")
    ok = resid.is_zero() and c_minus_b == Fraction(1, 2) and elapsed < 120.0
    record_criterion(2, "solve_kv(8) residual exactly zero, c - b = 1/2",
                     ok, f"{elapsed:.1f}s")
    assert elapsed < 120.0
    assert resid.is_zero()
    assert c_minus_b == Fraction(1, 2)


def test_criterion_3_geometric_eq1(sweeps):
    worst = max(s["eq1"] for s in sweeps.values())
    total = sum(s["eq1_time"] for s in sweeps.values())
    ok = worst <= TOL_EQ1 and total < 300.0
    record_criterion(3, "geometric pair solves the first equation on all algebras",
                     ok, f"max residual {worst:.2e}, sweep time {total:.0f}s")
    assert total < 300.0
    assert worst <= TOL_EQ1


def test_criterion_4_geometric_eq2(sweeps):
    worst = 0.0
    for s in sweeps.values():
        worst = max(worst, float(np.max(s["eng"].kv2_residual(s["pts"]))))
    ok = worst <= TOL_EQ2
    record_criterion(4, "trace equation holds for the extracted pair",
                     ok, f"max residual {worst:.2e}")
    assert worst <= TOL_EQ2


def test_criterion_5_volume_identity(sweeps):
    worst = 0.0
    for s in sweeps.values():
        for t in (0.25, 0.5, 1.0):
            k = s["eng"].kappa(t, s["pts"])
            l = s["eng"].lam(t, s["pts"])
            worst = max(worst, float(np.max(np.abs(k - l) / np.abs(k))))
    ok = worst <= TOL_KL
    record_criterion(5, "kappa_t equals det^(1/2)(1 + sigma_t P0)",
                     ok, f"max relative error {worst:.2e}")
    assert worst <= TOL_KL


@pytest.fixture(scope="module")
def transport():
    """Worst Phi_t and volume drift of the so3 flow sweep (20 points x 200 steps).

    The drifts by a per-step loop over the flow, and by the library's
    stacked transport_drift reading the same flow.
    """
    so3 = get_algebra("so3")
    eng = _Engine(so3)
    pts = sample_points(so3, 20, 42, 0.3)
    flow = eng.flow(pts, 200)
    ts, traj, dens = flow
    phi0 = eng.phi_t_map(0.0, pts)
    phi_drift = 0.0
    vol_drift = 0.0
    for k, t in enumerate(ts):
        phi_drift = max(phi_drift,
                        float(np.max(np.abs(eng.phi_t_map(float(t), traj[k]) - phi0))))
        if t > 0:
            lk = np.log(eng.kappa(float(t), traj[k]))
            vol_drift = max(vol_drift, float(np.max(np.abs(lk - dens[k]))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Engine, "flow", lambda self, P, steps: flow)
        stacked = transport_drift(so3, pts, 200)
    return phi_drift, vol_drift, stacked


def test_criterion_6_transport(transport):
    phi_drift, vol_drift, _ = transport
    ok = phi_drift <= TOL_PHI and vol_drift <= TOL_VOL
    record_criterion(6, "Moser flow transports the moment map and the volume",
                     ok, f"phi drift {phi_drift:.2e}, volume drift {vol_drift:.2e}")
    assert phi_drift <= TOL_PHI
    assert vol_drift <= TOL_VOL


def test_transport_volume_drift_near_rounding(transport):
    # the divergence's central differences resolve the transported density
    # to well below the criterion's tolerance
    assert transport[1] <= 1e-12


def test_stacked_transport_drift_matches_per_step_loop(transport):
    # Phi_1(t p) / t is Phi_t(p) to the bit; kappa_1(t p) and kappa_t(p)
    # differ only in the rounding of t Phi_t
    phi_drift, vol_drift, (phi_stacked, vol_stacked) = transport
    assert phi_stacked == phi_drift
    assert abs(vol_stacked - vol_drift) <= 1e-15


def test_criterion_7_poisson_sanity(sweeps):
    rng = np.random.default_rng(43)
    worst_jac = 0.0
    worst_mom = 0.0
    worst_mod = 0.0
    for s in sweeps.values():
        alg, eng = s["alg"], s["eng"]
        sub = s["pts"][:20]
        xis = 0.5 * rng.standard_normal((5, alg.dim))
        for t in (0.25, 0.5, 1.0):
            worst_jac = max(worst_jac, float(np.max(eng.schouten_max(t, sub))))
            worst_mom = max(worst_mom, eng.moment_residual(t, sub, xis))
        from kvgeom.geom import modular_field
        from kvgeom.matrixlie import PointV
        for q in sub[:5]:
            w = modular_field(lambda v: eng.p0(v), PointV.from_array(q, alg.dim))
            worst_mod = max(worst_mod, float(np.max(np.abs(w))))
    ok = (worst_jac <= TOL_JACOBI and worst_mom <= TOL_MOMENT
          and worst_mod <= TOL_MODULAR)
    record_criterion(
        7, "Jacobi, moment map, and modular-field residuals", ok,
        f"jacobi {worst_jac:.2e}, moment {worst_mom:.2e}, modular {worst_mod:.2e}")
    assert worst_jac <= TOL_JACOBI
    assert worst_mom <= TOL_MOMENT
    assert worst_mod <= TOL_MODULAR


def test_moment_map_near_rounding(sweeps):
    # dPhi_t in closed form leaves the moment-map residual at rounding level
    rng = np.random.default_rng(44)
    for s in sweeps.values():
        xis = 0.5 * rng.standard_normal((5, s["alg"].dim))
        for t in (0.25, 0.5, 1.0):
            assert s["eng"].moment_residual(t, s["pts"][:20], xis) <= 1e-13


def test_criterion_8_equivariance(sweeps):
    rng = np.random.default_rng(57)
    worst = 0.0
    for s in sweeps.values():
        alg, eng = s["alg"], s["eng"]
        d = alg.dim
        sub = s["pts"][:20]
        A0, B0 = eng.extract(sub)
        for _ in range(5):
            W = 0.3 * rng.standard_normal(d)
            Adg = matrix_exp(alg.ad(W))
            conj = np.concatenate([sub[:, :d] @ Adg.T, sub[:, d:] @ Adg.T], axis=1)
            A1, B1 = eng.extract(conj)
            worst = max(worst,
                        float(np.max(np.abs(A1 - A0 @ Adg.T))),
                        float(np.max(np.abs(B1 - B0 @ Adg.T))))
    ok = worst <= TOL_EQUIV
    record_criterion(8, "extracted pair is Ad-equivariant", ok,
                     f"max deviation {worst:.2e}")
    assert worst <= TOL_EQUIV


def test_criterion_9_homotopy_identities():
    from kvgeom.geom import cartan_eta

    worst_dvarpi = 0.0
    worst_dalpha = 0.0
    h = 1e-4
    for alg in builtin_algebras():
        eng = _Engine(alg)
        d = alg.dim
        rng = np.random.default_rng(61)
        Ws = 0.25 * rng.standard_normal((20, d))

        # d varpi = exp^* eta (3-form part), batched FD per coordinate triple
        triples = [(i, j, k) for i in range(d) for j in range(i + 1, d)
                   for k in range(j + 1, d)]
        e = np.eye(d)
        for (i, j, k) in triples:
            stack = np.concatenate([Ws + h * e[i], Ws - h * e[i],
                                    Ws + h * e[j], Ws - h * e[j],
                                    Ws + h * e[k], Ws - h * e[k]])
            vp = eng.varpi(stack).reshape(6, len(Ws), d, d)
            dw = ((vp[0, :, j, k] - vp[1, :, j, k])
                  - (vp[2, :, i, k] - vp[3, :, i, k])
                  + (vp[4, :, i, j] - vp[5, :, i, j])) / (2 * h)
            eta = np.array([cartan_eta(alg, W, (e[i], e[j], e[k]), np.zeros(d))
                            for W in Ws])
            worst_dvarpi = max(worst_dvarpi, float(np.max(np.abs(dw - eta))))

        # d alpha_t = d sigma_t / dt at t = 0.6, batched FD per pair
        pts = sample_points(alg, 20, 62, 0.25)
        t = 0.6
        Bmat = dsigma_dt(eng, t, pts)
        n2 = 2 * d
        e2 = np.eye(n2)
        for i in range(n2):
            for j in range(i + 1, n2):
                stack = np.concatenate([pts + h * e2[i], pts - h * e2[i],
                                        pts + h * e2[j], pts - h * e2[j]])
                av = eng.alpha(t, stack).reshape(4, len(pts), n2)
                da = ((av[0, :, j] - av[1, :, j])
                      - (av[2, :, i] - av[3, :, i])) / (2 * h)
                worst_dalpha = max(worst_dalpha,
                                   float(np.max(np.abs(da - Bmat[:, i, j]))))

    # Richardson: the FD residual of the d-alpha check is second order
    so3 = get_algebra("so3")
    eng = _Engine(so3)
    q = sample_points(so3, 1, 63, 0.25)[0]

    def dalpha_residual(hh):
        Bm = dsigma_dt(eng, 0.6, q[None])[0]
        i, j = 0, 4
        e2 = np.eye(6)
        stack = np.stack([q + hh * e2[i], q - hh * e2[i],
                          q + hh * e2[j], q - hh * e2[j]])
        av = eng.alpha(0.6, stack)
        da = ((av[0, j] - av[1, j]) - (av[2, i] - av[3, i])) / (2 * hh)
        return abs(da - Bm[i, j])

    r1, r2 = dalpha_residual(2e-2), dalpha_residual(1e-2)
    ratio = r1 / r2
    richardson_ok = 2.5 <= ratio <= 6.5
    ok = (worst_dvarpi <= TOL_HOMOTOPY and worst_dalpha <= TOL_HOMOTOPY
          and richardson_ok)
    record_criterion(
        9, "homotopy identities with order-2 convergence", ok,
        f"d-varpi {worst_dvarpi:.2e}, d-alpha {worst_dalpha:.2e}, "
        f"Richardson ratio {ratio:.1f}")
    assert worst_dvarpi <= TOL_HOMOTOPY
    assert worst_dalpha <= TOL_HOMOTOPY
    assert richardson_ok
