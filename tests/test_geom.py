import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvgeom import geom, matrixlie
from kvgeom.freelie import (
    exp_minus_one_over_s,
    exp_neg,
    g_coefficients,
    one_minus_exp_neg_over_s,
    sinh_minus_s_over_s2,
)
from kvgeom.geom import (
    _AB6,
    _AM6,
    _G7_W,
    _K15_S,
    _K15_W,
    _Engine,
    _block_diag,
    _central_differences,
    _cumulative_simpson,
    _equivariant_trace,
    _orbit_map,
    alpha,
    cartan_eta,
    extract_AB,
    flow_integrate,
    gauge_P,
    kirillov_P0,
    kv2_numeric_residual,
    lambda_det,
    modular_field,
    moser_v,
    run_geometry_suite,
    sample_points,
    sigma,
    transport_drift,
    varpi,
)
from kvgeom.matrixlie import (
    OutsideDomainError,
    PointV,
    _entry_max,
    _gl_nodes,
    _series_plan,
    _series_tail,
    ad_series,
    analytic_ad,
    fn_dexp,
    fn_dexp_right,
    fn_todd,
    load_algebra,
    matrix_exp,
    phi_t,
)

from conftest import (
    adams_weights,
    dsigma_dt,
    full_stencil_trace,
    oracle_flow,
    oracle_rk4_flow,
    oracle_varpi,
    reduction_table,
)
from test_matrixlie import oracle_analytic_ad

ORIGIN3 = PointV(np.zeros(3), np.zeros(3))
SAMPLE3 = PointV(np.array([0.2, -0.1, 0.15]), np.array([-0.05, 0.22, 0.1]))


@pytest.fixture(scope="module")
def points(all_algebras):
    return {alg.name: sample_points(alg, 12, 42, 0.3) for alg in all_algebras}


class TestKirillov:
    def test_zero_at_origin(self, so3):
        assert np.max(np.abs(kirillov_P0(so3, ORIGIN3))) == 0.0

    def test_rank_two_block_on_orbit(self, so3):
        p = PointV(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        M = kirillov_P0(so3, p)
        assert np.linalg.matrix_rank(M[:3, :3], tol=1e-10) == 2
        assert np.max(np.abs(M[3:, 3:])) == 0.0

    def test_antisymmetric_exactly(self, all_algebras, points):
        for alg in all_algebras:
            eng = _Engine(alg)
            P0 = eng.p0(points[alg.name])
            assert np.max(np.abs(P0 + np.transpose(P0, (0, 2, 1)))) == 0.0

    def test_linear_in_point(self, so3):
        p = SAMPLE3
        M1 = kirillov_P0(so3, p)
        M2 = kirillov_P0(so3, PointV(2 * p.X, 2 * p.Y))
        assert np.allclose(M2, 2 * M1)


class TestModularField:
    def _field(self, alg):
        eng = _Engine(alg)
        return lambda q: eng.p0(q)

    def test_quadratic_algebras_vanish(self, all_algebras):
        for alg in all_algebras:
            p = PointV(0.2 * np.ones(alg.dim) / alg.dim, -0.1 * np.ones(alg.dim))
            w = modular_field(self._field(alg), p)
            assert np.max(np.abs(w)) <= 1e-7

    def test_abelian_exactly_zero(self):
        alg = load_algebra({
            "name": "abelian2",
            "basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "form": "trace",
            "domain_radius": 1.0})
        p = PointV(np.array([0.3, 0.1]), np.array([-0.2, 0.4]))
        w = modular_field(self._field(alg), p)
        assert np.max(np.abs(w)) == 0.0

    def test_gl2_sample(self, gl2):
        p = PointV(np.array([0.1, -0.2, 0.05, 0.15]), np.array([0.2, 0.0, -0.1, 0.1]))
        w = modular_field(self._field(gl2), p)
        assert np.max(np.abs(w)) <= 1e-7


class TestCartanEta:
    def test_repeated_vector_vanishes(self, so3):
        X = np.array([0.2, -0.3, 0.1])
        u = np.array([1.0, 0.5, -0.2])
        v = np.array([0.3, 0.0, 0.7])
        assert cartan_eta(so3, X, (u, u, v), np.zeros(3)) == pytest.approx(0.0, abs=1e-15)

    def test_equivariant_part_zero_parameter(self, so3):
        val = cartan_eta(so3, np.zeros(3), (np.array([1.0, 2.0, 3.0]),), np.zeros(3))
        assert val == 0.0

    def test_against_group_side_finite_differences(self, so3):
        # independent pullback: differentiate exp numerically, move to the
        # identity with the group inverse, and pair with the matrix form
        X = np.array([0.12, -0.08, 0.1])
        vecs = [np.array([1.0, 0.2, -0.1]), np.array([-0.3, 0.5, 0.2]),
                np.array([0.1, -0.2, 0.9])]
        h = 1e-5

        def theta_L(u):
            g = matrix_exp(so3.to_matrix(X))
            dexp = (matrix_exp(so3.to_matrix(X + h * u))
                    - matrix_exp(so3.to_matrix(X - h * u))) / (2 * h)
            return so3.from_matrix(np.linalg.solve(g, dexp), closure_tol=1e-5)

        tl = [theta_L(u) for u in vecs]
        expected = -0.5 * float(so3.pairing(tl[0], so3.bracket(tl[1], tl[2])))
        got = cartan_eta(so3, X, vecs, np.zeros(3))
        assert got == pytest.approx(expected, abs=1e-8)


def _adaptive_gl(f, a, b, tol, depth=8):
    """16/32-node Gauss-Legendre pair, bisected until |I32 - I16| <= tol."""
    (xs16, ws16), (xs32, ws32) = ((a + (b - a) * x, (b - a) * w)
                                  for x, w in (_gl_nodes(16), _gl_nodes(32)))
    i16 = float(np.dot(ws16, f(xs16)))
    i32 = float(np.dot(ws32, f(xs32)))
    err = abs(i32 - i16)
    if err <= tol or depth == 0:
        return i32, err
    m = 0.5 * (a + b)
    l, el = _adaptive_gl(f, a, m, tol / 2, depth - 1)
    r, er = _adaptive_gl(f, m, b, tol / 2, depth - 1)
    return l + r, el + er


class TestVarpi:
    def test_two_form_vanishes_at_origin(self, so3):
        v = varpi(so3, np.zeros(3), (np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
                  np.zeros(3))
        assert v == pytest.approx(0.0, abs=1e-14)

    def test_moment_part_is_minus_pairing(self, so3):
        Y = np.array([0.2, -0.1, 0.4])
        xi = np.array([0.3, 0.7, -0.2])
        assert varpi(so3, Y, (), xi) == pytest.approx(-float(so3.pairing(Y, xi)))

    def test_adaptive_quadrature_matches_engine(self, all_algebras, sl3):
        # the public 2-form (the engine's closed form) against an adaptive
        # quadrature of t^2 eta3(tY; Y, v1, v2)
        cases = [(alg, sample_points(alg, 1, 17, alg.domain_radius)[0, :alg.dim])
                 for alg in [*all_algebras, sl3]]
        cases.append((all_algebras[0], np.array([0.3, -0.2, 0.5])))
        for alg, Y in cases:
            d = alg.dim
            for i in range(d):
                for j in range(i + 1, d):
                    v1, v2 = np.eye(d)[i], np.eye(d)[j]

                    def integrand(ts):
                        return np.array([t * t * cartan_eta(alg, t * Y, (Y, v1, v2),
                                                            np.zeros(d)) for t in ts])

                    val, est = _adaptive_gl(integrand, 0.0, 1.0, 1e-10)
                    assert est <= 1e-10
                    v = varpi(alg, Y, (v1, v2), np.zeros(d))
                    assert v == pytest.approx(val, abs=1e-12)

    def test_matches_double_sum_oracle(self, all_algebras, sl3, so4, oscillator):
        # Q phi(ad_W), phi(s) = (sinh s - s)/s^2, against the term-by-term
        # integral of the L series, on the sphere of the domain radius
        rng = np.random.default_rng(29)
        for alg in [*all_algebras, sl3, so4, oscillator]:
            u = rng.standard_normal((30, alg.dim))
            W = alg.domain_radius * u / np.linalg.norm(u, axis=1, keepdims=True)
            got = _Engine(alg).varpi(W)
            ref = oracle_varpi(alg, W)
            scale = 1.0 + np.max(np.abs(ref), axis=(1, 2))
            assert np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= 1e-15 * scale)

    def test_adaptive_quadrature_error_reporting(self):
        # a rough integrand defeats the subdivision and the achieved
        # estimate is reported
        rng = np.random.default_rng(0)
        val, est = _adaptive_gl(lambda xs: rng.standard_normal(xs.shape),
                                0.0, 1.0, tol=1e-12, depth=2)
        assert est > 1e-12

    def test_homotopy_identity_three_form(self, all_algebras):
        # d varpi = exp^* eta at sample points, FD exterior derivative
        rng = np.random.default_rng(3)
        h = 1e-4
        for alg in all_algebras:
            eng = _Engine(alg)
            d = alg.dim
            for _ in range(3):
                W = 0.25 * rng.standard_normal(d)
                worst = 0.0
                for i in range(d):
                    for j in range(i + 1, d):
                        for k in range(j + 1, d):
                            def w_at(V, a, b):
                                return eng.varpi(V[None])[0][a, b]
                            e = np.eye(d)
                            dw = ((w_at(W + h * e[i], j, k) - w_at(W - h * e[i], j, k))
                                  - (w_at(W + h * e[j], i, k) - w_at(W - h * e[j], i, k))
                                  + (w_at(W + h * e[k], i, j) - w_at(W - h * e[k], i, j))
                                  ) / (2 * h)
                            eta = cartan_eta(alg, W, (e[i], e[j], e[k]), np.zeros(d))
                            worst = max(worst, abs(dw - eta))
                assert worst <= 1e-6

    def test_homotopy_identity_one_form(self, all_algebras):
        # equivariant 1-form part: d(moment) - iota_{xi_M} varpi = eta_1
        rng = np.random.default_rng(4)
        for alg in all_algebras:
            eng = _Engine(alg)
            d = alg.dim
            W = 0.25 * rng.standard_normal(d)
            xi = rng.standard_normal(d)
            vm = eng.varpi(W[None])[0]
            xiM = -alg.bracket(xi, W)
            for v in np.eye(d):
                lhs = -float(alg.pairing(v, xi)) - float(v @ vm @ xiM)
                rhs = cartan_eta(alg, W, (v,), xi)
                assert lhs == pytest.approx(rhs, abs=1e-11)


def _power_sum(coeffs, A):
    """sum_k coeffs[k] A^k term by term, on a stack of matrices."""
    out = np.zeros_like(A)
    P = np.broadcast_to(np.eye(A.shape[-1]), A.shape).copy()
    for c in coeffs:
        out += c * P
        P = P @ A
    return out


class TestSeriesKernel:
    COEFFS = np.concatenate([fn_dexp, fn_dexp_right, fn_todd])[:, :40]
    # psi, the characteristic polynomial in ad_W^2, of degree 1 (so3, sl2),
    # 2 (gl2, oscillator), 3 (so4) and 4 (sl3)
    ALGEBRAS = ("so3", "sl2", "gl2", "oscillator", "so4", "sl3")

    def test_matches_power_sum(self, request):
        for alg in map(request.getfixturevalue, self.ALGEBRAS):
            P = sample_points(alg, 16, 61, alg.domain_radius)
            A = alg.ad(np.concatenate([P[:, :alg.dim], P[:, alg.dim:],
                                       P[:, :alg.dim] + P[:, alg.dim:]]))
            F = ad_series(A, self.COEFFS)[0]
            for s, c in enumerate(self.COEFFS):
                ref = _power_sum(c, A)
                assert np.max(np.abs(F[:, s] - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_powers_and_table(self, request):
        # A^k = sum_j r[k, j] A^j for every k, in the returned power basis,
        # with r[k, j] = 0 where j and k differ in parity
        for alg in map(request.getfixturevalue, self.ALGEBRAS):
            d = alg.dim
            A = alg.ad(sample_points(alg, 4, 67, alg.domain_radius)[:, :d])
            _, pw, rho = ad_series(A, self.COEFFS)
            r = reduction_table(rho, self.COEFFS.shape[1], d)
            parity = np.add.outer(np.arange(r.shape[0]), np.arange(d)) % 2 == 1
            assert not np.any(r[parity])
            Ak = np.broadcast_to(np.eye(d), A.shape).copy()
            for k in range(self.COEFFS.shape[1]):
                if k < d:
                    assert np.array_equal(pw[:, k], Ak)
                recon = np.einsum('jn,njuv->nuv', r[k], pw)
                assert np.max(np.abs(recon - Ak)) <= 1e-15 * (1.0 + np.max(np.abs(Ak))), \
                    (alg.name, k)
                Ak = Ak @ A

    def test_peak_memory_at_divergence_stack(self, so3):
        # a 13-point so3 stack, the divergence call of the flow before it
        # differenced only across the orbits (7 points now): 16 sigma samples
        # each, 3 ad matrices per sample.  With a zero-filled (K, d, N)
        # reduction table the call peaked at about 1.25 MiB; from rho, and
        # with the tail gate settled without a copy of the values, about 0.68
        A = so3.ad(0.1 * np.random.default_rng(3).standard_normal((624, 3)))
        ad_series(A, geom._SIGMA_ROWS)
        tracemalloc.start()
        try:
            ad_series(A, geom._SIGMA_ROWS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_refuses_stack_not_skew(self, so3):
        # diag(1, 2, 3) has tr A = 6: no invariant form makes it skew, and its
        # odd characteristic coefficients would be dropped, so it is refused
        # rather than reduced wrongly; one such matrix refuses the stack
        A = np.stack([so3.ad(np.array([0.1, 0.2, 0.3])), np.diag([1.0, 2.0, 3.0])])
        with pytest.raises(ValueError, match="odd power sum"):
            ad_series(A, self.COEFFS)
        # tr A = 0 but tr A^3 = -6, eigenvalues 1, 1, -2
        with pytest.raises(ValueError, match="odd power sum"):
            ad_series(np.diag([1.0, 1.0, -2.0])[None], self.COEFFS)

    def test_engine_coefficients_match_float_formula(self):
        # every float row is float() of its exact table, bit for bit, at the
        # engine's truncations (22 terms for sigma's L, R, e^{-s} and phi, 48
        # for analytic_ad's rows) and zero-padded with +0.0
        def floats(table, width):
            return np.array([float(c) for c in table] + [0.0] * (width - len(table)))

        pins = [
            (geom._SIGMA_ROWS, [one_minus_exp_neg_over_s(21), exp_minus_one_over_s(21),
                                exp_neg(21), sinh_minus_s_over_s2(20)]),
            (np.concatenate([fn_dexp, fn_dexp_right, fn_todd]),
             [one_minus_exp_neg_over_s(47), exp_minus_one_over_s(47), g_coefficients(47)]),
        ]
        for rows, tables in pins:
            assert rows.shape == (len(tables), max(map(len, tables)))
            for row, table in zip(rows, tables):
                assert row.tobytes() == floats(table, len(row)).tobytes()
        # they first differ from the float formula (-1)^k / (k+1)! at k = 22
        # (1/23! is not a double), past the engine's 22 terms
        L, R = geom._SIGMA_ROWS[:2, :22]
        assert L.tolist() == [(-1.0) ** k / math.factorial(k + 1) for k in range(22)]
        assert R.tolist() == [1.0 / math.factorial(k + 1) for k in range(22)]
        assert geom._SIGMA_ROWS.shape == (4, 22)

    def test_nilpotent_ad_is_exact(self, sl2):
        # ad_e is defective (a single Jordan block); its characteristic
        # polynomial is s^3 exactly, so the reduction is exact
        A = sl2.ad(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -0.7]]))
        F = ad_series(A, self.COEFFS)[0]
        for s, c in enumerate(self.COEFFS):
            assert np.array_equal(F[:, s], _power_sum(c, A))

    def test_tail_gate_wide_descriptor(self, sl2):
        # the sl2 basis with a domain radius past the series' reach: the
        # fixed truncations lose digits silently unless the tail is gated
        wide = load_algebra({"name": "sl2wide", "basis": sl2.basis,
                             "form": "trace", "domain_radius": 1.3})
        eng = _Engine(wide)
        P = sample_points(wide, 40, 42, 1.3)
        with pytest.raises(OutsideDomainError, match="series tail"):
            eng.eq1_residual(P)
        with pytest.raises(OutsideDomainError, match="series tail"):
            eng.sigma(P)
        # kappa takes the 48-term table, which still converges there (its
        # own gate stands): it matches the eigendecomposition oracle
        d = wide.dim
        X, Y = P[:, :d], P[:, d:]
        Z = phi_t(wide, 1.0, PointV(X, Y))
        J = [np.array([np.linalg.det(oracle_analytic_ad(wide, fn_dexp, w)) for w in W])
             for W in (X, Y, Z)]
        ref = np.sqrt(J[0] * J[1] / J[2])
        assert np.max(np.abs(eng.kappa(1.0, P) - ref) / np.abs(ref)) <= 1e-12

    def test_sigma_tail_gate_edge_pinned(self, so3):
        # the largest a on the commuting so3 ray X = Y = (0, 0, a), |Z| = 2 a,
        # at which sigma passes the tail gate, found by bisection to 1e-9:
        # every row of sigma's table is entire, so the edge, at |Z| = 2.4066,
        # is where the 22-term truncation runs out, far outside every
        # built-in domain
        inside = 1.203285717
        eng = _Engine(so3)
        ray = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 1.0]])
        assert np.all(np.isfinite(eng.sigma(inside * ray)))
        with pytest.raises(OutsideDomainError, match="series tail"):
            eng.sigma((inside + 1e-9) * ray)

    def test_tail_gate_refuses_non_finite_value(self, so3, sl3):
        # a tail far below 1e-12 does not settle the gate when the value is
        # not finite: a NaN or infinite coefficient before the last term
        for alg in (so3, sl3):
            A = alg.ad(0.1 * np.random.default_rng(5).standard_normal((4, alg.dim)))
            for row in ([np.nan, 1.0, 1e-30], [1.0, np.inf, 0.0, 1e-30]):
                with pytest.raises(OutsideDomainError, match="series tail"), \
                        np.errstate(invalid="ignore", over="ignore"):
                    ad_series(A, np.array([row]))

    def test_tail_gate_quiet_on_builtin_domains(self, all_algebras):
        # both factors on the boundary sphere of each built-in's domain
        rng = np.random.default_rng(71)
        for alg in all_algebras:
            d = alg.dim
            u = rng.standard_normal((40, 2 * d))
            for blk in (slice(0, d), slice(d, 2 * d)):
                u[:, blk] *= alg.domain_radius / np.linalg.norm(u[:, blk], axis=1,
                                                                keepdims=True)
            eng = _Engine(alg)
            assert np.all(np.isfinite(eng.sigma(u)))
            assert np.all(eng.kappa(1.0, u) > 0.0)


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, len(ALGEBRAS) - 1), st.floats(1e-3, 12.0),
           st.integers(0, 2 ** 32 - 1))
    def test_frobenius_tail_bound_dominates(self, so3, sl2, gl2, oscillator, so4,
                                            sl3, index, radius, seed):
        # max|A^j| <= |A|_F^j, so on every row the tail bounded by the norm
        # of the odd-sum gate is at least the exact tail (radii at which no
        # power underflows)
        alg = (so3, sl2, gl2, oscillator, so4, sl3)[index]
        d = alg.dim
        u = np.random.default_rng(seed).standard_normal((4, d))
        A = alg.ad(radius * u / np.linalg.norm(u, axis=1, keepdims=True))
        norms = np.sqrt(np.einsum('nij,nij->n', A, A)) ** np.arange(d + 1)[:, None]
        for table in (self.COEFFS, np.concatenate([fn_dexp, fn_dexp_right, fn_todd]),
                      geom._SIGMA_ROWS):
            S, K = table.shape
            # a zero row as wide gives the same powers and rho at any radius
            _, pw, rho = ad_series(A, np.zeros((1, K)))
            size = _entry_max(pw).T
            assert np.all(norms[:d] >= size)
            tail_plan = _series_plan(table.tobytes(), S, K, d)[4]
            assert np.all(_series_tail(tail_plan, rho, norms)
                          >= _series_tail(tail_plan, rho, size))

    def test_tail_gate_settled_by_frobenius_bound(self, so3, monkeypatch):
        # on so3's domain sphere every bounded tail is below 1e-12, so no
        # maximum is taken; at spectral radius 3.4 s/(e^s - 1) needs the
        # exact maxima, and passes
        calls = []
        entry_max = matrixlie._entry_max
        monkeypatch.setattr(matrixlie, "_entry_max",
                            lambda M: calls.append(M.shape) or entry_max(M))
        u = np.random.default_rng(79).standard_normal((40, 6))
        for blk in (slice(0, 3), slice(3, 6)):
            u[:, blk] *= so3.domain_radius / np.linalg.norm(u[:, blk], axis=1,
                                                            keepdims=True)
        eng = _Engine(so3)
        eng.sigma(u)
        eng.moser_w(1.0, u[:4])
        for f in (fn_dexp, fn_dexp_right, fn_todd):
            analytic_ad(so3, f, u[:, :3])
        assert calls == []
        analytic_ad(so3, fn_todd, np.array([0.0, 0.0, 3.4]))
        assert len(calls) >= 1


class TestSigma:
    def test_moment_part_at_origin(self, so3):
        _, moment = sigma(so3, ORIGIN3)
        assert np.max(np.abs(moment)) == 0.0

    def test_moment_part_on_axis(self, so3):
        # Psi = X + Y - log(e^X e^Y) vanishes when Y = 0
        p = PointV(np.array([0.3, -0.1, 0.2]), np.zeros(3))
        _, moment = sigma(so3, p)
        assert np.max(np.abs(moment)) <= 1e-14

    def test_value_at_origin_is_cross_term(self, so3):
        # the Maurer-Cartan cross term -1/2 <u_X, v_Y> survives at the
        # origin; the homotopy-primitive terms all vanish there
        S, _ = sigma(so3, ORIGIN3)
        expected = np.zeros((6, 6))
        expected[:3, 3:] = -0.5 * so3.Q
        expected[3:, :3] = 0.5 * so3.Q
        assert np.max(np.abs(S - expected)) <= 1e-13

    def test_antisymmetry_exact(self, all_algebras, points):
        for alg in all_algebras:
            S = _Engine(alg).sigma(points[alg.name])
            assert np.max(np.abs(S + np.transpose(S, (0, 2, 1)))) == 0.0

    def test_cocycle_closed(self, so3):
        # d sigma = 0 by FD exterior derivative on the product space
        eng = _Engine(so3)
        h = 1e-4
        q = SAMPLE3.as_array()
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(6):
            i, j, k = rng.choice(6, size=3, replace=False)
            e = np.eye(6)

            def s_at(v, a, b):
                return eng.sigma(v[None])[0][a, b]

            ds = ((s_at(q + h * e[i], j, k) - s_at(q - h * e[i], j, k))
                  - (s_at(q + h * e[j], i, k) - s_at(q - h * e[j], i, k))
                  + (s_at(q + h * e[k], i, j) - s_at(q - h * e[k], i, j))) / (2 * h)
            worst = max(worst, abs(ds))
        assert worst <= 1e-6

    def test_cocycle_moment_condition(self, all_algebras):
        # iota_{xi_M} sigma = d<Psi, xi>
        rng = np.random.default_rng(6)
        h = 1e-6
        for alg in all_algebras:
            eng = _Engine(alg)
            d = alg.dim
            q = sample_points(alg, 1, 77, 0.25)[0]
            xi = rng.standard_normal(d)
            s = eng.sigma(q[None])[0]
            xiM = np.concatenate([-alg.bracket(xi, q[:d]), -alg.bracket(xi, q[d:])])
            lhs = s @ xiM
            grad = np.zeros(2 * d)
            for i in range(2 * d):
                e = np.zeros(2 * d)
                e[i] = h
                pp = float(alg.pairing(eng.psi((q + e)[None])[0], xi))
                pm = float(alg.pairing(eng.psi((q - e)[None])[0], xi))
                grad[i] = (pp - pm) / (2 * h)
            assert np.max(np.abs(lhs - grad)) <= 1e-6


class TestGauge:
    def test_t_zero_returns_p0(self, so3):
        p = SAMPLE3
        assert np.allclose(gauge_P(so3, 0.0, p), kirillov_P0(so3, p))

    def test_t_zero_exact(self, all_algebras, sl3):
        # no branch at t = 0: sigma_t, the gauge factor and its determinant
        # give exactly 0, P0 and 1 there
        for alg in [*all_algebras, sl3]:
            eng = _Engine(alg)
            P = sample_points(alg, 12, 42, 0.3)
            assert np.array_equal(eng.sigma_t(0.0, P), np.zeros((12, 2 * alg.dim, 2 * alg.dim)))
            assert np.array_equal(eng.p_t(0.0, P), eng.p0(P))
            assert np.array_equal(eng.lam(0.0, P), np.ones(12))

    def test_origin_any_t(self, so3):
        for t in (0.3, 1.0):
            assert np.max(np.abs(gauge_P(so3, t, ORIGIN3))) == 0.0

    def test_antisymmetric(self, all_algebras, points):
        for alg in all_algebras:
            eng = _Engine(alg)
            for t in (0.5, 1.0):
                Pt = eng.p_t(t, points[alg.name])
                assert np.max(np.abs(Pt + np.transpose(Pt, (0, 2, 1)))) <= 1e-10

    def test_same_symplectic_leaves(self, all_algebras, points):
        # range(P_t) = range(P0) pointwise: same rank, containment by
        # projection onto the column space
        for alg in all_algebras:
            eng = _Engine(alg)
            P = points[alg.name][:6]
            P0 = eng.p0(P)
            Pt = eng.p_t(1.0, P)
            for a, b in zip(P0, Pt):
                ra = np.linalg.matrix_rank(a, tol=1e-10)
                rb = np.linalg.matrix_rank(b, tol=1e-10)
                assert ra == rb
                U, s, _ = np.linalg.svd(a)
                basis = U[:, s > 1e-10]
                proj = basis @ basis.T
                assert np.max(np.abs(b - proj @ b @ proj.T)) <= 1e-9


class TestGaugeGates:
    # the gauge factor M = 1 + sigma_t P0 from _gauge(sigma_t, P0), here with
    # P0 = 1 so that M - 1 = sigma_t; matrix 0 of each stack is M = 1
    @staticmethod
    def _stack(*rest):
        return np.stack([np.zeros((6, 6)), *rest]), np.eye(6)

    @staticmethod
    def _count_exact(monkeypatch):
        calls = []
        for name in ("det", "svd"):
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _n=name, **k:
                                calls.append(_n) or _fn(*a, **k))
        return calls

    def test_nonpositive_det_refuses_stack(self, so3):
        # det M = -1 at one matrix; its neighbours lie well inside the bound
        bad = np.diag([-2.0, 0, 0, 0, 0, 0])
        sig, P0 = self._stack(0.01 * np.ones((6, 6)), bad)
        with pytest.raises(OutsideDomainError, match="det"):
            _Engine(so3)._gauge(sig, P0)

    def test_ill_conditioned_refuses_stack(self, so3):
        # det M = 1e-13 > 0 but cond_2 M = 1e13
        bad = np.diag([-1.0 + 1e-13, 0, 0, 0, 0, 0])
        sig, P0 = self._stack(0.01 * np.ones((6, 6)), bad)
        assert np.linalg.det(np.eye(6) + bad) > 0.0
        with pytest.raises(OutsideDomainError, match="ill conditioned"):
            _Engine(so3)._gauge(sig, P0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)),
        st.floats(0.0, 0.99))
    def test_norm_bound_implies_both_gates(self, entries, radius):
        # |E|_F <= 0.99: every eigenvalue of 1 + E lies within 0.99 of 1 and
        # every singular value in [0.01, 1.99]
        n = math.isqrt(len(entries))
        E = np.array(entries).reshape(n, n)
        norm = np.linalg.norm(E)
        if norm > 0.0:
            E = E / norm * radius
        M = np.eye(n) + E
        assert np.linalg.det(M) > 0.0
        sv = np.linalg.svd(M, compute_uv=False)
        assert sv[0] / sv[-1] <= 199.0
        _Engine._check_gauge(M[None])

    def test_bound_settles_without_det_or_svd(self, so3, monkeypatch):
        calls = self._count_exact(monkeypatch)
        E = np.full((6, 6), 0.99 / 6 * (1 - 1e-12))
        sig, P0 = self._stack(E, -E)
        _Engine(so3)._gauge(sig, P0)
        assert calls == []

    def test_just_above_bound_takes_exact_gates(self, so3, monkeypatch):
        # |E|_F = 0.995 with det and cond fine: the exact path runs and passes
        calls = self._count_exact(monkeypatch)
        E = np.diag([0.995, 0, 0, 0, 0, 0])
        sig, P0 = self._stack(E)
        M = _Engine(so3)._gauge(sig, P0)
        assert calls == ["det", "svd"]
        assert np.array_equal(M[1], np.eye(6) + E)

    def test_nan_takes_exact_gates(self, so3, monkeypatch):
        # the exact gates refuse it (today numpy's SVD raises LinAlgError)
        calls = self._count_exact(monkeypatch)
        E = np.zeros((6, 6))
        E[0, 0] = np.nan
        sig, P0 = self._stack(E)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            _Engine(so3)._gauge(sig, P0)
        assert calls == ["det", "svd"]


class TestLambda:
    def test_small_t_limit(self, so3):
        assert lambda_det(so3, 1e-9, SAMPLE3) == pytest.approx(1.0, abs=1e-8)

    def test_origin(self, so3):
        assert lambda_det(so3, 1.0, ORIGIN3) == pytest.approx(1.0, abs=1e-14)

    def test_matches_kappa(self, all_algebras, points):
        for alg in all_algebras:
            eng = _Engine(alg)
            P = points[alg.name]
            for t in (0.25, 0.5, 1.0):
                k = eng.kappa(t, P)
                l = eng.lam(t, P)
                assert np.max(np.abs(k - l) / np.abs(k)) <= 1e-7


class TestAlpha:
    def test_vanishes_at_origin(self, so3):
        for t in (0.0, 0.5, 1.0):
            assert np.max(np.abs(alpha(so3, t, ORIGIN3))) <= 1e-12

    def test_scaling_law(self, all_algebras):
        # alpha_t(p) = alpha_1(t p) / t, the operational form of
        # alpha_t = (1/t^2) m_t^* alpha_1
        for alg in all_algebras:
            eng = _Engine(alg)
            q = sample_points(alg, 2, 11, 0.3)
            for t in (0.4, 0.8):
                a_t = eng.alpha(t, q)
                a_1 = eng.alpha(1.0, t * q)
                rel = np.max(np.abs(a_t - a_1 / t)) / max(np.max(np.abs(a_t)), 1e-12)
                assert rel <= 1e-12

    def test_exterior_derivative_matches_dsigma_dt(self, so3):
        # d alpha_t = d sigma_t / dt by FD exterior derivative
        eng = _Engine(so3)
        q = SAMPLE3.as_array()
        t = 0.6
        h = 1e-4
        B = dsigma_dt(eng, t, q[None])[0]
        worst = 0.0
        for i in range(6):
            for j in range(i + 1, 6):
                e = np.eye(6)
                da = ((eng.alpha(t, (q + h * e[i])[None])[0][j]
                       - eng.alpha(t, (q - h * e[i])[None])[0][j])
                      - (eng.alpha(t, (q + h * e[j])[None])[0][i]
                         - eng.alpha(t, (q - h * e[j])[None])[0][i])) / (2 * h)
                worst = max(worst, abs(da - B[i, j]))
        assert worst <= 1e-5

    def test_invariance_under_conjugation(self, so3):
        rng = np.random.default_rng(13)
        W = 0.3 * rng.standard_normal(3)
        Adg = matrix_exp(so3.ad(W))
        G = np.zeros((6, 6))
        G[:3, :3] = Adg
        G[3:, 3:] = Adg
        eng = _Engine(so3)
        q = SAMPLE3.as_array()
        for t in (0.5, 1.0):
            a = eng.alpha(t, q[None])[0]
            ag = eng.alpha(t, (G @ q)[None])[0]
            # pullback of a covector: alpha(g p) composed with dg = alpha(p)
            assert np.max(np.abs(G.T @ ag - a)) <= 1e-6


def _boundary_spheres(algebras, n=6, seed=71):
    """n points per algebra with both factors on the domain's boundary sphere."""
    rng = np.random.default_rng(seed)
    out = []
    for alg in algebras:
        u = rng.standard_normal((2 * n, alg.dim))
        u *= alg.domain_radius / np.linalg.norm(u, axis=1, keepdims=True)
        out.append((alg, np.concatenate([u[:n], u[n:]], axis=1)))
    return out


def _iota(P, S):
    """iota_p of a stack of 2-forms S (..., B, n, n) at the points P (B, n)."""
    return np.einsum('bu,...buv->...bv', P, S)


def _alpha_by_parts(eng, t, P, nodes):
    """iota_p [sigma(t p) - int_0^1 s sigma(t s p) ds] by Gauss-Legendre."""
    s, w = _gl_nodes(nodes)
    n2 = P.shape[1]
    sig = eng.sigma((t * s[:, None, None] * P[None]).reshape(-1, n2))
    vals = _iota(P, sig.reshape(nodes, *P.shape, n2))
    return _iota(P, eng.sigma(t * P)) - np.tensordot(w * s, vals, axes=1)


def _alpha_by_derivative(eng, t, P, h=1e-3, nodes=16):
    """The derivative definition int_0^1 s iota_p beta_s ds of alpha_t, with
    beta_s = d/dtau [tau sigma(tau s p)] at tau = t by a 4th-order stencil."""
    s, w = _gl_nodes(nodes)
    n2 = P.shape[1]

    def f(tau):
        sig = eng.sigma((tau * s[:, None, None] * P[None]).reshape(-1, n2))
        return tau * sig.reshape(nodes, *P.shape, n2)

    beta = (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)
    return np.tensordot(w * s, _iota(P, beta), axes=1)


def _rel(a, ref):
    """Worst per-point error relative to the point's max-norm of ref."""
    return float(np.max(np.max(np.abs(a - ref), axis=1) / np.max(np.abs(ref), axis=1)))


class TestMoserQuadrature:
    TIMES = (0.0, 0.37, 1.0)

    def test_kronrod_constants_exact_on_polynomials(self):
        # K15 integrates s^k over [0, 1] exactly for k <= 22, its G7 for k <= 13
        assert np.all(np.diff(_K15_S) > 0) and 0 < _K15_S[0] and _K15_S[-1] < 1
        assert np.allclose(_K15_S + _K15_S[::-1], 1.0, rtol=0, atol=1e-16)
        for k in range(23):
            exact = 1.0 / (k + 1)
            assert abs(_K15_W @ _K15_S ** k - exact) <= 2e-16
            if k <= 13:
                assert abs(_G7_W @ _K15_S ** k - exact) <= 2e-16
        assert abs(_G7_W @ _K15_S ** 14 - 1 / 15) > 1e-9

    @staticmethod
    def _fake_engine(so3, p, g):
        # sigma(q) with the single entry g(s) at (0, 1), s = <q, p>/<p, p>
        eng = _Engine(so3)

        def fake_sigma(Q):
            out = np.zeros((Q.shape[0], 6, 6))
            s = Q @ p / (p @ p)
            out[:, 0, 1], out[:, 1, 0] = g(s), -g(s)
            return out

        eng.sigma = fake_sigma
        return eng

    def test_gate_rejects_unresolved_integrand(self, so3):
        p = np.array([0.3, -0.2, 0.1, 0.05, 0.2, -0.1])
        eng = self._fake_engine(so3, p, lambda s: 1.0 / (1.0 + 400.0 * (s - 0.5) ** 2))
        with pytest.raises(OutsideDomainError, match="K15 - G7"):
            eng.alpha(1.0, p[None])
        with pytest.raises(OutsideDomainError, match="K15 - G7"):
            eng.moser_w(1.0, p[None])

    def test_gate_passes_resolved_integrand(self, so3):
        # control for the test above: sigma_01(s) = s^2 gives
        # alpha = iota_p sigma(p) (1 - 1/4) with no gate
        p = np.array([0.3, -0.2, 0.1, 0.05, 0.2, -0.1])
        eng = self._fake_engine(so3, p, lambda s: s * s)
        expected = 0.75 * np.array([-p[1], p[0], 0, 0, 0, 0])
        assert np.max(np.abs(eng.alpha(1.0, p[None])[0] - expected)) <= 1e-16

    def test_gate_quiet_on_boundary_spheres(self, all_algebras, sl3):
        for alg, P in _boundary_spheres([*all_algebras, sl3]):
            eng = _Engine(alg)
            for t in self.TIMES:
                cov, M = eng._alpha_gauge(t, P, eng.p0(P))
                assert np.all(np.isfinite(cov)) and np.all(np.isfinite(M))

    def test_matches_gauss_legendre_by_parts(self, all_algebras, sl3):
        for alg, P in _boundary_spheres([*all_algebras, sl3]):
            eng = _Engine(alg)
            for t in self.TIMES:
                assert _rel(eng.alpha(t, P), _alpha_by_parts(eng, t, P, 32)) <= 1e-14

    def test_matches_derivative_definition(self, all_algebras, sl3):
        for alg, P in _boundary_spheres([*all_algebras, sl3]):
            eng = _Engine(alg)
            for t in self.TIMES:
                assert _rel(eng.alpha(t, P), _alpha_by_derivative(eng, t, P)) <= 1e-9


class TestMoser:
    def test_vanishes_at_origin(self, so3):
        for t in (0.0, 0.5, 1.0):
            assert np.max(np.abs(moser_v(so3, t, ORIGIN3))) <= 1e-12

    def test_scaling_law(self, so3):
        eng = _Engine(so3)
        q = sample_points(so3, 2, 19, 0.3)
        for t in (0.5, 0.8):
            v_t = eng.moser_w(t, q)
            v_1 = eng.moser_w(1.0, t * q)
            rel = np.max(np.abs(v_t - v_1 / t ** 2)) / max(np.max(np.abs(v_t)), 1e-12)
            assert rel <= 1e-12

    def test_transport_stencil(self, all_algebras):
        # (Phi_{t+h}(p + h vbar) - Phi_{t-h}(p - h vbar))/2h ~ 0, vbar = -v_t
        h = 1e-4
        for alg in all_algebras:
            eng = _Engine(alg)
            q = sample_points(alg, 2, 23, 0.25)
            t = 0.6
            v = eng.moser_w(t, q)
            up = eng.phi_t_map(t + h, q - h * v)
            dn = eng.phi_t_map(t - h, q + h * v)
            assert np.max(np.abs(up - dn) / (2 * h)) <= 1e-5


class TestExtract:
    def test_zero_at_origin(self, so3):
        A, B = extract_AB(so3, ORIGIN3)
        assert np.max(np.abs(A)) <= 1e-12 and np.max(np.abs(B)) <= 1e-12

    def test_eq1_residual(self, all_algebras, points):
        for alg in all_algebras:
            eng = _Engine(alg)
            assert np.max(eng.eq1_residual(points[alg.name])) <= 1e-7

    def test_eq1_residual_at_rounding_level(self, all_algebras, sl3):
        # the engine's operator against the public-function formula of the
        # benchmark's sl3 check, (1 - e^{-ad_X}) A + (e^{ad_Y} - 1) B, point by point
        for alg in [*all_algebras, sl3]:
            d = alg.dim
            P = sample_points(alg, 20, 7, 0.3)
            res = _Engine(alg).eq1_residual(P)
            assert np.max(res) <= 1e-14, alg.name
            for q, r in zip(P, res):
                X, Y = q[:d], q[d:]
                A, B = extract_AB(alg, PointV(X, Y))
                lhs = phi_t(alg, 1.0, PointV(Y, X)) - X - Y
                rhs = (alg.ad(X) @ analytic_ad(alg, fn_dexp, X) @ A
                       + alg.ad(Y) @ analytic_ad(alg, fn_dexp_right, Y) @ B)
                assert abs(np.max(np.abs(lhs - rhs)) - r) <= 1e-14, alg.name

    def test_equivariance(self, all_algebras):
        rng = np.random.default_rng(29)
        for alg in all_algebras:
            eng = _Engine(alg)
            q = sample_points(alg, 4, 31, 0.25)
            d = alg.dim
            for _ in range(3):
                W = 0.3 * rng.standard_normal(d)
                Adg = matrix_exp(alg.ad(W))
                G = np.zeros((2 * d, 2 * d))
                G[:d, :d] = Adg
                G[d:, d:] = Adg
                A0, B0 = eng.extract(q)
                A1, B1 = eng.extract(q @ G.T)
                err = max(np.max(np.abs(A1 - A0 @ Adg.T)),
                          np.max(np.abs(B1 - B0 @ Adg.T)))
                assert err <= 1e-6


class TestKV2Numeric:
    def test_zero_at_origin(self, so3):
        assert kv2_numeric_residual(so3, ORIGIN3) <= 1e-9

    def test_degenerate_line(self, so3):
        p = PointV(np.array([0.25, -0.1, 0.2]), np.zeros(3))
        assert kv2_numeric_residual(so3, p) <= 1e-6

    def test_random_points(self, so3):
        eng = _Engine(so3)
        q = sample_points(so3, 8, 37, 0.3)
        assert np.max(eng.kv2_residual(q)) <= 1e-5


def orbit_test_points(alg, seed):
    """Two generic points, then (X, 0), (X, X/2) and the origin: orbit maps
    of full rank, of the stabilizer ranks of X, and of rank 0."""
    d = alg.dim
    P = sample_points(alg, 2, seed, 0.3)
    X = P[0, :d]
    return {"generic": P,
            "Y = 0": np.concatenate([X, np.zeros(d)])[None],
            "X || Y": np.concatenate([X, 0.5 * X])[None],
            "origin": np.zeros((1, 2 * d))}


class TestEquivariantTrace:
    # the generic rank of the orbit map: d less the dimension of the centre
    GENERIC_RANK = {"so3": 3, "sl2": 3, "gl2": 3, "sl3": 8}

    @staticmethod
    def counted(field, sizes):
        def f(Q):
            sizes.append(Q.shape[0])
            return field(Q)
        return f

    def test_matches_full_stencil(self, all_algebras, sl3):
        # W = I on moser_w (the flow's divergence) and W = blockdiag(ad_X,
        # ad_Y) on extract (the left side of kv2), against the trace by
        # central differences along all 2d coordinates
        for alg in list(all_algebras) + [sl3]:
            eng = _Engine(alg)
            d = alg.dim
            for where, P in orbit_test_points(alg, 97).items():
                B = P.shape[0]
                W = _block_diag(alg.ad(P.reshape(B, 2, d)))
                for field, weight in ((lambda Q: eng.moser_w(0.7, Q), None),
                                      (lambda Q: np.concatenate(eng.extract(Q), axis=1), W)):
                    sizes = []
                    f, tr = _equivariant_trace(alg, self.counted(field, sizes), P, weight)
                    ref = full_stencil_trace(field, P, weight)
                    assert np.max(np.abs(tr - ref)) <= 1e-9, (alg.name, where)
                    assert np.max(np.abs(f - field(P)), initial=0.0) <= 1e-14
                    assert len(sizes) == 1 and (sizes[0] - B) % (2 * B) == 0
                    r = 2 * d - (sizes[0] - B) // (2 * B)
                    if where == "generic":
                        assert r == self.GENERIC_RANK[alg.name], alg.name
                    elif where == "origin":
                        assert r == 0
                    else:
                        assert 0 < r < self.GENERIC_RANK[alg.name], (alg.name, where)

    def test_rank_is_per_point(self, all_algebras, sl3):
        # every point differences its own 2d - r_p directions, in one field
        # call: mixed ranks in one stack give each point its own-stack trace,
        # on 1 + 2 (2d - r_p) field points per point (45 on so3: 1 + 6 at the
        # generic points, 1 + 8 at Y = 0 and X || Y, 1 + 12 at the origin)
        for alg in list(all_algebras) + [sl3]:
            eng = _Engine(alg)
            cases = list(orbit_test_points(alg, 97).values())
            P = np.concatenate(cases)
            fields = ((lambda Q: eng.moser_w(0.7, Q), lambda P: None),
                      (lambda Q: np.concatenate(eng.extract(Q), axis=1),
                       lambda P: _block_diag(alg.ad(P.reshape(P.shape[0], 2, alg.dim)))))
            for field, weight in fields:
                sizes = []
                f, tr = _equivariant_trace(alg, self.counted(field, sizes), P, weight(P))
                own = [_equivariant_trace(alg, self.counted(field, sizes), Q, weight(Q))
                       for Q in cases]
                assert sizes[0] == sum(sizes[1:]), alg.name
                if alg.name == "so3":
                    assert sizes[0] == 45
                assert np.array_equal(f, np.concatenate([o[0] for o in own])), alg.name
                assert np.array_equal(tr, np.concatenate([o[1] for o in own])), alg.name

    def test_origin_leaves_the_other_points_alone(self, so3):
        # appending a rank-0 point, which differences all 2d directions,
        # changes no other point's trace or field value
        eng = _Engine(so3)
        P = sample_points(so3, 40, 5, 0.3)
        Po = np.concatenate([P, np.zeros((1, 6))])
        assert np.array_equal(eng.kv2_residual(Po)[:40], eng.kv2_residual(P))
        for t in (0.0, 0.5, 1.0):
            w, div = eng._divergence_w(t, P)
            wo, divo = eng._divergence_w(t, Po)
            assert np.array_equal(wo[:40], w) and np.array_equal(divo[:40], div)

    def test_moser_field_is_equivariant(self, all_algebras, sl3):
        # the identity the orbit part rests on, by FD: Dv_t(p) T_p = T_{v_t(p)};
        # then the helper's tr(W Dv_t) against tr(W J) for a random weight W
        rng = np.random.default_rng(103)
        for alg in list(all_algebras) + [sl3]:
            eng = _Engine(alg)
            P = sample_points(alg, 3, 101, 0.3)
            W = rng.standard_normal((3, 2 * alg.dim, 2 * alg.dim))
            for t in (0.4, 1.0):
                J = np.transpose(_central_differences(lambda Q: eng.moser_w(t, Q), P), (1, 2, 0))
                lhs = J @ _orbit_map(alg, P)
                rhs = _orbit_map(alg, eng.moser_w(t, P))
                assert np.max(np.abs(lhs - rhs)) <= 1e-9, alg.name
                assert np.max(np.abs(rhs)) >= 1e-4     # the identity is not 0 = 0
                tr = _equivariant_trace(alg, lambda Q: eng.moser_w(t, Q), P, W)[1]
                assert np.max(np.abs(tr - np.einsum('bij,bji->b', W, J))) <= 1e-9, alg.name


class TestStructure:
    def test_schouten_jacobi(self, all_algebras):
        for alg in all_algebras:
            eng = _Engine(alg)
            q = sample_points(alg, 5, 41, 0.25)
            for t in (0.25, 0.5, 1.0):
                assert np.max(eng.schouten_max(t, q)) <= 1e-5

    def test_moment_map_condition(self, all_algebras):
        rng = np.random.default_rng(43)
        for alg in all_algebras:
            eng = _Engine(alg)
            q = sample_points(alg, 5, 47, 0.25)
            xis = 0.5 * rng.standard_normal((5, alg.dim))
            for t in (0.25, 0.5, 1.0):
                assert eng.moment_residual(t, q, xis) <= 1e-5


def dphi_by_differences(eng, t, P):
    """dPhi_t by central differences of Phi_t, (B, d, 2d): the oracle for
    the closed form."""
    return _central_differences(lambda Q: eng.phi_t_map(t, Q), P).transpose(1, 2, 0)


class TestDphi:
    def test_closed_form_matches_differences(self, all_algebras, sl3):
        for alg in [*all_algebras, sl3]:
            eng = _Engine(alg)
            P = sample_points(alg, 6, 59, 0.3)
            for t in (0.0, 0.25, 0.5, 1.0):
                J = eng.dphi_t(t, P)
                assert J.shape == (6, alg.dim, 2 * alg.dim)
                assert np.max(np.abs(J - dphi_by_differences(eng, t, P))) <= 1e-9

    def test_identity_blocks_at_t_zero(self, so3):
        J = _Engine(so3).dphi_t(0.0, sample_points(so3, 3, 61, 0.3))
        assert np.array_equal(J, np.broadcast_to(np.hstack([np.eye(3)] * 2), J.shape))


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", range(4, 12))
    def test_cubic_exact_at_every_node(self, n):
        # every rule is exact for cubics, so every node carries the integral
        t = np.linspace(0.0, 1.0, n)
        f = np.stack([1.0 - 2.0 * t + 3.0 * t ** 2 - 4.0 * t ** 3, t ** 3], axis=1)
        exact = np.stack([t - t ** 2 + t ** 3 - t ** 4, t ** 4 / 4], axis=1)
        assert np.max(np.abs(_cumulative_simpson(f, t[1]) - exact)) <= 1e-15

    def test_quadratic_exact_on_three_samples(self):
        t = np.linspace(0.0, 1.0, 3)
        out = _cumulative_simpson(2.0 - t + 3.0 * t ** 2, 0.5)
        assert np.max(np.abs(out - (2.0 * t - t ** 2 / 2 + t ** 3))) <= 1e-15

    def test_even_nodes_are_composite_simpson(self):
        h = 1.0 / 40
        f = np.cos(np.linspace(0.0, 1.0, 41))
        pairs = h / 3.0 * (f[:-2:2] + 4 * f[1:-1:2] + f[2::2])
        ref = np.concatenate([[0.0], np.cumsum(pairs)])
        assert np.array_equal(_cumulative_simpson(f, h)[0::2], ref)


class TestFlow:
    def test_origin_is_stationary(self, so3):
        _, points, log_density = flow_integrate(so3, ORIGIN3, steps=20)
        assert np.max(np.abs(points[-1])) <= 1e-12
        assert abs(log_density[-1]) <= 1e-12

    def test_transport_small(self, so3):
        eng = _Engine(so3)
        q = sample_points(so3, 3, 53, 0.25)
        ts, traj, dens = eng.flow(q, 60)
        phi0 = eng.phi_t_map(0.0, q)
        for k, t in enumerate(ts):
            assert np.max(np.abs(eng.phi_t_map(float(t), traj[k]) - phi0)) <= 1e-6
            if t > 0:
                lk = np.log(eng.kappa(float(t), traj[k]))
                assert np.max(np.abs(lk - dens[k])) <= 1e-5

    def test_flow_states_shape(self, so3):
        ts, points, log_density = flow_integrate(so3, SAMPLE3, steps=10)
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(1.0)
        assert ts.shape == (11,) and points.shape == (11, 6) and log_density.shape == (11,)

    def test_one_step_is_refused(self, so3):
        # one step would leave the log-density the trapezoid, whose volume
        # drift misses the transportVol tolerance
        for steps in (1, 0):
            with pytest.raises(ValueError, match="steps must be >= 2"):
                flow_integrate(so3, SAMPLE3, steps=steps)

    def test_start_outside_domain_rejected(self, so3):
        p = PointV(np.array([0.6, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(OutsideDomainError):
            flow_integrate(so3, p, steps=10)

    def test_step_gate_reports_exit_time(self, so3):
        # engine-level: a trajectory outside |X| <= r trips the per-step check
        eng = _Engine(so3)
        q = np.array([[0.505, 0.0, 0.0, 0.0, 0.1, 0.0]])
        with pytest.raises(OutsideDomainError, match="left V at t"):
            eng.flow(q, 10)

    def test_start_on_the_domain_edge_flows(self, so3):
        # check_point's rounding allowance holds along the flow as well:
        # so3 orbits keep |X| fixed, so a start it admits stays admitted
        p = PointV(np.array([0.5 + 5e-13, 0.0, 0.0]), np.array([0.0, 0.1, 0.0]))
        ts, points, _ = flow_integrate(so3, p, steps=10)
        assert len(ts) == 11
        assert abs(np.linalg.norm(points[-1, :3]) - (0.5 + 5e-13)) <= 1e-12

    def test_transport_drift_chunks_are_invisible(self, so3, monkeypatch):
        # the stacked comparison takes _CHUNK points per call; a cap that
        # splits steps and points mid-stack gives the same drifts
        P = sample_points(so3, 3, 67, 0.3)
        whole = transport_drift(so3, P, 12)
        monkeypatch.setattr(geom, "_CHUNK", 5)
        split = transport_drift(so3, P, 12)
        assert whole[0] == split[0]
        assert abs(whole[1] - split[1]) <= 1e-15

    def test_sigma_and_varpi_chunks_are_invisible(self, so3, monkeypatch):
        # sigma and varpi take _CHUNK points per call as well: 11 points in
        # chunks of 5, 5 and 1 give the one-chunk values
        eng = _Engine(so3)
        P = sample_points(so3, 11, 71, 0.3)
        whole = eng.sigma(P), eng.varpi(P[:, :3])
        monkeypatch.setattr(geom, "_CHUNK", 5)
        for one, split in zip(whole, (eng.sigma(P), eng.varpi(P[:, :3]))):
            assert split.shape == one.shape
            assert np.max(np.abs(split - one)) <= 1e-15 * np.max(np.abs(one))

    def test_shared_divergence_matches_per_step_oracle(self, all_algebras):
        # the divergence rides on each step's first call, whose v_t is RK4's
        # first stage or the Adams history value; the oracle evaluates v_t on
        # its own and takes the divergence after the trajectory, one call per
        # step.  10 steps: 5 RK4 steps, then 5 Adams steps
        for alg in all_algebras:
            eng = _Engine(alg)
            P = sample_points(alg, 2, 83, 0.3)
            _, traj, dens = eng.flow(P, 10)
            ref_traj, ref_dens = oracle_flow(eng, P, 10)
            assert np.max(np.abs(traj - ref_traj)) <= 1e-13
            assert np.max(np.abs(dens - ref_dens)) <= 1e-13

    def test_one_moser_call_per_stage(self, so3, monkeypatch):
        # 1 + 4 min(S, 5) + 2 max(S - 5, 0) calls: four per RK4 start-up step
        # and two per Adams step, the first of each shared with the
        # divergence, and one more for the divergence at t = 1
        eng = _Engine(so3)
        P = sample_points(so3, 2, 89, 0.3)
        moser_w = eng.moser_w
        for steps, calls in ((5, 21), (8, 27), (40, 91)):
            sizes = []

            def counted(t, Q):
                sizes.append(Q.shape[0])
                return moser_w(t, Q)

            monkeypatch.setattr(eng, "moser_w", counted)
            eng.flow(P, steps)
            # the divergence stack: the 2 points and their 2 (2d - r) = 6
            # perturbations each, across the rank-3 orbits
            assert len(sizes) == calls
            assert sizes.count(2 * (1 + 2 * 3)) == steps + 1

    def test_adams_weights_from_lagrange_integrals(self):
        # AB6 on f_k ... f_{k-5} (nodes 0 ... -5) and AM6 on f_{k+1} ...
        # f_{k-4} (nodes 1 ... -4), in units of dt / 1440
        assert adams_weights(range(0, -6, -1)) == [Fraction(c, 1440) for c in _AB6]
        assert adams_weights(range(1, -5, -1)) == [Fraction(c, 1440) for c in _AM6]

    @pytest.fixture(scope="class")
    def references(self, all_algebras):
        """Two points per built-in algebra and their endpoints after 160 steps
        of the oracle flow, whose truncation error is far below rounding:
        at 160, 320 and 640 steps they agree with 1280 steps to about 1e-15."""
        out = []
        for alg in all_algebras:
            eng = _Engine(alg)
            P = sample_points(alg, 2, 83, 0.3)
            out.append((alg, eng, P, oracle_flow(eng, P, 160, density=False)[0][-1]))
        return out

    def test_endpoint_error_is_order_six(self, references):
        # halving the step divides the endpoint error by 30-33 on each
        # algebra (RK4's by 16): the Adams steps' error is O(dt^6), and the
        # five RK4 start-up steps, a fixed number, add O(dt^5), whose 2^5 = 32
        # the ratio approaches
        for alg, eng, P, ref in references:
            err = [np.max(np.abs(eng.flow(P, steps)[1][-1] - ref)) for steps in (10, 20)]
            assert err[0] >= 24 * err[1], alg.name

    def test_lands_closer_than_rk4(self, references):
        # at 40 steps: 3.3e-16 against RK4's 2.7e-15 on so3, 7.2e-15 against
        # 6.0e-14 on sl2, 2.2e-15 against 1.9e-14 on gl2
        for alg, eng, P, ref in references:
            adams = np.max(np.abs(eng.flow(P, 40)[1][-1] - ref))
            rk4 = np.max(np.abs(oracle_rk4_flow(eng, P, 40)[-1] - ref))
            assert adams < rk4, alg.name

    def test_orbit_radii_conserved(self, so3):
        # leaves are products of coadjoint orbits; for so3 these are spheres,
        # so the flow must preserve |X| and |Y| exactly
        eng = _Engine(so3)
        q = np.array([[0.3, 0.0, 0.0, 0.0, 0.3, 0.0]])
        _, traj, _ = eng.flow(q, 40)
        rX = np.linalg.norm(traj[:, 0, :3], axis=1)
        rY = np.linalg.norm(traj[:, 0, 3:], axis=1)
        assert np.max(np.abs(rX - 0.3)) <= 1e-10
        assert np.max(np.abs(rY - 0.3)) <= 1e-10


class TestRichardson:
    def test_fd_exterior_derivative_order_two(self, so3):
        # the cocycle-closure FD residual must shrink ~4x when h halves
        eng = _Engine(so3)
        q = SAMPLE3.as_array()
        i, j, k = 0, 1, 4

        def residual(h):
            e = np.eye(6)

            def s_at(v, a, b):
                return eng.sigma(v[None])[0][a, b]

            return abs(((s_at(q + h * e[i], j, k) - s_at(q - h * e[i], j, k))
                        - (s_at(q + h * e[j], i, k) - s_at(q - h * e[j], i, k))
                        + (s_at(q + h * e[k], i, j) - s_at(q - h * e[k], i, j))
                        ) / (2 * h))

        r1, r2 = residual(2e-2), residual(1e-2)
        assert 2.5 <= r1 / r2 <= 6.5


class TestSuiteRunner:
    def test_small_report_passes(self, so3):
        rep = run_geometry_suite(so3, n_samples=4, seed=7, radius=0.25, steps=40)
        assert rep["pass"] is True
        assert set(rep["residuals"]) == {"eq1", "eq2", "kappaVsLambda", "jacobi",
                                         "momentMap", "transportPhi", "transportVol"}
        assert rep["algebra"] == "so3" and rep["nSamples"] == 4

    @pytest.mark.parametrize("name", ["so4", "oscillator"])
    def test_edge_descriptor_passes(self, name, request):
        # higher-dimensional and non-reductive descriptors on the generic charts
        alg = request.getfixturevalue(name)
        rep = run_geometry_suite(alg, n_samples=4, seed=3, radius=0.3, steps=8)
        assert rep["pass"] is True

    def test_radius_guard(self, so3):
        with pytest.raises(ValueError):
            sample_points(so3, 3, 1, 0.9)


class TestPurity:
    def test_public_api_leaves_descriptor_untouched(self, so3):
        # a fresh descriptor, which no earlier call can have touched: the
        # public functions write nothing onto it
        alg = load_algebra({"name": "so3", "basis": so3.basis,
                            "form": "neg_half_trace", "domain_radius": 0.5})

        def snapshot():
            return {k: v.tobytes() if isinstance(v, np.ndarray) else v
                    for k, v in vars(alg).items()}

        before = snapshot()
        kirillov_P0(alg, SAMPLE3)
        sigma(alg, SAMPLE3)
        extract_AB(alg, SAMPLE3)
        lambda_det(alg, 1.0, SAMPLE3)
        flow_integrate(alg, SAMPLE3, steps=4)
        run_geometry_suite(alg, n_samples=4, seed=7, radius=0.25, steps=4)
        assert snapshot() == before
