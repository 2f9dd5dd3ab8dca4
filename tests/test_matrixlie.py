import cmath
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import kvgeom
from kvgeom.freelie import bch
from kvgeom.kvsolve import KVPair, evaluate_pair
from kvgeom.matrixlie import (
    _LOG_PADE,
    _LOG_THETA,
    AlgebraValidationError,
    OutsideDomainError,
    PointV,
    QuadraticLieAlgebra,
    analytic_ad,
    fn_dexp,
    fn_dexp_right,
    fn_todd,
    get_algebra,
    jacobian_J,
    kappa_t,
    load_algebra,
    matrix_exp,
    matrix_log,
    phi_t,
)


class TestBuiltins:
    def test_names_and_dims(self, all_algebras):
        assert [(a.name, a.dim) for a in all_algebras] == [
            ("so3", 3), ("sl2", 3), ("gl2", 4)]

    def test_so3_form_definite(self, so3):
        assert np.all(np.linalg.eigvalsh(so3.Q) > 0)

    def test_sl2_form_indefinite(self, sl2):
        eigs = np.linalg.eigvalsh(sl2.Q)
        assert np.any(eigs > 0) and np.any(eigs < 0)

    def test_gl2_form_signature(self, gl2):
        eigs = np.linalg.eigvalsh(gl2.Q)
        assert (np.sum(eigs > 0), np.sum(eigs < 0)) == (3, 1)

    def test_builtins_pinned(self, so3, sl2, gl2):
        # each built-in's form, radius and chart exactly, and its structure
        # constants, which construction solves for from the brackets, to ulps:
        # so3 has Q = I and [e_a, e_b] = eps_abk e_k; sl2 (h, e, f) has
        # [h, e] = 2e, [h, f] = -2f, [e, f] = h; gl2 has the matrix units
        # E_ij at 2i + j, [E_ij, E_kl] = delta_jk E_il - delta_li E_kj; both
        # under the trace form
        eps = np.zeros((3, 3, 3))
        for a, b, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[a, b, k], eps[b, a, k] = 1.0, -1.0
        sl2_c = np.zeros((3, 3, 3))
        for a, b, k, c in ((0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0)):
            sl2_c[a, b, k], sl2_c[b, a, k] = c, -c
        gl2_c = np.zeros((4, 4, 4))
        for i, j, k, l in np.ndindex(2, 2, 2, 2):
            gl2_c[2 * i + j, 2 * k + l, 2 * i + l] += j == k
            gl2_c[2 * i + j, 2 * k + l, 2 * k + j] -= l == i
        gl2_q = np.array([[1.0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        expected = ((so3, np.eye(3), 0.5, "so3", eps),
                    (sl2, np.array([[2.0, 0, 0], [0, 0, 1], [0, 1, 0]]), 0.5, "generic", sl2_c),
                    (gl2, gl2_q, 0.4, "generic", gl2_c))
        for alg, Q, radius, chart, c in expected:
            assert np.array_equal(alg.Q, Q), alg.name
            assert (alg.domain_radius, alg.chart) == (radius, chart)
            assert np.max(np.abs(alg.structure - c)) <= 1e-15, alg.name

    def test_construction_invariants(self, all_algebras):
        for alg in all_algebras:
            c = alg.structure
            assert np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) <= 1e-12
            jac = (np.einsum('abm,mck->abck', c, c)
                   + np.einsum('bcm,mak->abck', c, c)
                   + np.einsum('cam,mbk->abck', c, c))
            assert np.max(np.abs(jac)) <= 1e-12
            T = np.einsum('abl,lk->abk', c, alg.Q)
            assert np.max(np.abs(T + np.transpose(T, (0, 2, 1)))) <= 1e-12
            assert np.max(np.abs(np.einsum('abb->a', c))) <= 1e-12

    def test_invalid_form_rejected(self, so3):
        with pytest.raises(AlgebraValidationError):
            QuadraticLieAlgebra("bad", so3.basis, np.diag([1.0, 2.0, 3.0]), 0.5)

    def test_non_closed_basis_rejected(self):
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        e21 = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(AlgebraValidationError):
            QuadraticLieAlgebra("open", np.stack([e12, e21]), np.eye(2), 0.5)

    @pytest.mark.parametrize("field,value", [
        ("basis", np.nan), ("form", np.nan), ("form", np.inf),
        ("domain_radius", np.inf), ("domain_radius", np.nan),
        ("domain_radius", 0.0), ("domain_radius", -0.5),
    ])
    def test_non_finite_descriptor_rejected(self, so3, field, value):
        # a NaN passes every "> tol" check, and one in the basis would reach
        # the SVD of the closure check
        doc = {"name": "bad", "basis": so3.basis.copy(), "form": so3.Q.copy(),
               "domain_radius": 0.5}
        if field == "domain_radius":
            doc[field] = value
        else:
            doc[field][0, 0] = value
        with pytest.raises(AlgebraValidationError):
            load_algebra(doc)

    def test_json_loading_and_abelian(self, tmp_path):
        doc = {
            "name": "abelian2",
            "basis": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "form": "trace",
            "domain_radius": 1.0,
        }
        path = tmp_path / "abelian.json"
        path.write_text(json.dumps(doc))
        alg = load_algebra(str(path))
        assert alg.dim == 2
        assert np.max(np.abs(alg.structure)) == 0.0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_algebra("e8")

    def test_descriptor_arrays_read_only(self):
        # get_algebra hands every caller the same descriptor: no caller may
        # change what the next one gets, and gl2's basis is its own array, not
        # a view of the np.eye(4) in the built-in entry
        for name in ("so3", "sl2", "gl2"):
            alg = get_algebra(name)
            arrays = {attr: getattr(alg, attr).copy()
                      for attr in ("basis", "Q", "Qinv", "structure", "_pinv")}
            for attr in arrays:
                with pytest.raises(ValueError):
                    getattr(alg, attr)[(0,) * getattr(alg, attr).ndim] = 5.0
            again = get_algebra(name)
            for attr, before in arrays.items():
                assert np.array_equal(getattr(again, attr), before), (name, attr)
        gl2 = get_algebra("gl2")
        assert gl2.basis.base is None
        assert np.array_equal(gl2.basis, np.eye(4).reshape(4, 2, 2))

    def test_constructor_copies_its_arrays(self, so3):
        # the caller's arrays stay writeable and do not alias the descriptor's
        basis, Q = so3.basis.copy(), np.eye(3)
        alg = QuadraticLieAlgebra("so3copy", basis, Q, 0.5)
        assert not (np.shares_memory(alg.basis, basis) or np.shares_memory(alg.Q, Q))
        Q[0, 0] = 5.0
        assert alg.Q[0, 0] == 1.0


class TestMatrixExp:
    def test_zero(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))
        assert matrix_exp(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    def test_rodrigues_oracle(self, so3):
        theta = 0.8
        R = matrix_exp(so3.to_matrix(np.array([0.0, 0.0, theta])))
        expected = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                             [math.sin(theta), math.cos(theta), 0.0],
                             [0.0, 0.0, 1.0]])
        assert np.max(np.abs(R - expected)) <= 1e-12

    def test_diagonal(self):
        out = matrix_exp(np.diag([0.3, -1.2]))
        assert np.allclose(out, np.diag([np.exp(0.3), np.exp(-1.2)]), atol=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_overflow_raises(self, gl2, sl3):
        # no inf and no RuntimeWarning: an exponential that overflows, even
        # from a 1-norm that overflows itself, leaves the domain
        for M in ([[800.0]], np.full((2, 2), 1e308)):
            with pytest.raises(OutsideDomainError, match="not finite"):
                matrix_exp(np.array(M))
        for alg in (gl2, sl3):
            with pytest.raises(OutsideDomainError, match="not finite"):
                alg.exp_chart(np.stack([np.zeros(alg.dim), np.full(alg.dim, 400.0)]))
        assert matrix_exp(np.array([[-800.0]]))[0, 0] == 0.0   # underflow is finite

    def test_package_import_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(kvgeom.__file__))
        code = ("import sys, kvgeom, kvgeom.cli; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


def _square_roots(M):
    """Square roots the logarithm takes before its Pade step: until
    ||M - I||_1 <= _LOG_THETA, by scipy's sqrtm."""
    eye = np.eye(M.shape[-1])
    count = 0
    while np.max(np.sum(np.abs(M - eye), axis=0)) > _LOG_THETA:
        M = scipy.linalg.sqrtm(M).real
        count += 1
    return count


class TestMatrixLog:
    def test_identity(self):
        assert np.allclose(matrix_log(np.eye(4)), 0.0)

    def test_roundtrip_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            M = 0.3 * rng.standard_normal((4, 4))
            L = matrix_log(matrix_exp(M))
            assert np.max(np.abs(L - M)) <= 1e-10

    def test_diagonal(self):
        out = matrix_log(np.diag([math.e, 1.0]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("nodes, theta", _LOG_PADE)
    def test_pade_step_at_its_bound(self, nodes, theta):
        # |E|_1 = theta takes no square root and the step of that many
        # nodes, which alone meets log1p to a few units of 2^-53 at both ends
        x = np.array([-theta, theta])
        assert _square_roots(np.diag(1.0 + x)) == 0
        L = np.diag(matrix_log(np.diag(1.0 + x)))
        ref = np.log1p((1.0 + x) - 1.0)     # of the matrix as rounded
        assert np.max(np.abs(L - ref) / np.abs(ref)) <= 4 * 2.0 ** -53

    def test_negative_axis_rejected(self):
        with pytest.raises(OutsideDomainError):
            matrix_log(np.diag([-1.0, 1.0]))

    def test_stack_matches_per_matrix_logm(self, sl2, gl2, sl3):
        # chart products of every generic-chart algebra, at three scales so
        # that each stack has matrices taking 0, 1 and at least 2 square
        # roots before the Pade step, against an independent oracle
        rng = np.random.default_rng(13)
        scale = np.array([0.1, 0.4, 0.8])[None, :, None, None]
        stacks = []
        for alg in (sl2, gl2, sl3):
            X, Y = (scale * rng.standard_normal((2, 3, 16, alg.dim))
                    / math.sqrt(alg.dim)).reshape(2, 48, alg.dim)
            M = alg.exp_chart(X) @ alg.exp_chart(Y)
            roots = {_square_roots(m) for m in M}
            assert {0, 1} <= roots and max(roots) >= 2, (alg.name, roots)
            stacks.append(M)
        stacks.append(np.concatenate([
            matrix_exp(0.75 * sl3.to_matrix(rng.standard_normal((4, sl3.dim)))),
            matrix_exp(0.5 * rng.standard_normal((4, 3, 3))),
        ]))
        for M in stacks:
            ref = np.stack([scipy.linalg.logm(m).real for m in M])
            assert np.max(np.abs(matrix_log(M) - ref)) <= 1e-13

    def test_jordan_block(self):
        J = np.array([[1.2, 1.0, 0.0], [0.0, 1.2, 1.0], [0.0, 0.0, 1.2]])
        ref = scipy.linalg.logm(J).real
        assert np.max(np.abs(matrix_log(J) - ref)) <= 1e-13
        assert np.max(np.abs(matrix_log(np.stack([J, J.T]))
                          - np.stack([ref, ref.T]))) <= 1e-13

    def test_one_negative_eigenvalue_rejects_stack(self, sl3):
        M = sl3.exp_chart(0.2 * np.ones((5, sl3.dim)))
        M[3] = np.diag([-0.5, -2.0, 1.0])
        with pytest.raises(OutsideDomainError):
            matrix_log(M)
        with pytest.raises(OutsideDomainError):
            sl3.log_chart(M)

    def test_spectrum_gate_settled_by_norm(self, sl3, monkeypatch):
        # every eigenvalue lies within ||M - I||_1 of 1, so up to theta_16 no
        # matrix can reach the negative axis and eigvals is never called;
        # one matrix beyond theta_16 takes the exact gate
        class EigvalsCalled(Exception):
            pass

        def refuse(A):
            raise EigvalsCalled

        eye = np.eye(3)
        M = sl3.exp_chart(0.1 * np.random.default_rng(17).standard_normal((6, sl3.dim)))
        assert np.max(np.sum(np.abs(M - eye), axis=-2)) <= _LOG_THETA
        ref = matrix_log(M)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        assert np.array_equal(matrix_log(M), ref)
        M[4] = sl3.exp_chart(np.full(sl3.dim, 0.3))
        assert np.max(np.sum(np.abs(M[4] - eye), axis=0)) > _LOG_THETA
        with pytest.raises(EigvalsCalled):
            matrix_log(M)

    def test_square_root_iteration_capped(self):
        # Denman-Beavers halves a huge eigenvalue per step: no convergence
        with pytest.raises(OutsideDomainError):
            matrix_log(np.array([[1e300]]))


class TestCharts:
    def test_exp_chart_matches_scaling_squaring(self, all_algebras, sl3):
        rng = np.random.default_rng(4)
        for alg in [*all_algebras, sl3]:
            X = 0.4 * rng.standard_normal((8, alg.dim))
            fast = alg.exp_chart(X)
            ref = np.stack([scipy.linalg.expm(m) for m in alg.to_matrix(X)])
            assert np.max(np.abs(fast - ref)) <= 1e-13
        # the generic exponential, 1-norms from 1e-3 to 100: the unscaled
        # Pade (up to 5.37) and one to five squarings, against scipy's
        norm = np.geomspace(1e-3, 100.0, 200)
        M = rng.standard_normal((200, 3, 3))
        M *= (norm / np.max(np.sum(np.abs(M), axis=-2), axis=-1))[:, None, None]
        fast = matrix_exp(M)
        ref = np.stack([scipy.linalg.expm(m) for m in M])
        rel = np.max(np.abs(fast - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
        assert np.max(rel[norm <= 1.0]) <= 1e-14
        assert np.max(rel[norm <= 10.0]) <= 3e-12
        assert np.max(rel) <= 1e-10
        # a stack is, bitwise, its matrices one at a time
        assert all(np.array_equal(f, matrix_exp(m)) for f, m in zip(fast, M))
        assert np.array_equal(sl3.exp_chart(np.zeros((3, sl3.dim))),
                              np.broadcast_to(np.eye(3), (3, 3, 3)))
        assert sl3.exp_chart(np.zeros((0, sl3.dim))).shape == (0, 3, 3)

    def test_log_chart_inverts(self, all_algebras, sl3):
        rng = np.random.default_rng(5)
        for alg in [*all_algebras, sl3]:
            X = 0.4 * rng.standard_normal((8, alg.dim))
            assert np.max(np.abs(alg.log_chart(alg.exp_chart(X)) - X)) <= 1e-12

    def test_chart_chosen_by_basis_not_name(self, so3, sl2, gl2):
        # a scaled so(3) basis under the built-in's name takes the generic
        # chart; the standard basis under another name keeps the closed form;
        # the 2 x 2 algebras have no closed form of their own
        scaled = load_algebra({"name": "so3", "basis": 2.0 * so3.basis,
                               "form": "neg_half_trace", "domain_radius": 0.3})
        renamed = load_algebra({"name": "rotations", "basis": so3.basis,
                                "form": "neg_half_trace", "domain_radius": 0.5})
        assert (so3.chart, scaled.chart, renamed.chart) == ("so3", "generic", "so3")
        assert sl2.chart == gl2.chart == "generic"
        X = 0.3 * np.random.default_rng(14).standard_normal((8, 3))
        for alg in (scaled, renamed):
            ref = np.stack([scipy.linalg.expm(m) for m in alg.to_matrix(X)])
            E = alg.exp_chart(X)
            assert np.max(np.abs(E - ref)) <= 1e-13
            assert np.max(np.abs(alg.log_chart(ref) - X)) <= 1e-12
            assert all(np.array_equal(e, alg.exp_chart(x)[0]) for e, x in zip(E, X))

    @pytest.mark.parametrize("theta", [0.0, 1e-9, 1e-3, 2.79])
    def test_so3_closed_forms_match_scipy(self, so3, theta):
        # at the rotation angle 0, deep inside the range a series once
        # served (below 1e-3), at its old branch point, and near the 2.8 cut
        axes = np.random.default_rng(15).standard_normal((16, 3))
        v = theta * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        R = np.stack([scipy.linalg.expm(m) for m in so3.to_matrix(v)])
        assert np.max(np.abs(so3.exp_chart(v) - R)) <= 1e-14
        ref = np.stack([so3.from_matrix(scipy.linalg.logm(m).real) for m in R])
        L = so3.log_chart(R)
        # near pi the angle from the trace is ill conditioned, for scipy too
        tol = 1e-15 if theta < 1.0 else 2e-13
        assert np.max(np.abs(L - ref)) <= tol
        assert np.max(np.abs(L - v)) <= tol * theta

    def test_2x2_branch_cuts_rejected(self, sl2, gl2):
        # a double eigenvalue -1 in SL(2) and a negative determinant in GL(2):
        # neither has a real principal logarithm
        with pytest.raises(OutsideDomainError):
            sl2.log_chart(np.array([[-1.0, 1.0], [0.0, -1.0]]))
        with pytest.raises(OutsideDomainError):
            gl2.log_chart(np.diag([-1.0, 2.0]))

    @pytest.mark.parametrize("name", ["so3", "sl2", "gl2", "sl3"])
    def test_non_finite_input_rejected(self, name, request):
        # every chart, closed-form or generic, refuses NaN and inf up front
        alg = request.getfixturevalue(name)
        n = alg.basis.shape[1]
        with pytest.raises(ValueError, match="non-finite"):
            alg.log_chart(np.full((n, n), np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            alg.log_chart(np.stack([np.eye(n), np.full((n, n), np.inf)]))
        with pytest.raises(ValueError, match="non-finite"):
            alg.exp_chart(np.full(alg.dim, np.nan))

    def test_from_matrix_closure_error(self, sl2):
        with pytest.raises(OutsideDomainError):
            sl2.from_matrix(np.eye(2))   # identity is not traceless


class TestAdMatrix:
    def test_zero(self, so3):
        assert np.max(np.abs(so3.ad(np.zeros(3)))) == 0.0

    def test_kills_own_argument(self, all_algebras):
        rng = np.random.default_rng(6)
        for alg in all_algebras:
            X = rng.standard_normal(alg.dim)
            assert np.max(np.abs(alg.ad(X) @ X)) <= 1e-12

    def test_so3_e3_eigenvalues(self, so3):
        eigs = np.linalg.eigvals(so3.ad(np.array([0.0, 0.0, 1.0])))
        assert sorted(np.round(eigs.imag, 12)) == [-1.0, 0.0, 1.0]
        assert np.max(np.abs(eigs.real)) <= 1e-12

    def test_linear_in_x(self, gl2):
        rng = np.random.default_rng(7)
        u, v = rng.standard_normal((2, 4))
        assert np.allclose(gl2.ad(u + 2 * v),
                           gl2.ad(u) + 2 * gl2.ad(v))


class TestAnalyticAd:
    def test_todd_at_zero(self, so3):
        assert np.allclose(analytic_ad(so3, fn_todd, np.zeros(3)), np.eye(3))

    def test_dexp_at_zero(self, so3):
        assert np.allclose(analytic_ad(so3, fn_dexp, np.zeros(3)), np.eye(3))

    def test_so3_determinant_eigenvalue_oracle(self, so3):
        X = np.array([0.2, -0.3, 0.4])
        theta = np.linalg.norm(X)
        F = analytic_ad(so3, fn_dexp, X)
        expected = (math.sin(theta / 2) / (theta / 2)) ** 2
        assert abs(np.linalg.det(F) - expected) <= 1e-12

    def test_defective_fallback(self, sl2):
        # ad of the nilpotent generator is defective; the series fallback
        # must produce the exact finite polynomial
        e = np.array([0.0, 0.3, 0.0])
        adE = sl2.ad(e)
        F = analytic_ad(sl2, fn_dexp, e)
        exact = np.eye(3) - adE / 2 + adE @ adE / 6
        assert np.max(np.abs(F - exact)) <= 1e-14

    def test_pole_rejected(self, so3):
        X = np.array([0.0, 0.0, 2.0 * math.pi])
        with pytest.raises(OutsideDomainError):
            analytic_ad(so3, fn_todd, X)

    def test_right_dexp_is_reflection(self, gl2):
        rng = np.random.default_rng(8)
        X = 0.3 * rng.standard_normal(4)
        L = analytic_ad(gl2, fn_dexp, -X)
        R = analytic_ad(gl2, fn_dexp_right, X)
        assert np.max(np.abs(L - R)) <= 1e-12


# The eigendecomposition definition of f(ad_X) that analytic_ad replaced,
# kept as an independent oracle: f on each eigenvalue (its order-12 Taylor
# polynomial below |lambda| < 1e-4), a pole test for s/(e^s - 1), and the
# whole Taylor series when the eigenvectors are ill conditioned.
_ORACLE_SCALAR = (
    (fn_dexp, lambda z: -(cmath.exp(-z) - 1.0) / z),
    (fn_dexp_right, lambda z: (cmath.exp(z) - 1.0) / z),
    (fn_todd, lambda z: z / (cmath.exp(z) - 1.0)),
)


def oracle_analytic_ad(alg, f, X):
    A = alg.ad(np.asarray(X, dtype=float))
    eigs, V = np.linalg.eig(A)
    if f is fn_todd and any(abs(l) > 1.0 and abs(cmath.exp(l) - 1.0) < 1e-6
                            for l in eigs):
        raise OutsideDomainError("outside V: spectrum of ad_X at a pole of s/(e^s - 1)")
    if np.linalg.cond(V) < 1e8:
        g = next(g for row, g in _ORACLE_SCALAR if row is f)

        def scalar(z):
            if abs(z) < 1e-4:
                acc = 0.0 + 0.0j
                for c in reversed(f[0, :13]):
                    acc = acc * z + c
                return acc
            return g(z)
        vals = np.array([scalar(l) for l in eigs])
        return (V @ np.diag(vals) @ np.linalg.inv(V)).real
    out = np.zeros_like(A)
    P = np.eye(A.shape[0])
    for c in f[0]:
        out = out + c * P
        P = P @ A
    return out


class TestAnalyticAdKernel:
    FUNCTIONS = (fn_dexp, fn_dexp_right, fn_todd)

    def test_matches_eigendecomposition_oracle(self, all_algebras, sl3):
        rng = np.random.default_rng(81)
        for alg in [*all_algebras, sl3]:
            u = rng.standard_normal((12, alg.dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            for radius in (alg.domain_radius, 2.0 * alg.domain_radius):
                for X in radius * u:
                    for k, f in enumerate(self.FUNCTIONS):
                        ref = oracle_analytic_ad(alg, f, X)
                        err = np.max(np.abs(analytic_ad(alg, f, X) - ref))
                        assert err <= 1e-12 * np.max(np.abs(ref)), (alg.name, k)

    def test_todd_domain_on_so3(self, so3):
        # the 48-term table of s/(e^s - 1) resolves a spectral radius of 3.4
        # but not 4, although the pole is only at 2 pi
        X = np.array([0.0, 0.0, 3.4])
        F = analytic_ad(so3, fn_todd, X)
        ref = oracle_analytic_ad(so3, fn_todd, X)
        assert np.max(np.abs(F - ref)) <= 1e-12 * np.max(np.abs(ref))
        with pytest.raises(OutsideDomainError, match="series tail"):
            analytic_ad(so3, fn_todd, np.array([0.0, 0.0, 4.0]))

    # the smallest |X| on a ray at which the full tail gate raises, found by
    # bisection to 1e-9 with the gate computing every max|A^j|: the norm
    # precheck must leave that edge where it is
    @pytest.mark.parametrize("name, row, direction, inside", [
        ("so3", "fn_todd", (0.0, 0.0, 1.0), 3.469479670),
        ("sl3", "fn_dexp", (1.0,) * 8, 9.920911322),
    ])
    def test_tail_gate_edge_pinned(self, request, name, row, direction, inside):
        alg = request.getfixturevalue(name)
        f = {"fn_todd": fn_todd, "fn_dexp": fn_dexp}[row]
        u = np.array(direction) / np.linalg.norm(direction)
        analytic_ad(alg, f, inside * u)
        with pytest.raises(OutsideDomainError, match="series tail"):
            analytic_ad(alg, f, (inside + 1e-9) * u)

    def test_non_finite_input_fails_gate(self, so3, sl3):
        for alg in (so3, sl3):
            X = np.zeros((2, alg.dim))
            X[1, 0] = np.nan
            with pytest.raises(OutsideDomainError):
                analytic_ad(alg, fn_dexp, X)

    def test_stack_matches_per_point(self, all_algebras, sl3, so4):
        # bit for bit: ad_series gives every matrix the same products at any
        # stack size.  sl3 keeps a tolerance: its ad_X sums structure
        # constants other than 0 and +-1, and X @ table is a BLAS
        # matrix-vector product for one point but a matrix product for a stack
        rng = np.random.default_rng(82)
        for alg in [*all_algebras, sl3, so4]:
            X = alg.domain_radius * rng.standard_normal((2, 3, alg.dim)) / math.sqrt(alg.dim)
            J = jacobian_J(alg, X)
            assert J.shape == (2, 3)
            for f in self.FUNCTIONS:
                F = analytic_ad(alg, f, X)
                assert F.shape == (2, 3, alg.dim, alg.dim)
                for i in range(2):
                    for j in range(3):
                        one = analytic_ad(alg, f, X[i, j])
                        if alg is sl3:
                            assert np.max(np.abs(F[i, j] - one)) <= 1e-14 * np.max(np.abs(one))
                        else:
                            assert np.array_equal(F[i, j], one)
            for i in range(2):
                for j in range(3):
                    assert J[i, j] == pytest.approx(jacobian_J(alg, X[i, j]),
                                                    rel=1e-14 if alg is sl3 else 0.0)


class TestJacobian:
    def test_at_zero(self, so3):
        assert jacobian_J(so3, np.zeros(3)) == pytest.approx(1.0)

    def test_so3_closed_form(self, so3):
        X = np.array([0.1, 0.25, -0.2])
        theta = np.linalg.norm(X)
        expected = (math.sin(theta / 2) / (theta / 2)) ** 2
        assert jacobian_J(so3, X) == pytest.approx(expected, abs=1e-12)

    def test_even_on_quadratic(self, all_algebras):
        rng = np.random.default_rng(9)
        for alg in all_algebras:
            X = 0.35 * rng.standard_normal(alg.dim)
            assert jacobian_J(alg, X) == pytest.approx(jacobian_J(alg, -X), rel=1e-11)


def _stack_cases(all_algebras, sl3, so4):
    """30 points of each built-in algebra, of sl3 and of so4, as a (30, 2d) stack."""
    rng = np.random.default_rng(83)
    cases = []
    for alg in [*all_algebras, sl3, so4]:
        u = rng.standard_normal((30, 2 * alg.dim))
        cases.append((alg, 0.3 * u / np.linalg.norm(u, axis=1, keepdims=True)))
    return cases


class TestPointV:
    def test_stack_round_trip(self, all_algebras, sl3, so4):
        for alg, P in _stack_cases(all_algebras, sl3, so4):
            p = PointV.from_array(P, alg.dim)
            assert p.X.shape == p.Y.shape == (30, alg.dim)
            assert np.array_equal(p.as_array(), P)
            one = PointV.from_array(P[4], alg.dim)
            assert np.array_equal(one.X, P[4, :alg.dim])
            assert np.array_equal(one.as_array(), P[4])


class TestPhiT:
    def test_stack_matches_per_point(self, all_algebras, sl3, so4):
        for alg, P in _stack_cases(all_algebras, sl3, so4):
            d = alg.dim
            for t in (0.0, 0.37, 1.0):
                Z = phi_t(alg, t, PointV.from_array(P, d))
                assert Z.shape == (30, d)
                for q, z in zip(P, Z):
                    assert np.array_equal(z, phi_t(alg, t, PointV(q[:d], q[d:])))

    def test_t_zero(self, so3):
        p = PointV(np.array([0.2, -0.1, 0.15]), np.array([-0.05, 0.22, 0.1]))
        assert np.allclose(phi_t(so3, 0.0, p), p.X + p.Y)

    def test_y_zero(self, so3):
        p = PointV(np.array([0.2, -0.1, 0.15]), np.zeros(3))
        for t in (0.3, 0.7, 1.0):
            assert np.max(np.abs(phi_t(so3, t, p) - p.X)) <= 1e-12

    def test_matches_symbolic_bch(self, all_algebras):
        z8 = bch(8, "XY")
        rng = np.random.default_rng(10)
        for alg in all_algebras:
            X = 0.05 * rng.standard_normal(alg.dim)
            Y = 0.05 * rng.standard_normal(alg.dim)
            series_val = evaluate_pair(KVPair(z8, z8, 8), alg, X, Y)[0]
            direct = phi_t(alg, 1.0, PointV(X, Y))
            # degree-9 remainder at |X|,|Y| ~ 0.05
            assert np.max(np.abs(series_val - direct)) <= 1e-11

    def test_group_product_compatibility(self, all_algebras):
        rng = np.random.default_rng(11)
        for alg in all_algebras:
            X = 0.25 * rng.standard_normal(alg.dim)
            Y = 0.25 * rng.standard_normal(alg.dim)
            for t in (0.4, 1.0):
                W = phi_t(alg, t, PointV(X, Y))
                lhs = matrix_exp(alg.to_matrix(t * W))
                rhs = matrix_exp(alg.to_matrix(t * X)) @ matrix_exp(alg.to_matrix(t * Y))
                assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_equivariance(self, so3):
        rng = np.random.default_rng(12)
        X = 0.25 * rng.standard_normal(3)
        Y = 0.25 * rng.standard_normal(3)
        W = 0.3 * rng.standard_normal(3)
        Adg = matrix_exp(so3.ad(W))
        for t in (0.5, 1.0):
            lhs = phi_t(so3, t, PointV(Adg @ X, Adg @ Y))
            rhs = Adg @ phi_t(so3, t, PointV(X, Y))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestKappaT:
    def test_stack_matches_per_point(self, all_algebras, sl3, so4):
        for alg, P in _stack_cases(all_algebras, sl3, so4):
            d = alg.dim
            for t in (0.0, 0.37, 1.0):
                K = kappa_t(alg, t, PointV.from_array(P, d))
                assert K.shape == (30,)
                for q, k in zip(P, K):
                    one = kappa_t(alg, t, PointV(q[:d], q[d:]))
                    assert type(one) is float and one == k

    def test_t_zero_exact(self, all_algebras, sl3, so4):
        # no branch at t = 0: the formula itself gives exactly 1
        for alg, P in _stack_cases(all_algebras, sl3, so4):
            p = PointV.from_array(P, alg.dim)
            assert np.array_equal(kappa_t(alg, 0.0, p), np.ones(30))

    def test_t_zero(self, so3):
        p = PointV(np.array([0.2, -0.1, 0.15]), np.array([-0.05, 0.22, 0.1]))
        assert kappa_t(so3, 0.0, p) == 1.0

    def test_y_zero(self, so3):
        p = PointV(np.array([0.2, -0.1, 0.15]), np.zeros(3))
        assert kappa_t(so3, 0.8, p) == pytest.approx(1.0, abs=1e-12)

    def test_so3_eigenvalue_oracle(self, so3):
        def J_closed(v):
            th = np.linalg.norm(v)
            return (math.sin(th / 2) / (th / 2)) ** 2 if th > 0 else 1.0

        p = PointV(np.array([0.2, -0.1, 0.15]), np.array([-0.05, 0.22, 0.1]))
        t = 0.7
        W = t * phi_t(so3, t, p)
        expected = math.sqrt(J_closed(t * p.X) * J_closed(t * p.Y) / J_closed(W))
        assert kappa_t(so3, t, p) == pytest.approx(expected, abs=1e-12)

    def test_richardson_smoothness_in_t(self, so3):
        # second central difference in t converges at order h^2
        p = PointV(np.array([0.2, -0.1, 0.15]), np.array([-0.05, 0.22, 0.1]))

        def second_diff(h):
            return (kappa_t(so3, 0.5 + h, p) - 2 * kappa_t(so3, 0.5, p)
                    + kappa_t(so3, 0.5 - h, p)) / h ** 2

        d1, d2, d4 = second_diff(0.08), second_diff(0.04), second_diff(0.02)
        ratio = abs(d1 - d2) / abs(d2 - d4)
        assert 2.5 <= ratio <= 6.5

    def test_check_point_domain(self, so3):
        with pytest.raises(OutsideDomainError):
            so3.check_point(np.array([0.6, 0.0, 0.0]), np.zeros(3))
