import math
from fractions import Fraction

import numpy as np
import pytest

from kvgeom import kvsolve
from kvgeom.cyclic import kv2_residual
from kvgeom.freelie import (
    LieSeries,
    ad_series_apply,
    exp_minus_one,
    lyndon_basis,
    one_minus_exp_neg,
)
from kvgeom.geom import _central_differences
from kvgeom.kvsolve import (
    InfeasibleDegreeError,
    KVPair,
    evaluate_pair,
    kv1_residual,
    solve_exact,
    solve_kv,
)
from kvgeom.matrixlie import (
    PointV,
    analytic_ad,
    fn_dexp,
    fn_dexp_right,
    fn_todd,
    get_algebra,
    matrix_exp,
    phi_t,
)

F = Fraction


class TestKV1Residual:
    def test_zero_pair_degree_two(self):
        p = KVPair(LieSeries.zero(2), LieSeries.zero(2), 2)
        assert kv1_residual(p, 2) == LieSeries(2, {"xy": F(-1, 2)})

    def test_no_linear_part_for_any_pair(self):
        # dropping all brackets, both sides have no degree-1 content
        for coeffs in ({"x": F(2)}, {"y": F(-1, 3)}, {"x": F(1), "y": F(1)}):
            p = KVPair(LieSeries(2, coeffs), LieSeries(2, coeffs), 2)
            assert kv1_residual(p, 2).component(1).is_zero()

    def test_a_multiple_of_x_contributes_nothing(self):
        for b in (F(1), F(-3), F(2, 7)):
            p = KVPair(LieSeries(2, {"x": b}), LieSeries.zero(2), 2)
            assert kv1_residual(p, 2) == LieSeries(2, {"xy": F(-1, 2)})


class TestSolveKV:
    def test_degree_one_tie_break(self):
        # constraint c - b = 1/2; zeroed free variables give b = 0, c = 1/2
        p = solve_kv(1)
        a, b = p.A.coefficient("x"), p.A.coefficient("y")
        c, d = p.B.coefficient("x"), p.B.coefficient("y")
        assert c - b == F(1, 2)
        assert (a, b, c, d) == (F(0), F(0), F(1, 2), F(0))

    def test_vanishing_at_origin(self):
        # A, B have no constant term by construction (series start at degree 1)
        p = solve_kv(3)
        assert all(len(w) >= 1 for w in p.A.words() + p.B.words())

    def test_deterministic(self):
        p1, p2 = solve_kv(4), solve_kv(4)
        assert p1.A == p2.A and p1.B == p2.B

    @pytest.mark.parametrize("degree", [1, 2, 3, 5])
    def test_residual_exactly_zero(self, degree):
        p = solve_kv(degree)
        assert kv1_residual(p, degree).is_zero()

    def test_degree_two_unique_solution(self):
        p = solve_kv(2)
        assert p.A.component(2) == LieSeries(2, {"xy": F(1, 12)}).component(2)
        assert p.B.component(2) == LieSeries(2, {"xy": F(1, 6)}).component(2)

    def test_joint_strategy_feasible_and_closes_trace_equation(self):
        p = solve_kv(4, "joint-eq1-eq2")
        assert kv1_residual(p, 4).is_zero()
        assert kv2_residual(p.A, p.B, 4).is_zero()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            solve_kv(2, "newton")


def rref_fraction(rows, ncols):
    """Gauss-Jordan over Fractions, the oracle for the integer `_rref`:
    (RREF rows, pivot columns), trailing zero rows dropped."""
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r] + [row for row in mat[r:] if any(row)], pivots


def solve_by_fractions(rows, rhs):
    """solve_exact's contract on rref_fraction: (solution, kernel, ranks, pivots)."""
    n = len(rows[0]) if rows else 0
    aug = [[F(v) for v in row[::-1]] + [F(b)] for row, b in zip(rows, rhs)]
    red, pivots = rref_fraction(aug, n)
    rank_lhs = len(pivots)
    # rank [M | b] on its own: pivots over every column, b's included
    rank_aug = len(rref_fraction(aug, n + 1)[1])
    sol = [F(0)] * n
    if rank_aug == rank_lhs:
        for i, c in enumerate(pivots):
            sol[n - 1 - c] = red[i][n]
    kernel = []
    for fc in [c for c in range(n) if c not in pivots]:
        vec = [F(0)] * n
        vec[n - 1 - fc] = F(1)
        for i, c in enumerate(pivots):
            vec[n - 1 - c] = -red[i][fc]
        kernel.append(vec)
    return sol, kernel, (rank_lhs, rank_aug), (red, pivots)


def assert_matches_fraction_oracle(rows, rhs):
    sol, free, ranks = solve_exact(rows, rhs)
    o_sol, _, o_ranks, (_, o_pivots) = solve_by_fractions(rows, rhs)
    assert ranks == o_ranks
    assert sol == o_sol
    assert all(type(v) is Fraction for v in sol)
    # the oracle pivots on M reversed, left to right; the rest are free
    n = len(rows[0]) if rows else 0
    assert free == sorted(set(range(n)) - {n - 1 - c for c in o_pivots})
    # the integer rows are the rational RREF rows of [M | b] up to one
    # factor per row, read in the oracle's column order: M reversed, then b
    aug = []
    for row, b in zip(rows, rhs):
        entries = [F(v) for v in row] + [F(b)]
        scale = math.lcm(*(v.denominator for v in entries))
        aug.append({c: int(v * scale) for c, v in enumerate(entries) if v})
    order = [*range(n - 1, -1, -1), n]
    red, pivots = kvsolve._rref(aug, order)
    o_red, o_pivots = rref_fraction([[F(v) for v in row[::-1]] + [F(b)]
                                     for row, b in zip(rows, rhs)], n + 1)
    assert pivots == [order[c] for c in o_pivots]
    assert len(red) == len(o_red) == len(pivots)
    for row, c, o_row in zip(red, pivots, o_red):
        assert [F(row.get(j, 0), row[c]) for j in order] == o_row


def random_system(rng, m, n, rank, infeasible=False):
    """An m x n rational system of rank <= rank; consistent unless infeasible."""
    def rat():
        return F(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))

    basis = [[rat() for _ in range(n)] for _ in range(rank)]
    rows = []
    for _ in range(m):
        w = [F(int(rng.integers(-2, 3))) for _ in range(rank)]
        rows.append([sum((wi * b[j] for wi, b in zip(w, basis)), F(0)) for j in range(n)])
    x = [rat() for _ in range(n)]
    rhs = [sum((a * xi for a, xi in zip(row, x)), F(0)) for row in rows]
    if infeasible:
        rhs = [b + int(rng.integers(1, 3)) for b in rhs]
    return rows, rhs


class TestEliminationOracle:
    @pytest.mark.parametrize("strategy", ["eq1-only", "joint-eq1-eq2"])
    def test_every_solve_kv_system(self, strategy, monkeypatch):
        systems = []

        def recording(rows, rhs):
            systems.append(([row[:] for row in rows], rhs[:]))
            return solve(rows, rhs)

        solve = kvsolve.solve_exact
        monkeypatch.setattr(kvsolve, "solve_exact", recording)
        solve_kv(8, strategy)
        monkeypatch.undo()
        assert len(systems) == 8
        for rows, rhs in systems:
            assert_matches_fraction_oracle(rows, rhs)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_systems(self, seed):
        rng = np.random.default_rng(seed)
        for m, n, rank in ((4, 4, 4), (5, 3, 3), (7, 4, 2), (3, 6, 2), (6, 6, 0), (1, 5, 1)):
            for infeasible in (False, True):
                rows, rhs = random_system(rng, m, n, rank, infeasible)
                assert_matches_fraction_oracle(rows, rhs)

    def test_zero_rows_and_columns(self):
        rows = [[F(0), F(2), F(0)], [F(0), F(0), F(0)], [F(0), F(1, 3), F(0)],
                [F(0), F(0), F(0)]]
        for rhs in ([F(4), F(0), F(2, 3), F(0)], [F(4), F(1), F(2, 3), F(-5)]):
            assert_matches_fraction_oracle(rows, rhs)
        assert_matches_fraction_oracle([[F(0)] * 3] * 2, [F(0), F(0)])
        assert_matches_fraction_oracle([[F(0)] * 3] * 2, [F(1), F(-2)])
        assert_matches_fraction_oracle([], [])

    def test_more_rows_than_columns(self):
        rows = [[F(1), F(2)], [F(3), F(4)], [F(5), F(6)], [F(-1, 2), F(7)]]
        assert_matches_fraction_oracle(rows, [F(1), F(2), F(3), F(4)])
        rows = [[F(1), F(2)], [F(2), F(4)], [F(3), F(6)]]
        assert_matches_fraction_oracle(rows, [F(1), F(2), F(3)])
        assert_matches_fraction_oracle(rows, [F(1), F(3), F(5)])

    def test_rank_of_augmented_matrix(self):
        # three inconsistent left-over rows add one to the rank, not three
        assert solve_exact([[1], [1], [1]], [1, 2, 3])[2] == (1, 2)
        assert_matches_fraction_oracle([[F(1)], [F(1)], [F(1)]], [F(1), F(2), F(3)])


def eq1_kernel(d):
    """The kernel vectors of the degree-d eq1 block, from the Fraction
    oracle, as pairs (A, B) of degree-d Lie series."""
    words = lyndon_basis(d)
    k = len(words)
    rows = kvsolve._eq1_rows(d)
    return [(LieSeries(d, dict(zip(words, vec[:k]))), LieSeries(d, dict(zip(words, vec[k:]))))
            for vec in solve_by_fractions(rows, [0] * len(rows))[1]]


class TestKernel:
    def test_infeasible_system_reports_ranks(self):
        rows = [[F(1), F(0)], [F(1), F(0)]]
        rhs = [F(1), F(2)]
        _, _, (r1, r2) = solve_exact(rows, rhs)
        assert r1 == 1 and r2 == 2

    def test_infeasible_degree_prints_augmented_rank(self, monkeypatch):
        # whatever degree 1 assembles, solve the system [[1], [1], [1]] | [1, 2, 3]
        solve = kvsolve.solve_exact
        monkeypatch.setattr(kvsolve, "solve_exact",
                            lambda rows, rhs: solve([[1], [1], [1]], [1, 2, 3]))
        with pytest.raises(InfeasibleDegreeError, match=r"rank\(\[M\|b\]\) = 2,") as err:
            solve_kv(1)
        assert (err.value.rank_lhs, err.value.rank_aug) == (1, 2)

    @pytest.mark.parametrize("degree", [1, 3, 5, 7])
    def test_kernel_vectors_preserve_solutions(self, degree):
        # the top degree's free directions: any combination of the kernel
        # vectors of its eq1 block keeps the solution's residual zero.  The
        # degrees are those with free directions (nullity 3, 1, 3 and 6);
        # at d = 2 and d = 4 the block has none
        sol = solve_kv(degree)
        kernel = eq1_kernel(degree)
        assert kernel
        rng = np.random.default_rng(degree)
        for _ in range(3):
            weights = [F(int(rng.integers(-2, 3))) for _ in kernel]
            A, B = sol.A, sol.B
            for w, (kA, kB) in zip(weights, kernel):
                A = A + kA.scaled(w)
                B = B + kB.scaled(w)
            assert kv1_residual(KVPair(A, B, degree), degree + 1).is_zero()

    @pytest.mark.parametrize("degree", [1, 3])
    def test_kernel_vectors_solve_homogeneous_equation_to_top_degree(self, degree):
        # read through the series rather than the block's rows: a kernel pair
        # of degree d solves the homogeneous first equation through d + 1
        top = degree + 1
        kernel = eq1_kernel(degree)
        assert kernel
        for kA, kB in kernel:
            image = (ad_series_apply(one_minus_exp_neg(top), "x", kA, top)
                     + ad_series_apply(exp_minus_one(top), "y", kB, top))
            assert image.is_zero()

    def test_kernel_dimensions(self):
        # the eq1 nullity 2k - rank M for d = 1..8; the degree-1 block has
        # 4 unknowns and 1 independent equation
        nullity = []
        for d in range(1, 9):
            rows = kvsolve._eq1_rows(d)
            _, free, (rank, _) = solve_exact(rows, [0] * len(rows))
            assert len(free) == len(rows[0]) - rank
            nullity.append(len(free))
        assert nullity == [3, 0, 1, 0, 3, 0, 6, 4]


class TestEvaluatePair:
    def test_zero_pair(self, so3):
        p = KVPair(LieSeries.zero(3), LieSeries.zero(3), 3)
        A, B = evaluate_pair(p, so3, np.array([0.1, 0.2, 0.3]), np.array([0.3, 0.1, 0.2]))
        assert np.allclose(A, 0) and np.allclose(B, 0)

    def test_at_origin(self, so3):
        p = solve_kv(3)
        A, B = evaluate_pair(p, so3, np.zeros(3), np.zeros(3))
        assert np.allclose(A, 0) and np.allclose(B, 0)

    def test_degree_one_solution_value(self, so3):
        p = solve_kv(1)
        X = np.array([0.2, -0.1, 0.3])
        Y = np.array([0.1, 0.4, -0.2])
        A, B = evaluate_pair(p, so3, X, Y)
        assert np.allclose(A, 0)
        assert np.allclose(B, X / 2)

    def test_equivariance(self, so3):
        rng = np.random.default_rng(9)
        p = solve_kv(4)
        X = 0.25 * rng.standard_normal(3)
        Y = 0.25 * rng.standard_normal(3)
        W = 0.25 * rng.standard_normal(3)
        Adg = matrix_exp(so3.ad(W))
        A0, B0 = evaluate_pair(p, so3, X, Y)
        A1, B1 = evaluate_pair(p, so3, Adg @ X, Adg @ Y)
        scale = max(np.max(np.abs(A0)), np.max(np.abs(B0)), 1.0)
        assert np.max(np.abs(A1 - Adg @ A0)) <= 1e-8 * scale
        assert np.max(np.abs(B1 - Adg @ B0)) <= 1e-8 * scale


class TestTruncationOrder:
    """The degree-N pair solves eq1 exactly through degree N + 1, so at
    (tX, tY) its numeric eq1 residual falls as t^(N+2); the joint pair
    solves the trace equation through degree N, so its numeric trace
    residual falls as t^(N+1)."""

    @staticmethod
    def eq1_residual(alg, pair, X, Y):
        # log(e^Y e^X) - X - Y - [(1 - e^{-ad_X}) A + (e^{ad_Y} - 1) B]
        A, B = evaluate_pair(pair, alg, X, Y)
        lhs = phi_t(alg, 1.0, PointV(Y, X)) - X - Y
        rhs = (analytic_ad(alg, fn_dexp, X) @ alg.bracket(X, A)
               + analytic_ad(alg, fn_dexp_right, Y) @ alg.bracket(Y, B))
        return float(np.max(np.abs(lhs - rhs)))

    @pytest.mark.parametrize("name", ["so3", "sl2", "gl2"])
    @pytest.mark.parametrize("degree", [3, 4])
    def test_eq1_residual_slope(self, name, degree):
        alg = get_algebra(name)
        pair = solve_kv(degree)
        X, Y = np.random.default_rng(4).standard_normal((2, alg.dim))
        X, Y = X / np.linalg.norm(X), Y / np.linalg.norm(Y)
        ts = np.array([0.05, 0.12, 0.3])
        resid = [self.eq1_residual(alg, pair, t * X, t * Y) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(resid), 1)[0]
        assert slope >= degree + 1.7, (resid, slope)

    @staticmethod
    def trace_residual(alg, pair, X, Y):
        # tr(ad_X d_X A) + tr(ad_Y d_Y B) + 1/2 tr(g(ad_X) + g(ad_Y) - g(ad_Z) - 1)
        d = alg.dim

        def pair_at(Q):
            return np.stack([np.stack(evaluate_pair(pair, alg, q[:d], q[d:])) for q in Q])

        D = _central_differences(pair_at, np.concatenate([X, Y])[None])[:, 0]
        # Jacobians dA_i/dX_j = D[j, 0, i] and dB_i/dY_j = D[d + j, 1, i]
        lhs = np.trace(alg.ad(X) @ D[:d, 0].T) + np.trace(alg.ad(Y) @ D[d:, 1].T)
        Z = phi_t(alg, 1.0, PointV(X, Y))
        g = [np.trace(analytic_ad(alg, fn_todd, W)) for W in (X, Y, Z)]
        return abs(lhs + 0.5 * (g[0] + g[1] - g[2] - d))

    @pytest.mark.parametrize("name", ["so3", "sl2", "gl2"])
    @pytest.mark.parametrize("degree", [3, 4])
    def test_trace_residual_slope(self, name, degree):
        alg = get_algebra(name)
        pair = solve_kv(degree, "joint-eq1-eq2")
        X, Y = np.random.default_rng(4).standard_normal((2, alg.dim))
        X, Y = X / np.linalg.norm(X), Y / np.linalg.norm(Y)
        ts = np.array([0.1, 0.2, 0.4])
        resid = [self.trace_residual(alg, pair, t * X, t * Y) for t in ts]
        slope = np.polyfit(np.log(ts), np.log(resid), 1)[0]
        assert slope >= degree + 0.8, (resid, slope)
