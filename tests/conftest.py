"""Shared fixtures, exact-arithmetic oracle helpers, acceptance reporting."""

import math
from fractions import Fraction

import numpy as np
import pytest

from kvgeom.geom import _central_differences, _cumulative_simpson
from kvgeom.matrixlie import (
    ad_series,
    builtin_algebras,
    fn_dexp,
    get_algebra,
    load_algebra,
)

_acceptance_lines = []


def record_criterion(number: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    _acceptance_lines.append(f"[{tag}] criterion {number}: {description}{suffix}")


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def so3():
    return get_algebra("so3")


@pytest.fixture(scope="session")
def sl2():
    return get_algebra("sl2")


@pytest.fixture(scope="session")
def gl2():
    return get_algebra("gl2")


@pytest.fixture(scope="session")
def all_algebras():
    return builtin_algebras()


@pytest.fixture(scope="session")
def sl3():
    """sl(3, R) with the trace form: 3 x 3 matrices, so no closed-form chart."""
    E = np.zeros((8, 3, 3))
    E[0, 0, 0], E[0, 1, 1] = 1.0, -1.0
    E[1, 1, 1], E[1, 2, 2] = 1.0, -1.0
    for k, (i, j) in enumerate([(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]):
        E[2 + k, i, j] = 1.0
    return load_algebra({"name": "sl3", "basis": E, "form": "trace",
                         "domain_radius": 0.3})


@pytest.fixture(scope="session")
def so4():
    """so(4) with -1/2 the trace form: the six 4 x 4 rotation generators."""
    E = np.zeros((6, 4, 4))
    for k, (i, j) in enumerate([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]):
        E[k, i, j], E[k, j, i] = -1.0, 1.0
    return load_algebra({"name": "so4", "basis": E, "form": "neg_half_trace"})


@pytest.fixture(scope="session")
def oscillator():
    """The Nappi-Witten (oscillator) algebra in 4 x 4 matrices.

    Basis J = E21 - E12, P1 = E01 + E23, P2 = E02 - E13, T = -[P1, P2]/2,
    with <P_i, P_j> = delta_ij, <J, T> = -1/2 and <J, J> = 0.3.  It is not
    reductive, and its trace form is degenerate, so the form is given.
    """
    def unit(i, j):
        m = np.zeros((4, 4))
        m[i, j] = 1.0
        return m

    J = unit(2, 1) - unit(1, 2)
    P1 = unit(0, 1) + unit(2, 3)
    P2 = unit(0, 2) - unit(1, 3)
    T = -0.5 * (P1 @ P2 - P2 @ P1)
    form = [[0.3, 0.0, 0.0, -0.5],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [-0.5, 0.0, 0.0, 0.0]]
    return load_algebra({"name": "oscillator", "basis": np.stack([J, P1, P2, T]),
                         "form": form})


def oracle_varpi(alg, W):
    """varpi at the stack W (B, d) by the double-sum closed form, as (B, d, d).

    -1/2 sum_{k,l} cL_k cL_l / (k + l + 3) (A^k)^T K_W A^l, A = ad_W, with
    the first 22 terms cL_k of L(s) = (1 - e^{-s})/s and K_W[i, j] =
    <W, [e_i, e_j]>: the term-by-term integral of
    -1/2 int_0^1 t^2 L(t A)^T K_W L(t A) dt.  With A^k = sum_i r[k, i] A^i
    in the Cayley-Hamilton power basis this is -1/2 sum_{i,j} C_ij
    (A^i)^T K_W A^j, C = R^T H R, R[k, i] = cL_k r[k, i], H_kl = 1/(k + l + 3).
    """
    cL = np.array(fn_dexp.taylor[:22])
    kl = np.arange(22)
    H = 1.0 / (kl[:, None] + kl[None, :] + 3.0)
    N, d = W.shape
    K = np.einsum('ijl,lk,...k->...ij', alg.structure, alg.Q, W)
    _, pw, r = ad_series(alg.ad(W), cL[None])
    R = (cL[:, None, None] * r).transpose(2, 0, 1)
    C = np.transpose(R, (0, 2, 1)) @ H @ R
    KA = (K[:, None] @ pw).reshape(N, d, d * d)                  # K A^j
    T = (C @ KA).reshape(N, d * d, d)                            # sum_j C_ij K A^j
    M = -0.5 * (np.transpose(pw.reshape(N, d * d, d), (0, 2, 1)) @ T)
    return 0.5 * (M - np.transpose(M, (0, 2, 1)))


def oracle_flow(eng, P, steps):
    """The Moser flow with one divergence per step, after the trajectory.

    RK4 on dp/dt = -v_t, every stage its own moser_w call; then, at each
    step, the divergence of v_t by central differences of moser_w(t, .),
    integrated in t by cumulative Simpson.  Returns (trajectory
    (steps+1, B, 2d), log_density (steps+1, B)).
    """
    dt = 1.0 / steps
    q = P.astype(float)
    traj = [q]
    for k in range(steps):
        t0 = k * dt
        k1 = -eng.moser_w(t0, q)
        k2 = -eng.moser_w(t0 + dt / 2, q + dt / 2 * k1)
        k3 = -eng.moser_w(t0 + dt / 2, q + dt / 2 * k2)
        k4 = -eng.moser_w(min(t0 + dt, 1.0), q + dt * k3)
        q = q + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        traj.append(q)
    div = np.array([
        np.einsum('ibi->b', _central_differences(lambda Q, t=k * dt: eng.moser_w(t, Q), q))
        for k, q in enumerate(traj)])
    return np.array(traj), _cumulative_simpson(div, dt)


def dsigma_dt(eng, t, P, ht=1e-4):
    """d(sigma_t)/dt by a second-order stencil in t (one-sided at t = 0, 1).

    The oracle for d alpha_t = d sigma_t / dt: the engine's alpha never
    differentiates in t.
    """
    if t == 0.0:
        f0 = eng.sigma_t(0.0, P)
        return (-3 * f0 + 4 * eng.sigma_t(ht, P) - eng.sigma_t(2 * ht, P)) / (2 * ht)
    if t == 1.0:
        return (3 * eng.sigma_t(1.0, P) - 4 * eng.sigma_t(1 - ht, P)
                + eng.sigma_t(1 - 2 * ht, P)) / (2 * ht)
    return (eng.sigma_t(t + ht, P) - eng.sigma_t(t - ht, P)) / (2 * ht)


# ---------------------------------------------------------------------------
# exact rational matrix arithmetic (independent oracle for the symbolic side)

def frac_zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def frac_eye(n):
    M = frac_zeros(n)
    for i in range(n):
        M[i][i] = Fraction(1)
    return M


def frac_mul(A, B):
    n = len(A)
    out = frac_zeros(n)
    for i in range(n):
        Ai = A[i]
        for k in range(n):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(n):
                    if Bk[j]:
                        row[j] += a * Bk[j]
    return out


def frac_add(A, B, scale=Fraction(1)):
    n = len(A)
    return [[A[i][j] + scale * B[i][j] for j in range(n)] for i in range(n)]


def frac_scale(A, c):
    return [[c * v for v in row] for row in A]


def is_zero_matrix(A):
    return all(not v for row in A for v in row)


def frac_commutator(A, B):
    return frac_add(frac_mul(A, B), frac_mul(B, A), Fraction(-1))


def exp_nilpotent(M):
    """Exact e^M for nilpotent M (the power series terminates)."""
    n = len(M)
    out = frac_eye(n)
    term = frac_eye(n)
    k = 1
    while True:
        term = frac_scale(frac_mul(term, M), Fraction(1, k))
        if is_zero_matrix(term):
            return out
        out = frac_add(out, term)
        k += 1


def log_unitriangular(M):
    """Exact log for M = I + N with N nilpotent."""
    n = len(M)
    N = frac_add(M, frac_eye(n), Fraction(-1))
    out = frac_zeros(n)
    term = frac_eye(n)
    k = 1
    while True:
        term = frac_mul(term, N)
        if is_zero_matrix(term):
            return out
        out = frac_add(out, frac_scale(term, Fraction((-1) ** (k + 1), k)))
        k += 1


def random_strict_upper(n, rng, denominators=(1, 2, 3, 5)):
    """Random exact-rational strictly upper triangular n x n matrix."""
    M = frac_zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = Fraction(int(rng.integers(-4, 5)),
                               int(rng.choice(denominators)))
    return M


def eval_lie_series_exact(series, MX, MY):
    """Evaluate a LieSeries on exact matrices via standard factorizations."""
    from kvgeom.freelie import standard_factorization

    n = len(MX)
    values = {"x": MX, "y": MY}

    def value(word):
        if word in values:
            return values[word]
        u, v = standard_factorization(word)
        out = frac_commutator(value(u), value(v))
        values[word] = out
        return out

    acc = frac_zeros(n)
    for w, c in series.items():
        acc = frac_add(acc, frac_scale(value(w), c))
    return acc


def eval_lie_series_float(series, alg, X, Y):
    """Evaluate a LieSeries numerically in algebra coordinates."""
    from kvgeom.freelie import standard_factorization

    values = {"x": np.asarray(X, float), "y": np.asarray(Y, float)}

    def value(word):
        if word in values:
            return values[word]
        u, v = standard_factorization(word)
        out = alg.bracket(value(u), value(v))
        values[word] = out
        return out

    acc = np.zeros(alg.dim)
    for w, c in series.items():
        acc = acc + float(c) * value(w)
    return acc


# ---------------------------------------------------------------------------
# power series in the truncated tensor algebra over Fractions (the oracle
# for freelie.u_series, bch and cyclic._trace_rhs)

def exp_series(n):
    """e^s up to s^n: the coefficient of s^k is 1/k!."""
    return [Fraction(1, math.factorial(k)) for k in range(n + 1)]


def substitute_series(coeffs, z, degree):
    """sum_k coeffs[k] z^k truncated, word by word; z must have zero constant term."""
    from kvgeom.freelie import assoc_add, assoc_mul

    if z.get("", Fraction(0)):
        raise ValueError("substitution requires zero constant term")
    out = {"": coeffs[0]} if coeffs[0] else {}
    power = {"": Fraction(1)}
    for k in range(1, len(coeffs)):
        power = assoc_mul(power, z, degree)
        if not power:
            break
        if coeffs[k]:
            out = assoc_add(out, power, coeffs[k])
    return out


def u_by_substitution(order, degree):
    """e^a e^b - 1 as a dict of words, from the exp table at each generator."""
    from kvgeom.freelie import assoc_add, assoc_mul

    a, b = ("x", "y") if order == "XY" else ("y", "x")
    ea = substitute_series(exp_series(degree), {a: Fraction(1)}, degree)
    eb = substitute_series(exp_series(degree), {b: Fraction(1)}, degree)
    return assoc_add(assoc_mul(ea, eb, degree), {"": Fraction(1)}, Fraction(-1))


def bch_by_substitution(degree, order):
    """log1p(e^a e^b - 1) by substitution, projected to the Lyndon basis."""
    from kvgeom.freelie import assoc_to_lyndon, log1p_series

    u = u_by_substitution(order, degree)
    return assoc_to_lyndon(substitute_series(log1p_series(degree), u, degree), degree)
