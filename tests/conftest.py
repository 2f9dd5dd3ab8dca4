"""Shared fixtures, exact-arithmetic oracle helpers, acceptance reporting."""

from fractions import Fraction

import numpy as np
import pytest

from kvgeom.matrixlie import builtin_algebras, get_algebra, load_algebra

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
