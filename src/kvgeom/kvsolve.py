"""Degreewise exact solver for the Kashiwara-Vergne equations.

The first equation,

    log(e^Y e^X) - X - Y = (1 - e^{-ad_X}) A + (e^{ad_Y} - 1) B,

is linear in (A, B) degree by degree: the degree-d parts of A and B enter
the degree-(d+1) component (ad raises degree by one), together with known
contributions from lower degrees.  Each degree is an exact linear system
over the rationals, solved by Gaussian elimination; free variables are set
to zero under a fixed column order (A-coefficients before B-coefficients,
words in lex order).  The joint strategy appends the degreewise components
of the trace equation, which is affine in (A, B).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import cyclic
from .freelie import (
    LieSeries,
    ad_series_apply,
    bch,
    exp_minus_one,
    lie_bracket,
    lyndon_basis,
    one_minus_exp_neg,
    standard_factorization,
)


class KVPair:
    """A candidate solution pair (A, B), truncated at a common degree."""

    __slots__ = ("A", "B", "degree", "strategy")

    def __init__(self, A: LieSeries, B: LieSeries, degree: int, strategy: str = ""):
        self.A = A.truncated(degree) if A.degree != degree else A
        self.B = B.truncated(degree) if B.degree != degree else B
        self.degree = degree
        self.strategy = strategy

    def __repr__(self):
        return f"KVPair(N={self.degree}, strategy={self.strategy!r})"


class InfeasibleDegreeError(RuntimeError):
    """The linear system at some degree has no solution."""

    def __init__(self, degree: int, rank_lhs: int, rank_aug: int, n_unknowns: int):
        self.degree = degree
        self.rank_lhs = rank_lhs
        self.rank_aug = rank_aug
        self.n_unknowns = n_unknowns
        super().__init__(
            f"infeasible linear system at degree {degree}: "
            f"rank(M) = {rank_lhs}, rank([M|b]) = {rank_aug}, unknowns = {n_unknowns}")


def kv1_residual(pair: KVPair, degree: int) -> LieSeries:
    """[bch(YX) - X - Y] - [(1 - e^{-ad_X}) A + (e^{ad_Y} - 1) B], exact."""
    lhs = bch(degree, "YX") - LieSeries.generator("x", degree) - LieSeries.generator("y", degree)
    fA = one_minus_exp_neg(degree)
    fB = exp_minus_one(degree)
    rhs = (ad_series_apply(fA, "x", pair.A.truncated(degree), degree)
           + ad_series_apply(fB, "y", pair.B.truncated(degree), degree))
    return lhs - rhs


# ---------------------------------------------------------------------------
# exact linear algebra

def _rref(rows: List[List[Fraction]], ncols: int) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [row[:] for row in rows]
    pivots: List[int] = []
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


def solve_exact(rows: List[List[Fraction]], rhs: List[Fraction]
                ) -> Tuple[List[Fraction], List[List[Fraction]], Tuple[int, int]]:
    """Solve M x = b exactly; free variables zero.

    Pivots are chosen scanning columns right to left, so the free variables
    (zeroed) are the earliest columns under the fixed ordering: with
    A-coefficients listed before B-coefficients this prefers solutions
    supported on B.  Returns (particular solution, kernel basis,
    (rank M, rank [M|b])); callers inspect the ranks for feasibility.
    """
    n = len(rows[0]) if rows else 0
    aug = [row[::-1] + [b] for row, b in zip(rows, rhs)]
    red, pivots = _rref(aug, n)
    rank_aug = len([row for row in red if any(row)])
    rank_lhs = len(pivots)
    sol = [Fraction(0)] * n
    if rank_aug == rank_lhs:
        for i, c in enumerate(pivots):
            sol[n - 1 - c] = red[i][n]
    kernel: List[List[Fraction]] = []
    free_cols = [c for c in range(n) if c not in pivots]
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[n - 1 - fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[n - 1 - c] = -red[i][fc]
        kernel.append(vec)
    return sol, kernel, (rank_lhs, rank_aug)


# ---------------------------------------------------------------------------
# system assembly

def _bracket_columns(direction: str, words: Sequence[str], degree: int
                     ) -> Dict[str, Dict[str, Fraction]]:
    """For each basis word w, the Lyndon coordinates of [gen, w] one degree up."""
    gen = LieSeries.generator(direction, degree)
    cols = {}
    for w in words:
        col = lie_bracket(gen, LieSeries(degree, {w: Fraction(1)}), degree)
        cols[w] = dict(col.items())
    return cols


def _eq1_rows(d: int, lhs: LieSeries, lowerA: LieSeries, lowerB: LieSeries
              ) -> Tuple[List[str], List[List[Fraction]], List[Fraction]]:
    """Rows of the degree-(d+1) component of the first equation.

    `lhs` is the degree-(d+1) component of the Campbell-Hausdorff
    inhomogeneity log(e^Y e^X) - X - Y (zero for the homogeneous
    continuation of kernel vectors).  Unknown order: A-coefficients then
    B-coefficients, words in lex order.
    """
    words_d = lyndon_basis(d)
    words_d1 = lyndon_basis(d + 1)
    n = d + 1
    colsA = _bracket_columns("x", words_d, n)
    colsB = _bracket_columns("y", words_d, n)

    # known part: LHS_{d+1} minus the lower-degree operator contributions
    fA = one_minus_exp_neg(n)
    fB = exp_minus_one(n)
    known = ad_series_apply(fA, "x", lowerA.truncated(n), n).component(d + 1) \
        + ad_series_apply(fB, "y", lowerB.truncated(n), n).component(d + 1)
    target = lhs - known

    rows = []
    rhs = []
    for w1 in words_d1:
        row = [colsA[w].get(w1, Fraction(0)) for w in words_d]
        row += [colsB[w].get(w1, Fraction(0)) for w in words_d]
        rows.append(row)
        rhs.append(target.coefficient(w1))
    return words_d, rows, rhs


def _necklaces(d: int) -> List[str]:
    seen = set()
    for bits in range(2 ** d):
        w = "".join("xy"[(bits >> i) & 1] for i in range(d))
        seen.add(cyclic.min_rotation(w))
    return sorted(seen)


def _eq2_rows(d: int, residual0: cyclic.CyclicWordSeries
              ) -> Tuple[List[List[Fraction]], List[Fraction]]:
    """Degree-d necklace component of the trace equation, linear in (A_d, B_d).

    `residual0` is the degree-d component of the trace residual of the zero
    pair.
    """
    words_d = lyndon_basis(d)
    necks = _necklaces(d)
    idx = {m: i for i, m in enumerate(necks)}

    def lhs_column(word: str, slot: str) -> List[Fraction]:
        s = LieSeries(d, {word: Fraction(1)})
        letter = "x" if slot == "X" else "y"
        contrib = cyclic.cyclic_reduce(
            cyclic.delta_derivative(s, slot, d).left_concat(letter))
        col = [Fraction(0)] * len(necks)
        for m, c in contrib.items():
            col[idx[m]] = c
        return col

    colsA = [lhs_column(w, "X") for w in words_d]
    colsB = [lhs_column(w, "Y") for w in words_d]

    # residual(0,0) = LHS(0,0) - RHS = -RHS; the equation LHS(A,B) = RHS reads
    # LHS(A,B) + residual(0,0) = 0
    rhs = [-residual0.coefficient(m) for m in necks]

    rows = []
    for i in range(len(necks)):
        rows.append([colsA[j][i] for j in range(len(words_d))]
                    + [colsB[j][i] for j in range(len(words_d))])
    return rows, rhs


def _solve_degrees(degrees: Sequence[int], lhs: LieSeries,
                   residual0: cyclic.CyclicWordSeries | None,
                   coeffsA: Dict[str, Fraction], coeffsB: Dict[str, Fraction]) -> None:
    """Solve the given degrees in turn, writing A_d and B_d into coeffsA/coeffsB.

    Each degree's system is the degree-(d+1) component of the first
    equation (inhomogeneity `lhs`) on top of the parts already in
    coeffsA/coeffsB, plus the degree-d trace rows when `residual0` (the
    trace residual of the zero pair) is given.  Free variables are zero;
    raises InfeasibleDegreeError if some degree admits no solution.
    """
    for d in degrees:
        words_d, rows, rhs = _eq1_rows(d, lhs.component(d + 1),
                                       LieSeries(d, coeffsA), LieSeries(d, coeffsB))
        if residual0 is not None:
            rows2, rhs2 = _eq2_rows(d, residual0.component(d))
            rows += rows2
            rhs += rhs2
        sol, _, (rank_lhs, rank_aug) = solve_exact(rows, rhs)
        if rank_aug != rank_lhs:
            raise InfeasibleDegreeError(d, rank_lhs, rank_aug, 2 * len(words_d))
        k = len(words_d)
        for w, a, b in zip(words_d, sol[:k], sol[k:]):
            if a:
                coeffsA[w] = a
            if b:
                coeffsB[w] = b


def solve_kv(degree: int, strategy: str = "eq1-only") -> KVPair:
    """Solve the Kashiwara-Vergne system degree by degree, exactly.

    strategy 'eq1-only' imposes the first equation; 'joint-eq1-eq2' adds the
    degreewise necklace components of the trace equation.  Deterministic:
    free variables are zero under the fixed column order.  Raises
    InfeasibleDegreeError if some degree admits no solution.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if strategy not in ("eq1-only", "joint-eq1-eq2"):
        raise ValueError(f"unknown strategy {strategy!r}")
    n = degree + 1
    lhs1 = bch(n, "YX") - LieSeries.generator("x", n) - LieSeries.generator("y", n)
    residual0 = None
    if strategy == "joint-eq1-eq2":
        zero = LieSeries.zero(degree)
        residual0 = cyclic.kv2_residual(zero, zero, degree)
    coeffsA: Dict[str, Fraction] = {}
    coeffsB: Dict[str, Fraction] = {}
    _solve_degrees(range(1, degree + 1), lhs1, residual0, coeffsA, coeffsB)
    return KVPair(LieSeries(degree, coeffsA), LieSeries(degree, coeffsB),
                  degree, strategy)


def eq1_kernel_basis(d: int, degree_cap: int | None = None) -> List[KVPair]:
    """Kernel elements of the truncated first equation, seeded at degree d.

    Each degree-d block-kernel vector is completed upward: the higher
    degrees solve the homogeneous continuation (the triangular system with
    the Campbell-Hausdorff inhomogeneity dropped), free variables zero.
    Adding any returned pair to a solution preserves kv1_residual = 0 up to
    degree_cap.
    """
    cap = degree_cap or d
    words_d = lyndon_basis(d)
    zero = LieSeries.zero(cap + 1)
    _, rows, _ = _eq1_rows(d, zero, zero, zero)
    _, kernel, _ = solve_exact(rows, [Fraction(0)] * len(rows))
    out = []
    k = len(words_d)
    for vec in kernel:
        coeffsA = {w: c for w, c in zip(words_d, vec[:k]) if c}
        coeffsB = {w: c for w, c in zip(words_d, vec[k:]) if c}
        _solve_degrees(range(d + 1, cap + 1), zero, None, coeffsA, coeffsB)
        out.append(KVPair(LieSeries(cap, coeffsA), LieSeries(cap, coeffsB),
                          cap, "kernel"))
    return out


# ---------------------------------------------------------------------------
# numerical evaluation on a concrete algebra

def evaluate_pair(pair: KVPair, algebra, X: np.ndarray, Y: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate (A, B) at concrete algebra elements, in basis coordinates."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)

    def eval_series(series: LieSeries) -> np.ndarray:
        values: Dict[str, np.ndarray] = {"x": X, "y": Y}

        def value(word: str) -> np.ndarray:
            if word in values:
                return values[word]
            u, v = standard_factorization(word)
            out = algebra.bracket(value(u), value(v))
            values[word] = out
            return out

        acc = np.zeros(algebra.dim)
        for w, c in series.items():
            acc = acc + float(c) * value(w)
        return acc

    return eval_series(pair.A), eval_series(pair.B)
