"""Degreewise exact solver for the Kashiwara-Vergne equations.

The first equation,

    log(e^Y e^X) - X - Y = (1 - e^{-ad_X}) A + (e^{ad_Y} - 1) B,

is linear in (A, B) degree by degree: the degree-d parts of A and B enter
the degree-(d+1) component (ad raises degree by one) through ad_x and ad_y,
whose integer matrices on the Lyndon basis (`freelie.ad_matrix`) are the
eq1 block.  The operator (`_eq1_operator`) is one integer f(ad) sum over
both tables (`freelie._ad_series_sum`), divided once per word.  The degree
loop keeps one running residual as a plain dict, the left side minus the
operator on the parts solved so far; its degree-(d+1) coefficients are the
right-hand side.  The joint strategy appends the degree-d necklace
components of the trace equation, whose columns are `cyclic.trace_column`.
Each degree is solved by fraction-free Gauss-Jordan elimination on rows
scaled to integers; free variables are set to zero under a fixed column
order (A-coefficients before B-coefficients, words in lex order).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from . import cyclic
from .freelie import (
    LieSeries,
    _ad_series_sum,
    ad_matrix,
    bch,
    exp_minus_one,
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


def _eq1_operator(A: Mapping[str, Fraction], B: Mapping[str, Fraction],
                  n: int) -> Dict[str, Fraction]:
    """(1 - e^{-ad_X}) A + (e^{ad_Y} - 1) B through degree n, exact, on
    Lyndon word -> coefficient maps: one integer sum with the weights
    (-1)^{k+1} n!/k! and n!/k!, one division per word."""
    return _ad_series_sum([(one_minus_exp_neg(n), "x", A), (exp_minus_one(n), "y", B)], n)


def kv1_residual(pair: KVPair, degree: int) -> LieSeries:
    """[bch(YX) - X - Y] - [(1 - e^{-ad_X}) A + (e^{ad_Y} - 1) B], exact."""
    lhs = bch(degree, "YX") - LieSeries.generator("x", degree) - LieSeries.generator("y", degree)
    return lhs - LieSeries(degree, _eq1_operator(dict(pair.A.items()),
                                                 dict(pair.B.items()), degree))


# ---------------------------------------------------------------------------
# exact linear algebra

def _rref(rows: List[List[int]], ncols: int) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (rows, pivot column indices) in reduced echelon form up to a
    nonzero integer factor per row: pivot row i is zero in every pivot
    column but pivots[i], and dividing it by its entry there gives the
    RREF row.  Pivots are taken over the first ncols columns, the first
    nonzero entry at or below the current row in each; trailing rows with
    no entry left are dropped.  Every row stays a nonzero multiple of the
    row that elimination over the rationals holds, with its content
    divided out, so the zero pattern, and with it the pivots, match.
    """
    mat = [row[:] for row in rows]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        p = prow[c]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(mat[i], prow)]
                g = math.gcd(*row)
                mat[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r] + [row for row in mat[r:] if any(row)], pivots


def solve_exact(rows: List[List[Fraction]], rhs: List[Fraction]
                ) -> Tuple[List[Fraction], List[List[Fraction]], Tuple[int, int]]:
    """Solve M x = b exactly; free variables zero.

    Entries are Fractions or ints.  Each row of [M | b] is scaled to
    integers by the lcm of its denominators and eliminated by `_rref`; a
    solution entry is the one division of its RREF row by the pivot.
    Pivots are chosen scanning columns right to left, so the free variables
    (zeroed) are the earliest columns under the fixed ordering: with
    A-coefficients listed before B-coefficients this prefers solutions
    supported on B.  Returns (particular solution, kernel basis,
    (rank M, rank [M|b])); callers inspect the ranks for feasibility.
    """
    n = len(rows[0]) if rows else 0
    aug = []
    for row, b in zip(rows, rhs):
        entries = row[::-1] + [b]
        scale = math.lcm(*(v.denominator for v in entries))
        aug.append([v.numerator * (scale // v.denominator) for v in entries])
    red, pivots = _rref(aug, n)
    rank_lhs = len(pivots)
    # the rows past the pivot rows are zero on M; any of them spans b
    rank_aug = rank_lhs + (len(red) > rank_lhs)
    sol = [Fraction(0)] * n
    if rank_aug == rank_lhs:
        for i, c in enumerate(pivots):
            sol[n - 1 - c] = Fraction(red[i][n], red[i][c])
    kernel: List[List[Fraction]] = []
    free_cols = [c for c in range(n) if c not in pivots]
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[n - 1 - fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[n - 1 - c] = Fraction(-red[i][fc], red[i][c])
        kernel.append(vec)
    return sol, kernel, (rank_lhs, rank_aug)


# ---------------------------------------------------------------------------
# system assembly

def _eq1_rows(d: int) -> List[List[int]]:
    """Rows of the degree-(d+1) component of the first equation in (A_d, B_d).

    The degree-d parts enter through the first-order terms f1 ad = ad
    (f1 = 1 for both series): the columns are those of ad_x and ad_y, one
    row per Lyndon word of degree d + 1.  Unknown order: A-coefficients
    then B-coefficients, words in lex order.
    """
    words_d = lyndon_basis(d)
    index = {w: i for i, w in enumerate(lyndon_basis(d + 1))}
    k = len(words_d)
    rows = [[0] * (2 * k) for _ in index]
    for j, w in enumerate(words_d):
        for offset, letter in ((0, "x"), (k, "y")):
            for w1, m in ad_matrix(letter, d)[w]:
                rows[index[w1]][offset + j] = m
    return rows


def _eq2_rows(d: int, rhs_d: cyclic.CyclicWordSeries
              ) -> Tuple[List[List[int]], List[Fraction]]:
    """Degree-d necklace component of the trace equation, linear in (A_d, B_d).

    `rhs_d` is the degree-d component of the trace right-hand side.  One
    row per necklace that a column or `rhs_d` holds; any other necklace
    gives an all-zero row, which elimination drops.
    """
    words_d = lyndon_basis(d)
    cols = [dict(cyclic.trace_column(w, letter)) for letter in "xy" for w in words_d]
    necks = sorted({m for col in cols for m in col} | {m for m, _ in rhs_d.items()})
    rows = [[col.get(m, 0) for col in cols] for m in necks]
    return rows, [rhs_d.coefficient(m) for m in necks]


def _solve_degrees(degrees: Sequence[int], lhs: LieSeries,
                   trace_rhs: cyclic.CyclicWordSeries | None,
                   coeffsA: Dict[str, Fraction], coeffsB: Dict[str, Fraction]) -> None:
    """Solve the given degrees in turn, writing A_d and B_d into coeffsA/coeffsB.

    The running residual is the inhomogeneity `lhs` minus the eq1 operator
    on the parts solved so far: each degree first subtracts the operator on
    the parts added last (at the start, those already in coeffsA/coeffsB),
    then reads its eq1 right-hand side off the degree-(d+1) words.  The
    degree-d trace rows are added when `trace_rhs` (the trace right-hand
    side) is given.  Free variables are zero; raises InfeasibleDegreeError
    if some degree admits no solution.
    """
    n = lhs.degree
    # a plain dict: it is read one word at a time and updated in place
    residual = dict(lhs.items())
    partA, partB = dict(coeffsA), dict(coeffsB)
    for d in degrees:
        for w, c in _eq1_operator(partA, partB, n).items():
            residual[w] = residual.get(w, 0) - c
        words_d = lyndon_basis(d)
        k = len(words_d)
        rows = _eq1_rows(d)
        rhs = [residual.get(w, 0) for w in lyndon_basis(d + 1)]
        if trace_rhs is not None:
            rows2, rhs2 = _eq2_rows(d, trace_rhs.component(d))
            rows += rows2
            rhs += rhs2
        sol, _, (rank_lhs, rank_aug) = solve_exact(rows, rhs)
        if rank_aug != rank_lhs:
            raise InfeasibleDegreeError(d, rank_lhs, rank_aug, 2 * k)
        partA = {w: a for w, a in zip(words_d, sol[:k]) if a}
        partB = {w: b for w, b in zip(words_d, sol[k:]) if b}
        coeffsA.update(partA)
        coeffsB.update(partB)


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
    trace_rhs = cyclic._trace_rhs(degree) if strategy == "joint-eq1-eq2" else None
    coeffsA: Dict[str, Fraction] = {}
    coeffsB: Dict[str, Fraction] = {}
    _solve_degrees(range(1, degree + 1), lhs1, trace_rhs, coeffsA, coeffsB)
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
    rows = _eq1_rows(d)
    _, kernel, _ = solve_exact(rows, [Fraction(0)] * len(rows))
    out = []
    k = len(words_d)
    for vec in kernel:
        coeffsA = {w: c for w, c in zip(words_d, vec[:k]) if c}
        coeffsB = {w: c for w, c in zip(words_d, vec[k:]) if c}
        _solve_degrees(range(d + 1, cap + 1), LieSeries.zero(cap + 1), None,
                       coeffsA, coeffsB)
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
