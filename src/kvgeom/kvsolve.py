"""Degreewise exact solver for the Kashiwara-Vergne equations.

The first equation,

    log(e^Y e^X) - X - Y = (1 - e^{-ad_X}) A + (e^{ad_Y} - 1) B,

is linear in (A, B) degree by degree: the degree-d parts of A and B enter
the degree-(d+1) component (ad raises degree by one) through ad_x and ad_y,
whose integer matrices on the Lyndon basis (`freelie.ad_matrix`) are the
eq1 block.  The operator (`_eq1_operator`) is one integer f(ad) sum over
both tables (`freelie._ad_series_sum`), divided once per word.  The one
degree loop, in `solve_kv`, keeps one running residual as a plain dict,
the left side minus the operator on the parts solved so far; its
degree-(d+1) coefficients are the right-hand side.  The joint strategy
appends the degree-d necklace components of the trace equation, whose
columns are `cyclic.trace_column`.
Each degree is solved by fraction-free Gauss-Jordan elimination on sparse
integer rows, pivoting from the last column to the first of a fixed order
(A-coefficients before B-coefficients, words in lex order): the free
variables, set to zero, are the earliest unknowns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple

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

def _combine(row: Dict[int, int], prow: Dict[int, int], c: int) -> Dict[int, int]:
    """p row - f prow, with f, p their entries in column c (so column c
    drops out), divided by its content: only the nonzero entries are read."""
    f, p = row[c], prow[c]
    g = math.gcd(f, p)
    f, p = f // g, p // g
    out = {k: p * v for k, v in row.items()}
    for k, v in prow.items():
        w = out.get(k, 0) - f * v
        if w:
            out[k] = w
        else:
            del out[k]
    g = math.gcd(*out.values())
    return {k: v // g for k, v in out.items()} if g > 1 else out


def _rref(rows: List[Dict[int, int]], order: List[int]) -> Tuple[List[Dict[int, int]], List[int]]:
    """Fraction-free Gauss-Jordan elimination of {column: nonzero int} rows.

    Pivot columns are tried in `order`; in each, the shortest remaining row
    that holds it is the pivot row, and only the rows that hold the column
    are combined with it.  Returns (pivot rows, pivot columns): dividing
    pivot row i by its entry in pivots[i] gives the RREF row, which is
    unique for the order.
    """
    rest = [row for row in rows if row]
    done: List[Dict[int, int]] = []
    pivots: List[int] = []
    for c in order:
        holders = [i for i, row in enumerate(rest) if c in row]
        if not holders:
            continue
        prow = rest.pop(min(holders, key=lambda i: len(rest[i])))
        done = [_combine(row, prow, c) if c in row else row for row in done]
        rest = [_combine(row, prow, c) if c in row else row for row in rest]
        done.append(prow)
        pivots.append(c)
    return done, pivots


def solve_exact(rows: List[List[Fraction]], rhs: List[Fraction]
                ) -> Tuple[List[Fraction], List[int], Tuple[int, int]]:
    """Solve M x = b exactly; free variables zero.

    Entries are Fractions or ints.  Each row of [M | b] is scaled to
    integers by the lcm of its denominators and eliminated by `_rref`,
    pivoting on the columns of M from the last to the first, so the free
    columns are the earliest (solutions prefer B), and on b last, which is
    a pivot exactly when there is no solution.  Returns (particular
    solution, free columns, (rank M, rank [M|b])).
    """
    n = len(rows[0]) if rows else 0
    aug = []
    for row, b in zip(rows, rhs):
        entries = {c: v for c, v in enumerate([*row, b]) if v}
        scale = math.lcm(*(v.denominator for v in entries.values()))
        aug.append({c: v.numerator * (scale // v.denominator) for c, v in entries.items()})
    red, pivots = _rref(aug, [*range(n - 1, -1, -1), n])
    rank_aug = len(pivots)
    rank_lhs = rank_aug - (n in pivots)
    sol = [Fraction(0)] * n
    if rank_aug == rank_lhs:
        for row, c in zip(red, pivots):
            sol[c] = Fraction(row.get(n, 0), row[c])
    return sol, [c for c in range(n) if c not in pivots], (rank_lhs, rank_aug)


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
    lhs = bch(n, "YX") - LieSeries.generator("x", n) - LieSeries.generator("y", n)
    trace_rhs = cyclic._trace_rhs(degree) if strategy == "joint-eq1-eq2" else None
    # a plain dict: it is read one word at a time and updated in place
    residual = dict(lhs.items())
    coeffsA: Dict[str, Fraction] = {}
    coeffsB: Dict[str, Fraction] = {}
    partA: Dict[str, Fraction] = {}
    partB: Dict[str, Fraction] = {}
    for d in range(1, degree + 1):
        # subtract the operator on the parts of degree d - 1
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
    return KVPair(LieSeries(degree, coeffsA), LieSeries(degree, coeffsB),
                  degree, strategy)


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
