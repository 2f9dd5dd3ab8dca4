"""Formal trace calculus on words in ad_x, ad_y.

A word w1...wk stands for the operator ad_{w1} o ... o ad_{wk}.  Taking a
formal trace makes words equivalent under rotation; CyclicWordSeries
stores each class by its lexicographically minimal rotation, the empty
word's coefficient representing tr(1) = dim of the algebra.

The directional derivative delta_X F (resp. delta_Y F) of a Lie series is
the operator series P with  d/ds F(X + s a, Y)|_{s=0} = P(ad_x, ad_y) . a.
Because ad is a Lie homomorphism, P obeys the derivation rule
P_{[u,v]} = iota(u) P_v - iota(v) P_u on bracketings, with iota the
tensor-algebra expansion; `_word_derivative` computes it in integers by
recursion on the standard factorisation of each Lyndon word
(Alekseev-Torossian, arXiv:0802.4300).

The solver's `trace_column` and `_trace_rhs` reduce integer words straight
to necklaces through the memoised `min_rotation`.  The trace equation's
Todd series g(s) = s/(e^s - 1) is `freelie.g_coefficients`, one of the
exact series tables that both engines read.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, Tuple

from .freelie import (
    LieSeries,
    WordSeries,
    format_fraction,
    g_coefficients,
    log1p_over_s,
    standard_factorization,
    u_series,
    word_expansion,
)


class CyclicWordSeries(WordSeries):
    """Rational combination of necklaces (words modulo rotation).

    Keys are stored as their lexicographically minimal rotation.  The empty
    word carries tr(1): it is read as .scalar and left out of .items().
    """

    __slots__ = ()
    _rule = "is not a minimal rotation"

    def __init__(self, degree: int, coeffs: Dict[str, Fraction] | None = None,
                 scalar: Fraction = Fraction(0)):
        super().__init__(degree, {**(coeffs or {}), "": scalar} if scalar else coeffs)

    @staticmethod
    def _admits(word: str) -> bool:
        return word == min_rotation(word)

    @staticmethod
    def _show(word: str) -> str:
        return f"<{word}>" if word else "1"

    @property
    def scalar(self) -> Fraction:
        return self.coefficient("")

    def items(self) -> List[Tuple[str, Fraction]]:
        return [(w, c) for w, c in self._c.items() if w]

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "scalar": format_fraction(self.scalar),
            "necklaces": [{"word": w, "c": format_fraction(c)} for w, c in self.items()],
        }


@functools.lru_cache(maxsize=None)
def min_rotation(word: str) -> str:
    """Lexicographically minimal rotation (memoised naive scan; words are short)."""
    if len(word) <= 1:
        return word
    return min(word[i:] + word[:i] for i in range(len(word)))


# ---------------------------------------------------------------------------
# Directional derivatives

@functools.lru_cache(maxsize=None)
def _word_derivative(word: str, letter: str) -> Tuple[Tuple[str, int], ...]:
    """Operator series P_w of the bracketing of a Lyndon word, in the slot of
    `letter`: ((word, integer coefficient), ...).

    A letter gives the identity when it is the slot's letter and zero
    otherwise; w = uv (standard factorisation) gives
    P_w = iota(u) P_v - iota(v) P_u.
    """
    if len(word) == 1:
        return (("", 1),) if word == letter else ()
    u, v = standard_factorization(word)
    acc: Dict[str, int] = {}
    for left, right, sign in ((u, v, 1), (v, u, -1)):
        for we, ce in word_expansion(left):
            for wp, cp in _word_derivative(right, letter):
                acc[we + wp] = acc.get(we + wp, 0) + sign * ce * cp
    return tuple(sorted((w, c) for w, c in acc.items() if c))


@functools.lru_cache(maxsize=None)
def trace_column(word: str, letter: str) -> Tuple[Tuple[str, int], ...]:
    """cyc(letter . P_word), P_word the operator series of the Lyndon word
    `word` in the slot of `letter`: ((necklace, integer coefficient), ...).

    The trace equation's column of the coefficient of `word` in A (letter
    x) or B (letter y), read directly off `_word_derivative`.
    """
    acc: Dict[str, int] = {}
    for w, c in _word_derivative(word, letter):
        m = min_rotation(letter + w)
        acc[m] = acc.get(m, 0) + c
    return tuple(sorted((m, c) for m, c in acc.items() if c))


# ---------------------------------------------------------------------------
# The trace form of the second Kashiwara-Vergne equation

def kv2_residual(A: LieSeries, B: LieSeries, degree: int) -> CyclicWordSeries:
    """LHS minus RHS of the trace equation, as a necklace series.

    LHS = cyc(x . delta_X(A) + y . delta_Y(B));
    RHS = -1/2 cyc(g(x) + g(y) - g(z) - 1),  g(s) = s/(e^s - 1),
    with z the image of log(e^X e^Y) under the bracket-to-commutator
    homomorphism.  Scalar parts cancel since g(0) = 1.  The LHS sums
    `trace_column` over the words of A and B of length <= degree.
    """
    lhs: Dict[str, Fraction] = {}
    for series, letter in ((A, "x"), (B, "y")):
        for w, c in series.items():
            if len(w) <= degree:
                for m, k in trace_column(w, letter):
                    lhs[m] = lhs.get(m, 0) + c * k
    return CyclicWordSeries(degree, lhs) - _trace_rhs(degree)


@functools.lru_cache(maxsize=None)
def _trace_rhs(degree: int) -> CyclicWordSeries:
    """RHS of the trace equation, -1/2 cyc(g(x) + g(y) - g(z) - 1), through
    `degree`; built once per degree and shared by every kv2_residual call.

    e^z = e^X e^Y, so g(z) = log1p(u)/u = sum_k (-1)^k u^k/(k+1) with
    u = e^X e^Y - 1, summed by the integer kernel `u_series`.  Its integer
    words go straight to their necklaces; the words of a necklace share
    one length m, so each necklace's integer sum is read over 2 den m!.
    g(x) and g(y) are one word per degree; the constant terms cancel.
    """
    words, den = u_series(log1p_over_s(degree), "XY", degree)
    necks: Dict[str, int] = {}
    for w, n in words.items():
        m = min_rotation(w)
        necks[m] = necks.get(m, 0) + n
    out = {m: Fraction(n, 2 * den * math.factorial(len(m))) for m, n in necks.items()}
    for m, c in enumerate(g_coefficients(degree)[1:], 1):
        for letter in "xy":
            out[letter * m] = out.get(letter * m, 0) - c / 2
    return CyclicWordSeries(degree, out)


def fold_reversal(series: CyclicWordSeries) -> CyclicWordSeries:
    """Project onto the quotient by the trace relations of quadratic algebras.

    On any quadratic Lie algebra tr(ad_{w1}...ad_{wk}) equals
    (-1)^k tr(ad_{wk}...ad_{w1}), so necklaces satisfy
    <w> = (-1)^deg <reverse(w)>.  Each class is folded onto the smaller of
    the two canonical rotations; odd-degree palindromic classes vanish.
    """
    out: Dict[str, Fraction] = {}
    for w, c in series.items():
        r = min_rotation(w[::-1])
        sign = Fraction((-1) ** len(w))
        if w == r:
            if len(w) % 2 == 1:
                continue  # <w> = -<w> in the quotient
            key, coeff = w, c
        elif w < r:
            key, coeff = w, c
        else:
            key, coeff = r, c * sign
        out[key] = out.get(key, Fraction(0)) + coeff
    return CyclicWordSeries(series.degree, out, series.scalar)
