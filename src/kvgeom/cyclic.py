"""Formal trace calculus on words in ad_x, ad_y.

AssocSeries holds operator-valued series: a word w1...wk stands for the
composition ad_{w1} o ... o ad_{wk}.  Taking a formal trace makes words
equivalent under rotation; CyclicWordSeries stores each class by its
lexicographically minimal rotation, with the empty word's coefficient
(representing tr(1) = dim of the algebra) kept separately as a scalar.

The directional derivative delta_X F (resp. delta_Y F) of a Lie series is
the operator series P with  d/ds F(X + s a, Y)|_{s=0} = P(ad_x, ad_y) . a.
Because ad is a Lie homomorphism, P obeys the derivation rule
P_{[u,v]} = iota(u) P_v - iota(v) P_u on bracketings, with iota the
tensor-algebra expansion; it is computed by recursion on the standard
factorisation of each Lyndon word (Alekseev-Torossian, arXiv:0802.4300).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, List, Tuple

from .freelie import (
    LieSeries,
    assoc_add,
    assoc_mul,
    assoc_scale,
    bch,
    exp_minus_one_over_s,
    format_fraction,
    lie_to_assoc,
    standard_factorization,
    word_expansion,
)

Assoc = Dict[str, Fraction]


class AssocSeries:
    """Truncated series of words over {x, y} with rational coefficients.

    Immutable by convention; canonical storage order is (degree, lex); the
    empty word is allowed (identity operator).
    """

    __slots__ = ("degree", "_c")

    def __init__(self, degree: int, coeffs: Dict[str, Fraction] | None = None):
        if degree < 0:
            raise ValueError("truncation degree must be >= 0")
        self.degree = degree
        clean: Dict[str, Fraction] = {}
        for w, c in sorted((coeffs or {}).items(), key=lambda it: (len(it[0]), it[0])):
            c = Fraction(c)
            if not c:
                continue
            if len(w) > degree:
                raise ValueError(f"word {w!r} exceeds truncation degree {degree}")
            if any(ch not in "xy" for ch in w):
                raise ValueError(f"word {w!r} has letters outside x, y")
            clean[w] = c
        self._c = clean

    def coefficient(self, word: str) -> Fraction:
        return self._c.get(word, Fraction(0))

    def items(self) -> List[Tuple[str, Fraction]]:
        return list(self._c.items())

    def as_dict(self) -> Assoc:
        return dict(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def component(self, d: int) -> "AssocSeries":
        return AssocSeries(self.degree, {w: c for w, c in self._c.items() if len(w) == d})

    def __add__(self, other: "AssocSeries") -> "AssocSeries":
        n = min(self.degree, other.degree)
        out = {w: c for w, c in self._c.items() if len(w) <= n}
        for w, c in other._c.items():
            if len(w) <= n:
                out[w] = out.get(w, Fraction(0)) + c
        return AssocSeries(n, out)

    def __sub__(self, other: "AssocSeries") -> "AssocSeries":
        return self + other.scaled(Fraction(-1))

    def scaled(self, factor) -> "AssocSeries":
        f = Fraction(factor)
        return AssocSeries(self.degree, {w: f * c for w, c in self._c.items()})

    def left_concat(self, letter: str) -> "AssocSeries":
        """Compose ad_letter on the left: word w becomes letter + w."""
        return AssocSeries(self.degree,
                           {letter + w: c for w, c in self._c.items() if len(w) < self.degree})

    def __eq__(self, other) -> bool:
        return isinstance(other, AssocSeries) and self._c == other._c

    def __hash__(self):
        return hash(tuple(self._c.items()))

    def __repr__(self) -> str:
        if not self._c:
            return "AssocSeries(0)"
        body = " + ".join(f"({c})*{w or '1'}" for w, c in self._c.items())
        return f"AssocSeries[N={self.degree}]({body})"


class CyclicWordSeries:
    """Rational combination of necklaces (words modulo rotation).

    Keys are stored as their lexicographically minimal rotation; the empty
    word's coefficient lives in .scalar.
    """

    __slots__ = ("degree", "scalar", "_c")

    def __init__(self, degree: int, coeffs: Dict[str, Fraction] | None = None,
                 scalar: Fraction = Fraction(0)):
        self.degree = degree
        self.scalar = Fraction(scalar)
        clean: Dict[str, Fraction] = {}
        for w, c in sorted((coeffs or {}).items(), key=lambda it: (len(it[0]), it[0])):
            c = Fraction(c)
            if not c:
                continue
            if len(w) > degree:
                raise ValueError(f"necklace {w!r} exceeds truncation degree {degree}")
            if w != min_rotation(w):
                raise ValueError(f"{w!r} is not a minimal rotation")
            clean[w] = c
        self._c = clean

    def coefficient(self, necklace: str) -> Fraction:
        return self._c.get(necklace, Fraction(0))

    def items(self) -> List[Tuple[str, Fraction]]:
        return list(self._c.items())

    def is_zero(self) -> bool:
        return not self._c and not self.scalar

    def component(self, d: int) -> "CyclicWordSeries":
        if d == 0:
            return CyclicWordSeries(self.degree, {}, self.scalar)
        return CyclicWordSeries(self.degree,
                                {w: c for w, c in self._c.items() if len(w) == d})

    def __add__(self, other: "CyclicWordSeries") -> "CyclicWordSeries":
        n = min(self.degree, other.degree)
        out = {w: c for w, c in self._c.items() if len(w) <= n}
        for w, c in other._c.items():
            if len(w) <= n:
                out[w] = out.get(w, Fraction(0)) + c
        return CyclicWordSeries(n, out, self.scalar + other.scalar)

    def __sub__(self, other: "CyclicWordSeries") -> "CyclicWordSeries":
        return self + other.scaled(Fraction(-1))

    def scaled(self, factor) -> "CyclicWordSeries":
        f = Fraction(factor)
        return CyclicWordSeries(self.degree, {w: f * c for w, c in self._c.items()},
                                f * self.scalar)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CyclicWordSeries)
                and self._c == other._c and self.scalar == other.scalar)

    def __repr__(self) -> str:
        parts = []
        if self.scalar:
            parts.append(f"({self.scalar})*1")
        parts += [f"({c})*<{w}>" for w, c in self._c.items()]
        return f"CyclicWordSeries[N={self.degree}](" + (" + ".join(parts) or "0") + ")"

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "scalar": format_fraction(self.scalar),
            "necklaces": [{"word": w, "c": format_fraction(c)} for w, c in self.items()],
        }


def min_rotation(word: str) -> str:
    """Lexicographically minimal rotation (naive scan; words here are short)."""
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


def delta_derivative(series: LieSeries, slot: str, degree: int) -> AssocSeries:
    """Directional derivative delta_X (slot='X') or delta_Y of a Lie series.

    The operator series P with  d/ds series(X + s a, Y)|_{s=0} = P . a
    (resp. Y + s a), as sum_w c_w P_w over the series' Lyndon words; each
    P_w comes from the derivation rule on the standard factorisation.
    """
    if slot not in ("X", "Y"):
        raise ValueError("slot must be 'X' or 'Y'")
    letter = "x" if slot == "X" else "y"
    p: Assoc = {}
    for w, c in series.items():
        for word, k in _word_derivative(w, letter):
            p[word] = p.get(word, Fraction(0)) + c * k
    return AssocSeries(degree, p)


def cyclic_reduce(p: AssocSeries) -> CyclicWordSeries:
    """Project words onto necklaces (trace cyclicity); empty word -> scalar."""
    out: Dict[str, Fraction] = {}
    scalar = Fraction(0)
    for w, c in p.items():
        if not w:
            scalar += c
            continue
        m = min_rotation(w)
        nc = out.get(m, Fraction(0)) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return CyclicWordSeries(p.degree, out, scalar)


# ---------------------------------------------------------------------------
# The trace form of the second Kashiwara-Vergne equation

def g_coefficients(n: int) -> List[Fraction]:
    """Exact coefficients of g(s) = s/(e^s - 1) up to s^n.

    Computed by series inversion of (e^s - 1)/s rather than from a table
    of Bernoulli numbers.
    """
    r = exp_minus_one_over_s(n)
    g = [Fraction(0)] * (n + 1)
    g[0] = Fraction(1)
    for m in range(1, n + 1):
        g[m] = -sum((r[k] * g[m - k] for k in range(1, m + 1)), Fraction(0))
    return g


def substitute_series(coeffs: List[Fraction], z: Assoc, degree: int) -> Assoc:
    """sum_k coeffs[k] z^k truncated; z must have zero constant term."""
    if z.get("", Fraction(0)):
        raise ValueError("substitution requires zero constant term")
    out: Assoc = {"": coeffs[0]} if coeffs[0] else {}
    power: Assoc = {"": Fraction(1)}
    for k in range(1, len(coeffs)):
        power = assoc_mul(power, z, degree)
        if not power:
            break
        if coeffs[k]:
            out = assoc_add(out, assoc_scale(power, coeffs[k]))
    return out


def kv2_residual(A: LieSeries, B: LieSeries, degree: int) -> CyclicWordSeries:
    """LHS minus RHS of the trace equation, as a necklace series.

    LHS = cyc(x . delta_X(A) + y . delta_Y(B));
    RHS = -1/2 cyc(g(x) + g(y) - g(z) - 1),  g(s) = s/(e^s - 1),
    with z the image of log(e^X e^Y) under the bracket-to-commutator
    homomorphism.  Scalar parts cancel since g(0) = 1.
    """
    lhs_assoc = (delta_derivative(A, "X", degree).left_concat("x")
                 + delta_derivative(B, "Y", degree).left_concat("y"))
    return cyclic_reduce(lhs_assoc) - _trace_rhs(degree)


@functools.lru_cache(maxsize=None)
def _trace_rhs(degree: int) -> CyclicWordSeries:
    """RHS of the trace equation, -1/2 cyc(g(x) + g(y) - g(z) - 1), through
    `degree`; built once per degree and shared by every kv2_residual call."""
    g = g_coefficients(degree)
    z = lie_to_assoc(bch(degree, "XY"))
    z = {w: c for w, c in z.items() if len(w) <= degree}
    gx = substitute_series(g, {"x": Fraction(1)}, degree)
    gy = substitute_series(g, {"y": Fraction(1)}, degree)
    gz = substitute_series(g, z, degree)
    bracket = assoc_add(assoc_add(gx, gy), gz, Fraction(-1))
    bracket = assoc_add(bracket, {"": Fraction(1)}, Fraction(-1))
    return cyclic_reduce(AssocSeries(degree, bracket)).scaled(Fraction(-1, 2))


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
        nc = out.get(key, Fraction(0)) + coeff
        if nc:
            out[key] = nc
        else:
            out.pop(key, None)
    return CyclicWordSeries(series.degree, out, series.scalar)
