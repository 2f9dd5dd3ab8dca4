"""Exact free Lie algebra on two generators x, y over the rationals.

Lie elements are stored in the Lyndon-word basis (lexicographic order with
x < y, standard-factorization bracketing).  All coefficients are
fractions.Fraction or integers; no floats enter this module.

A Lie element can be expanded into the tensor algebra (words with exact
coefficients) and projected back to Lyndon coordinates.  The projection
uses the triangularity of the Lyndon basis: the expansion of the
bracketing of a Lyndon word w is w plus a combination of lexicographically
larger words of the same degree, so a greedy sweep in lex order recovers
the coordinates.  The same sweep builds, in integers, the matrices of ad_x
and ad_y between consecutive degrees (`ad_matrix`); `ad_series_apply` runs
on those and never leaves the Lyndon basis.

Power series in u = e^X e^Y - 1 (`u_series`) are summed in integers: a
word of length m is kept as an integer over den * m!, so u itself is one
word x^i y^j per split with coefficient binom(m, i).  `bch` is log1p(u)
on that kernel, projected by the same sweep, and the trace equation's
g(z) = log1p(u)/u in `cyclic` uses it as well.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

ALPHABET = ("x", "y")

Assoc = Dict[str, Fraction]  # word -> coefficient, finitely supported


# ---------------------------------------------------------------------------
# Lyndon words

def lyndon_words_upto(n: int) -> List[str]:
    """All Lyndon words of length <= n over the ordered ALPHABET, in lex order.

    Duval's generation algorithm.
    """
    if n < 1:
        return []
    k = len(ALPHABET)
    out: List[str] = []
    w = [0]
    while w:
        out.append("".join(ALPHABET[c] for c in w))
        m = len(w)
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()
        if w:
            w[-1] += 1
    return out


def lyndon_basis(degree: int) -> List[str]:
    """All Lyndon words of exactly the given degree, sorted lexicographically."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return [w for w in lyndon_words_upto(degree) if len(w) == degree]


def is_lyndon(word: str) -> bool:
    """True if word is strictly smaller than all of its proper rotations."""
    if not word:
        return False
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


def standard_factorization(word: str) -> Tuple[str, str]:
    """Split a Lyndon word of length >= 2 as u*v with v the smallest proper suffix."""
    v = min(word[i:] for i in range(1, len(word)))
    return word[: len(word) - len(v)], v


@functools.lru_cache(maxsize=None)
def word_expansion(word: str) -> Tuple[Tuple[str, int], ...]:
    """Tensor-algebra expansion of the standard bracketing of a Lyndon word.

    Returns ((word, integer coefficient), ...); coefficients of Lyndon
    bracketings are integers.
    """
    if len(word) == 1:
        return ((word, 1),)
    u, v = standard_factorization(word)
    eu, ev = word_expansion(u), word_expansion(v)
    acc: Dict[str, int] = {}
    for wu, cu in eu:
        for wv, cv in ev:
            acc[wu + wv] = acc.get(wu + wv, 0) + cu * cv
            acc[wv + wu] = acc.get(wv + wu, 0) - cu * cv
    return tuple(sorted((w, c) for w, c in acc.items() if c))


# ---------------------------------------------------------------------------
# Associative (tensor algebra) arithmetic, truncated by total degree

def assoc_add(a: Assoc, b: Assoc, scale: Fraction = Fraction(1)) -> Assoc:
    out = dict(a)
    for w, c in b.items():
        nc = out.get(w, Fraction(0)) + scale * c
        if nc:
            out[w] = nc
        else:
            out.pop(w, None)
    return out


def assoc_mul(a: Assoc, b: Assoc, max_degree: int) -> Assoc:
    out: Dict[str, Fraction] = {}
    for wa, ca in a.items():
        la = len(wa)
        if la > max_degree:
            continue
        for wb, cb in b.items():
            if la + len(wb) > max_degree:
                continue
            w = wa + wb
            nc = out.get(w, Fraction(0)) + ca * cb
            if nc:
                out[w] = nc
            else:
                out.pop(w, None)
    return out


def assoc_commutator(a: Assoc, b: Assoc, max_degree: int) -> Assoc:
    return assoc_add(assoc_mul(a, b, max_degree), assoc_mul(b, a, max_degree), Fraction(-1))


# ---------------------------------------------------------------------------
# Word series; Lie series in the Lyndon basis

def _degree_lex(item: Tuple[str, Fraction]) -> Tuple[int, str]:
    return len(item[0]), item[0]


class WordSeries:
    """Truncated series of words with rational coefficients.

    Immutable by convention: no method mutates self.  Words of degree
    > self.degree are rejected, as are words the subclass does not admit
    (`_admits`, with `_rule` naming the rule in the error); zero
    coefficients are dropped; iteration order is (degree, lex).  `_show`
    prints a word in the repr.
    """

    __slots__ = ("degree", "_c")

    def __init__(self, degree: int, coeffs: Dict[str, Fraction] | None = None):
        if degree < 0:
            raise ValueError("truncation degree must be >= 0")
        self.degree = degree
        clean: Dict[str, Fraction] = {}
        for w, c in sorted((coeffs or {}).items(), key=_degree_lex):
            c = Fraction(c)
            if not c:
                continue
            if len(w) > degree:
                raise ValueError(f"word {w!r} exceeds truncation degree {degree}")
            if not self._admits(w):
                raise ValueError(f"{w!r} {self._rule}")
            clean[w] = c
        self._c = clean

    @staticmethod
    def _show(word: str) -> str:
        return word

    # -- access ------------------------------------------------------------
    def coefficient(self, word: str) -> Fraction:
        return self._c.get(word, Fraction(0))

    def items(self) -> List[Tuple[str, Fraction]]:
        return list(self._c.items())

    def component(self, d: int):
        return type(self)(self.degree, {w: c for w, c in self._c.items() if len(w) == d})

    def truncated(self, n: int):
        return type(self)(n, {w: c for w, c in self._c.items() if len(w) <= n})

    def is_zero(self) -> bool:
        return not self._c

    @classmethod
    def _from_valid(cls, degree: int, coeffs: Dict[str, Fraction]):
        """A series from Fraction coefficients on admitted words of length
        <= degree, such as arithmetic on valid series of this type yields:
        drops zeros and orders the words, without checking them again."""
        out = object.__new__(cls)
        out.degree = degree
        out._c = {w: c for w, c in sorted(coeffs.items(), key=_degree_lex) if c}
        return out

    # -- algebra -----------------------------------------------------------
    def _combine(self, other, sign: int):
        """self + sign * other, truncated to the lower degree: one series."""
        n = min(self.degree, other.degree)
        out = {w: c for w, c in self._c.items() if len(w) <= n}
        for w, c in other._c.items():
            if len(w) <= n:
                out[w] = out.get(w, 0) + sign * c
        if type(other) is not type(self):
            return type(self)(n, out)      # other's words must pass self's rule
        return self._from_valid(n, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, factor):
        f = Fraction(factor)
        return self._from_valid(self.degree, {w: f * c for w, c in self._c.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._c == other._c

    def __hash__(self):
        return hash(tuple(self._c.items()))

    def __repr__(self) -> str:
        name = type(self).__name__
        if not self._c:
            return f"{name}(0)"
        body = " + ".join(f"({c})*{self._show(w)}" for w, c in self._c.items())
        return f"{name}[N={self.degree}]({body})"


class LieSeries(WordSeries):
    """Graded Lie-algebra element, coefficients over the Lyndon basis."""

    __slots__ = ()
    _rule = "is not a Lyndon word"
    _admits = staticmethod(is_lyndon)

    def words(self) -> List[str]:
        return list(self._c)

    @staticmethod
    def zero(degree: int) -> "LieSeries":
        return LieSeries(degree, {})

    @staticmethod
    def generator(letter: str, degree: int) -> "LieSeries":
        if letter not in ALPHABET:
            raise ValueError(f"unknown generator {letter!r}")
        return LieSeries(degree, {letter: Fraction(1)})


def lie_to_assoc(s: LieSeries) -> Assoc:
    """Embed a LieSeries into the tensor algebra (concatenation words)."""
    out: Dict[str, Fraction] = {}
    for w, c in s.items():
        for word, k in word_expansion(w):
            nc = out.get(word, Fraction(0)) + c * k
            if nc:
                out[word] = nc
            else:
                out.pop(word, None)
    return out


def _lyndon_sweep(remaining: Dict[str, Fraction]) -> Dict[str, Fraction]:
    """Lyndon coordinates of a Lie element without constant term, given by
    its words in the tensor algebra, by the triangular lex sweep; consumes
    `remaining`.

    Works over any exact coefficients: integer input gives integer output,
    since each expansion has leading coefficient 1.  Raises ValueError on a
    word that no Lie element can leave.

    One heap of words per degree: the expansion of a Lyndon word w0 has w0
    as its smallest word, so every word it adds comes after w0, and a word
    popped after its coefficient cancelled is skipped.
    """
    coeffs: Dict[str, Fraction] = {}
    for d in sorted({len(w) for w in remaining}):
        heap = [w for w in remaining if len(w) == d]
        heapq.heapify(heap)
        while heap:
            w0 = heapq.heappop(heap)
            if w0 not in remaining:
                continue
            if not is_lyndon(w0):
                raise ValueError(f"input is not a Lie element (stray word {w0!r})")
            c0 = remaining[w0]
            coeffs[w0] = c0
            for word, k in word_expansion(w0):
                nc = remaining.get(word, 0) - c0 * k
                if nc:
                    if word not in remaining:
                        heapq.heappush(heap, word)
                    remaining[word] = nc
                else:
                    remaining.pop(word, None)
    return coeffs


def assoc_to_lyndon(p: Assoc, degree: int) -> LieSeries:
    """Project a Lie element given in the tensor algebra to Lyndon coordinates.

    Raises ValueError if the input is not a Lie element up to the truncation.
    """
    if any((not w) and c for w, c in p.items()):
        raise ValueError("constant term present: not a Lie element")
    return LieSeries(degree, _lyndon_sweep(
        {w: c for w, c in p.items() if 0 < len(w) <= degree and c}))


@functools.lru_cache(maxsize=None)
def ad_matrix(letter: str, d: int) -> Mapping[str, Tuple[Tuple[str, int], ...]]:
    """ad_letter from degree d to degree d + 1 on the Lyndon basis.

    Maps each Lyndon word w of degree d to the Lyndon coordinates of
    [letter, w], as ((word, integer coefficient), ...) in lex order.  The
    Lyndon basis is a Z-basis of the free Lie ring, so the entries are
    integers.  Read-only: the memo hands the same mapping to every caller.
    """
    if letter not in ALPHABET:
        raise ValueError(f"unknown generator {letter!r}")
    cols = {}
    for w in lyndon_basis(d):
        comm: Dict[str, int] = {}
        for word, k in word_expansion(w):
            comm[letter + word] = comm.get(letter + word, 0) + k
            comm[word + letter] = comm.get(word + letter, 0) - k
        cols[w] = tuple(sorted(_lyndon_sweep({u: c for u, c in comm.items() if c}).items()))
    return MappingProxyType(cols)


# ---------------------------------------------------------------------------
# Operations

def lie_bracket(s1: LieSeries, s2: LieSeries, degree: int) -> LieSeries:
    """Lie bracket [s1, s2], exact, truncated and reduced to the Lyndon basis."""
    a = {w: c for w, c in lie_to_assoc(s1).items() if len(w) <= degree}
    b = {w: c for w, c in lie_to_assoc(s2).items() if len(w) <= degree}
    return assoc_to_lyndon(assoc_commutator(a, b, degree), degree)


def ad_series_apply(f: Sequence[Fraction], direction: str, target: LieSeries,
                    degree: int) -> LieSeries:
    """Apply sum_k f[k] (ad_direction)^k to target, truncated at degree.

    f lists the power-series coefficients f0, f1, ...; it must reach at
    least index `degree` (longer is fine).  Each power of ad is a sparse
    integer mat-vec through `ad_matrix` on the target's numerators over a
    common denominator; the f[k] enter over theirs, so the only division is
    the final one per word.
    """
    if direction not in ALPHABET:
        raise ValueError(f"unknown generator {direction!r}")
    if len(f) < degree + 1:
        raise ValueError(f"need series coefficients up to index {degree}")
    f = [Fraction(c) for c in f[:degree + 1]]
    f_den = math.lcm(*(c.denominator for c in f))
    weights = [c.numerator * (f_den // c.denominator) for c in f]
    terms = [(w, c) for w, c in target.items() if len(w) <= degree]
    den = math.lcm(*(c.denominator for _, c in terms))
    acc = {w: c.numerator * (den // c.denominator) for w, c in terms}
    out = {w: weights[0] * n for w, n in acc.items()}
    for k in range(1, degree + 1):
        image: Dict[str, int] = {}
        for w, n in acc.items():
            if len(w) < degree:
                for w1, m in ad_matrix(direction, len(w))[w]:
                    image[w1] = image.get(w1, 0) + m * n
        acc = {w: n for w, n in image.items() if n}
        if not acc:
            break
        for w, n in acc.items():
            out[w] = out.get(w, 0) + weights[k] * n
    return LieSeries(degree, {w: Fraction(n, f_den * den) for w, n in out.items()})


def u_series(coeffs: Sequence[Fraction], order: str,
             degree: int) -> Tuple[Dict[str, int], int]:
    """sum_{k>=1} coeffs[k] u^k with u = e^a e^b - 1, truncated at degree,
    where (a, b) = (x, y) for order "XY" and (y, x) for "YX".

    Returns (words, den): a word w of length m has the coefficient
    words[w] / (den * m!), with den the lcm of the denominators of coeffs.
    coeffs[0] is ignored.  Scaled by m!, u is one word a^i b^j per split of
    m with coefficient binom(m, i), and a word of length la times one of
    length lb gains binom(la + lb, la), so every coefficient is an integer
    (Goldberg, Duke Math. J. 23, 1956).  Powers are built length bucket by
    length bucket, so no product longer than the degree is formed.
    """
    if order not in ("XY", "YX"):
        raise ValueError("order must be 'XY' or 'YX'")
    a, b = ("x", "y") if order == "XY" else ("y", "x")
    coeffs = [Fraction(c) for c in coeffs[:degree + 1]]
    if len(coeffs) < degree + 1:
        raise ValueError(f"need series coefficients up to index {degree}")
    den = math.lcm(*(c.denominator for c in coeffs[1:]))
    weights = [0] + [c.numerator * (den // c.denominator) for c in coeffs[1:]]
    u = [[]] + [[(a * i + b * (m - i), math.comb(m, i)) for i in range(m + 1)]
                for m in range(1, degree + 1)]
    power = [dict(bucket) for bucket in u]    # u^k by length, empty below k
    out: Dict[str, int] = {}
    for k in range(1, degree + 1):
        if weights[k]:
            for bucket in power[k:]:
                for w, c in bucket.items():
                    out[w] = out.get(w, 0) + weights[k] * c
        nxt: List[Dict[str, int]] = [{} for _ in range(degree + 1)]
        for la in range(k, degree):
            for lb in range(1, degree - la + 1):
                scale, acc = math.comb(la + lb, la), nxt[la + lb]
                for wb, cb in u[lb]:
                    cb *= scale
                    for wa, ca in power[la].items():
                        w = wa + wb
                        acc[w] = acc.get(w, 0) + ca * cb
        power = nxt
    return {w: c for w, c in out.items() if c}, den


@functools.lru_cache(maxsize=None)
def bch(degree: int, order: str = "XY") -> LieSeries:
    """Campbell-Hausdorff series log(e^X e^Y) (or log(e^Y e^X)), truncated.

    log1p(u) with u = e^X e^Y - 1, by the integer kernel `u_series`; the
    integer words are projected to the Lyndon basis by the lex sweep, which
    never mixes lengths, and each Lyndon coefficient is divided by its
    length's den * m! once.  Exact throughout.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    words, den = u_series(log1p_series(degree), order, degree)
    return LieSeries(degree, {w: Fraction(n, den * math.factorial(len(w)))
                              for w, n in _lyndon_sweep(words).items()})


def rescale(s: LieSeries, t) -> LieSeries:
    """Degree scaling m_t^*: a word of degree d picks up a factor t^d."""
    t = Fraction(t)
    return LieSeries(s.degree, {w: c * t ** len(w) for w, c in s.items()})


def swap_generators(s: LieSeries) -> LieSeries:
    """The substitution endomorphism X <-> Y, result in the Lyndon basis."""
    swapped: Dict[str, Fraction] = {}
    tr = str.maketrans("xy", "yx")
    for w, c in lie_to_assoc(s).items():
        swapped[w.translate(tr)] = c
    return assoc_to_lyndon(swapped, s.degree)


def negate_generators(s: LieSeries) -> LieSeries:
    """The substitution X -> -X, Y -> -Y (degree-d terms scale by (-1)^d)."""
    return rescale(s, -1)


# ---------------------------------------------------------------------------
# Series coefficient tables (exact)

def log1p_series(n: int) -> List[Fraction]:
    """log(1 + s) up to s^n: the coefficient of s^k is (-1)^(k+1)/k for k >= 1."""
    return [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, n + 1)]


def log1p_over_s(n: int) -> List[Fraction]:
    """log(1 + s)/s up to s^n: the coefficient of s^k is (-1)^k/(k+1)."""
    return [Fraction((-1) ** k, k + 1) for k in range(n + 1)]


def exp_minus_one_over_s(n: int) -> List[Fraction]:
    """(e^s - 1)/s up to s^n: the coefficient of s^k is 1/(k+1)!."""
    return [Fraction(1, math.factorial(k + 1)) for k in range(n + 1)]


def one_minus_exp_neg(n: int) -> List[Fraction]:
    """1 - e^{-s} up to s^n: the coefficient of s^k is (-1)^(k+1)/k! for k >= 1."""
    return [Fraction(0)] + [Fraction((-1) ** (k + 1), math.factorial(k))
                            for k in range(1, n + 1)]


def exp_minus_one(n: int) -> List[Fraction]:
    """e^s - 1 up to s^n: the coefficient of s^k is 1/k! for k >= 1."""
    return [Fraction(0)] + [Fraction(1, math.factorial(k)) for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Report formatting

def format_fraction(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"
