"""Exact free Lie algebra on two generators x, y over the rationals.

Lie elements are stored in the Lyndon-word basis (lexicographic order with
x < y, standard-factorization bracketing).  All coefficients are
fractions.Fraction or integers; no floats enter this module.

Words of the tensor algebra are only ever integer expansions
(`word_expansion`), brought back to Lyndon coordinates by the
triangularity of the Lyndon basis: the expansion of the bracketing of a
Lyndon word w is w plus a combination of lexicographically larger words of
the same degree.  So the Lyndon entries of a Lie element alone determine
it, through a unitriangular Lyndon x Lyndon system solved in lex order
(`_lyndon_solve`, with the rows `_lyndon_part`); no other word is read.
The bracket of two Lyndon words is one such solve (`_bracket`); it gives
`lie_bracket`.  The integer matrices of ad_x and ad_y between consecutive
degrees (`ad_matrix`) need none: [x, b(w)] = b(xw) for w != x, and
[y, b(w)] is the solve of -b(w) y alone.  One integer f(ad) kernel,
`_ad_series_sum`, runs on those matrices and never leaves the Lyndon basis:
`ad_series_apply` and the solver's eq1 operator both call it.

Power series in u = e^X e^Y - 1 (`u_series`) are summed in integers: a
word of length m is kept as an integer over den * m!, so u itself is one
word x^i y^j per split with coefficient binom(m, i).  `bch` is log1p(u)
on that kernel, built only on prefixes of Lyndon words (Casas and Murua,
J. Math. Phys. 50, 2009) and solved on its Lyndon entries; the trace
equation's g(z) = log1p(u)/u in `cyclic` needs every word and uses the
full kernel.

Every memo is a module-level functools cache, built on first use; `is_lyndon`
is one too, so validating a series costs one lookup per repeated word.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

ALPHABET = ("x", "y")


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
    """All Lyndon words of exactly the given degree, sorted lexicographically
    (a fresh list; the memo holds a tuple)."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return list(_lyndon_basis(degree))


@functools.lru_cache(maxsize=None)
def _lyndon_table() -> List[Tuple[str, ...]]:
    """The Lyndon words by length (entry k: those of length k, lex order),
    from the longest Duval run made so far; _lyndon_upto extends it."""
    return [()]


def _lyndon_upto(degree: int) -> List[Tuple[str, ...]]:
    """_lyndon_table, covering every length <= degree.

    One Duval run to the top degree asked so far serves every lower degree;
    a higher degree reruns it to that degree.  The solver asks for its top
    degree first (bch's prefixes), so a solve makes one run.
    """
    table = _lyndon_table()
    if len(table) <= degree:
        by_length: List[List[str]] = [[] for _ in range(degree + 1)]
        for w in lyndon_words_upto(degree):
            by_length[len(w)].append(w)
        table[:] = map(tuple, by_length)
    return table


def _lyndon_basis(degree: int) -> Tuple[str, ...]:
    return _lyndon_upto(degree)[degree]


@functools.lru_cache(maxsize=None)
def _lyndon_set(degree: int) -> frozenset:
    """The Lyndon words of exactly the given degree, as a set."""
    return frozenset(_lyndon_basis(degree))


@functools.lru_cache(maxsize=None)
def _lyndon_prefixes(degree: int) -> frozenset:
    """Every word that is a prefix of a Lyndon word of length <= degree."""
    return frozenset(w[:i] for words in _lyndon_upto(degree)[:degree + 1]
                     for w in words for i in range(1, len(w) + 1))


@functools.lru_cache(maxsize=None)
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

    Returns ((word, integer coefficient), ...) in no particular order;
    coefficients of Lyndon bracketings are integers.
    """
    if len(word) == 1:
        return ((word, 1),)
    return tuple(_commutator(*standard_factorization(word)).items())


def _commutator(u: str, v: str) -> Dict[str, int]:
    """b(u) b(v) - b(v) b(u) in the tensor algebra, b the standard
    bracketing of a Lyndon word: word -> nonzero integer coefficient."""
    acc: Dict[str, int] = {}
    for wu, cu in word_expansion(u):
        for wv, cv in word_expansion(v):
            acc[wu + wv] = acc.get(wu + wv, 0) + cu * cv
            acc[wv + wu] = acc.get(wv + wu, 0) - cu * cv
    return {w: c for w, c in acc.items() if c}


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
            c = c if isinstance(c, Fraction) else Fraction(c)
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


@functools.lru_cache(maxsize=None)
def _lyndon_part(word: str) -> Tuple[Tuple[str, int], ...]:
    """The Lyndon words other than `word` in `word_expansion(word)`, with
    their integer coefficients: one row of the unitriangular Lyndon x
    Lyndon system that `_lyndon_solve` inverts."""
    lyndon = _lyndon_set(len(word))
    return tuple((v, k) for v, k in word_expansion(word) if v != word and v in lyndon)


def _lyndon_solve(words: Mapping[str, int]) -> Dict[str, int]:
    """Lyndon coordinates of a Lie element without constant term, given by
    its words in the tensor algebra; only its Lyndon-word entries are read.

    The expansion of the bracketing of a Lyndon word w is w plus larger
    words of its degree, so the Lyndon entries form a unitriangular system:
    in lex order, each Lyndon word's coordinate is its entry less what the
    smaller ones put there (`_lyndon_part`).  Integer input gives integer
    output.  The input is trusted to be a Lie element; the words left over
    are never checked.
    """
    coeffs: Dict[str, int] = {}
    spent: Dict[str, int] = {}
    for d in sorted({len(w) for w in words}):
        for w0 in _lyndon_basis(d):
            c0 = words.get(w0, 0) - spent.pop(w0, 0)
            if c0:
                coeffs[w0] = c0
                for word, k in _lyndon_part(w0):
                    spent[word] = spent.get(word, 0) + c0 * k
    return coeffs


def _bracket(u: str, v: str) -> Dict[str, int]:
    """Integer Lyndon coordinates of [b(u), b(v)] for Lyndon words u, v: the
    commutator of their expansions, solved on its Lyndon entries."""
    return _lyndon_solve(_commutator(u, v))


@functools.lru_cache(maxsize=None)
def ad_matrix(letter: str, d: int) -> Mapping[str, Tuple[Tuple[str, int], ...]]:
    """ad_letter from degree d to degree d + 1 on the Lyndon basis.

    Maps each Lyndon word w of degree d to the Lyndon coordinates of
    [letter, w], as ((word, integer coefficient), ...) in lex order.  The
    Lyndon basis is a Z-basis of the free Lie ring, so the entries are
    integers.  Read-only: the memo hands the same mapping to every caller.

    ad_x is read off in closed form: for a Lyndon word w != x, xw is Lyndon
    with standard factorization (x, w), w being smaller than its proper
    suffixes, so [x, b(w)] = b(xw).  No word y v of length >= 2 is Lyndon,
    so [y, b(w)] = y b(w) - b(w) y is the solve of -b(w) y alone.
    """
    if letter not in ALPHABET:
        raise ValueError(f"unknown generator {letter!r}")
    if letter == "x":
        return MappingProxyType({w: (("x" + w, 1),) if w != "x" else ()
                                 for w in lyndon_basis(d)})
    return MappingProxyType({
        w: tuple(sorted(_lyndon_solve({v + "y": -k for v, k in word_expansion(w)}).items()))
        for w in lyndon_basis(d)})


# ---------------------------------------------------------------------------
# Operations

def lie_bracket(s1: LieSeries, s2: LieSeries, degree: int) -> LieSeries:
    """Lie bracket [s1, s2], exact, truncated and reduced to the Lyndon basis:
    sum of a * b * [u, v] over word pairs, each bracket by `_bracket`."""
    out: Dict[str, Fraction] = {}
    for u, a in s1.items():
        for v, b in s2.items():
            if len(u) + len(v) <= degree:
                for w, k in _bracket(u, v).items():
                    out[w] = out.get(w, 0) + a * b * k
    return LieSeries(degree, out)


def _ad_series_sum(parts: Sequence[Tuple[Sequence[Fraction], str, Mapping[str, Fraction]]],
                   degree: int) -> Dict[str, Fraction]:
    """sum over parts (f, letter, coeffs) of sum_k f[k] (ad_letter)^k coeffs
    through degree, coeffs and result as Lyndon word -> coefficient.

    All f over one common denominator and all coeffs over another: each
    power of ad is a sparse integer mat-vec through `ad_matrix`, and the
    only division is the final one per word.
    """
    f_den = math.lcm(*(c.denominator for f, _, _ in parts for c in f[:degree + 1]))
    den = math.lcm(*(c.denominator for _, _, coeffs in parts
                     for w, c in coeffs.items() if len(w) <= degree))
    out: Dict[str, int] = {}
    for f, letter, coeffs in parts:
        weights = [c.numerator * (f_den // c.denominator) for c in f[:degree + 1]]
        acc = {w: c.numerator * (den // c.denominator)
               for w, c in coeffs.items() if len(w) <= degree}
        for weight in weights:          # acc is (ad_letter)^k coeffs
            image: Dict[str, int] = {}
            for w, n in acc.items():
                out[w] = out.get(w, 0) + weight * n
                if len(w) < degree:
                    for w1, m in ad_matrix(letter, len(w))[w]:
                        image[w1] = image.get(w1, 0) + m * n
            acc = {w: n for w, n in image.items() if n}
    return {w: Fraction(n, f_den * den) for w, n in out.items() if n}


def ad_series_apply(f: Sequence[Fraction], direction: str, target: LieSeries,
                    degree: int) -> LieSeries:
    """Apply sum_k f[k] (ad_direction)^k to target, truncated at degree.

    f lists the power-series coefficients f0, f1, ...; it must reach at
    least index `degree` (longer is fine).  Summed in integers by
    `_ad_series_sum`, with no bracket through the tensor algebra.
    """
    if direction not in ALPHABET:
        raise ValueError(f"unknown generator {direction!r}")
    if len(f) < degree + 1:
        raise ValueError(f"need series coefficients up to index {degree}")
    return LieSeries(degree, _ad_series_sum([(f, direction, dict(target.items()))], degree))


def u_series(coeffs: Sequence[Fraction], order: str, degree: int,
             keep: frozenset | None = None) -> Tuple[Dict[str, int], int]:
    """sum_{k>=1} coeffs[k] u^k with u = e^a e^b - 1, truncated at degree,
    where (a, b) = (x, y) for order "XY" and (y, x) for "YX".

    Returns (words, den): a word w of length m has the coefficient
    words[w] / (den * m!), with den the lcm of the denominators of coeffs.
    coeffs[0] is ignored.  Scaled by m!, u is one word a^i b^j per split of
    m with coefficient binom(m, i), and a word of length la times one of
    length lb gains binom(la + lb, la), so every coefficient is an integer
    (Goldberg, Duke Math. J. 23, 1956).  Powers are built length bucket by
    length bucket, so no product longer than the degree is formed.

    With a prefix-closed set `keep`, only its words are kept: a word's
    coefficient in u^(k+1) is made from those of its prefixes in u^k, so
    the words of `keep` come out as in the full sum, and no product that
    leaves `keep` is accumulated.
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
    power = [{w: c for w, c in bucket if keep is None or w in keep}
             for bucket in u]                 # u^k by length, empty below k
    out: Dict[str, int] = {}
    for k in range(1, degree + 1):
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
                        if keep is None or w in keep:
                            acc[w] = acc.get(w, 0) + ca * cb
        power = nxt
    return {w: c for w, c in out.items() if c}, den


@functools.lru_cache(maxsize=None)
def bch(degree: int, order: str = "XY") -> LieSeries:
    """Campbell-Hausdorff series log(e^X e^Y) (or log(e^Y e^X)), truncated.

    log1p(u) with u = e^X e^Y - 1, by the integer kernel `u_series` built
    only on prefixes of Lyndon words (Casas and Murua, J. Math. Phys. 50,
    2009); the Lyndon coordinates come from `_lyndon_solve`, which never
    mixes lengths, and each is divided by its length's den * m! once.
    Exact throughout.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    words, den = u_series(log1p_series(degree), order, degree, _lyndon_prefixes(degree))
    return LieSeries(degree, {w: Fraction(n, den * math.factorial(len(w)))
                              for w, n in _lyndon_solve(words).items()})


def rescale(s: LieSeries, t) -> LieSeries:
    """Degree scaling m_t^*: a word of degree d picks up a factor t^d."""
    t = Fraction(t)
    return LieSeries(s.degree, {w: c * t ** len(w) for w, c in s.items()})


def swap_generators(s: LieSeries) -> LieSeries:
    """The substitution endomorphism X <-> Y, result in the Lyndon basis:
    each word's integer expansion, letters swapped, solved back."""
    tr = str.maketrans("xy", "yx")
    out: Dict[str, Fraction] = {}
    for w, c in s.items():
        solved = _lyndon_solve({word.translate(tr): k for word, k in word_expansion(w)})
        for v, k in solved.items():
            out[v] = out.get(v, 0) + c * k
    return LieSeries(s.degree, out)


# ---------------------------------------------------------------------------
# Series coefficient tables (exact)
#
# Every series coefficient of the package is written here, once.  The
# numeric engines (`matrixlie`, `geom`) take float() of these entries.

def log1p_series(n: int) -> List[Fraction]:
    """log(1 + s) up to s^n: the coefficient of s^k is (-1)^(k+1)/k for k >= 1."""
    return [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, n + 1)]


def log1p_over_s(n: int) -> List[Fraction]:
    """log(1 + s)/s up to s^n: the coefficient of s^k is (-1)^k/(k+1)."""
    return [Fraction((-1) ** k, k + 1) for k in range(n + 1)]


def exp_minus_one_over_s(n: int) -> List[Fraction]:
    """R(s) = (e^s - 1)/s up to s^n: the coefficient of s^k is 1/(k+1)!."""
    return [Fraction(1, math.factorial(k + 1)) for k in range(n + 1)]


def one_minus_exp_neg(n: int) -> List[Fraction]:
    """1 - e^{-s} up to s^n: the coefficient of s^k is (-1)^(k+1)/k! for k >= 1."""
    return [Fraction(0)] + [Fraction((-1) ** (k + 1), math.factorial(k))
                            for k in range(1, n + 1)]


def exp_minus_one(n: int) -> List[Fraction]:
    """e^s - 1 up to s^n: the coefficient of s^k is 1/k! for k >= 1."""
    return [Fraction(0)] + [Fraction(1, math.factorial(k)) for k in range(1, n + 1)]


def one_minus_exp_neg_over_s(n: int) -> List[Fraction]:
    """L(s) = (1 - e^{-s})/s up to s^n: the coefficient of s^k is (-1)^k/(k+1)!."""
    return [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(n + 1)]


def exp_neg(n: int) -> List[Fraction]:
    """e^{-s} up to s^n: the coefficient of s^k is (-1)^k/k!."""
    return [Fraction((-1) ** k, math.factorial(k)) for k in range(n + 1)]


def sinh_minus_s_over_s2(n: int) -> List[Fraction]:
    """(sinh s - s)/s^2 up to s^n: the coefficient of s^k is 1/(k+2)! for odd k, else 0."""
    return [Fraction(k % 2, math.factorial(k + 2)) for k in range(n + 1)]


def g_coefficients(n: int) -> List[Fraction]:
    """g(s) = s/(e^s - 1) up to s^n, the Todd series: the coefficient of
    s^k is B_k/k!, with the Bernoulli numbers B_0 = 1, B_1 = -1/2 of the
    recurrence sum_{k <= m} binom(m + 1, k) B_k = 0 (B_k = 0 for odd k >= 3)."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        if m % 2 and m > 1:
            b.append(Fraction(0))
        else:
            b.append(-sum((math.comb(m + 1, k) * b[k] for k in range(m) if b[k]),
                          Fraction(0)) / (m + 1))
    return [c / math.factorial(k) for k, c in enumerate(b)]


# ---------------------------------------------------------------------------
# Report formatting

def format_fraction(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"
