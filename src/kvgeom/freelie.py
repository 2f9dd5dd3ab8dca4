"""Exact free Lie algebra on two generators x, y over the rationals.

Lie elements are stored in the Lyndon-word basis (lexicographic order with
x < y, standard-factorization bracketing).  All coefficients are
fractions.Fraction; no floats enter this module.

Internally a Lie element is expanded into the tensor algebra (words with
rational coefficients), manipulated there, and projected back to Lyndon
coordinates.  The projection uses the triangularity of the Lyndon basis:
the expansion of the bracketing of a Lyndon word w is w plus a combination
of lexicographically larger words of the same degree, so a greedy sweep in
lex order recovers the coordinates.
"""

from __future__ import annotations

import functools
import json
import math
import os
import tempfile
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

ALPHABET = ("x", "y")

Assoc = Dict[str, Fraction]  # word -> coefficient, finitely supported


# ---------------------------------------------------------------------------
# Lyndon words

def lyndon_words_upto(n: int, alphabet: Sequence[str] = ALPHABET) -> List[str]:
    """All Lyndon words of length <= n over the ordered alphabet, in lex order.

    Duval's generation algorithm.
    """
    if n < 1:
        return []
    k = len(alphabet)
    out: List[str] = []
    w = [0]
    while w:
        out.append("".join(alphabet[c] for c in w))
        m = len(w)
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == k - 1:
            w.pop()
        if w:
            w[-1] += 1
    return out


def lyndon_basis(degree: int, alphabet: Sequence[str] = ALPHABET) -> List[str]:
    """All Lyndon words of exactly the given degree, sorted lexicographically."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return [w for w in lyndon_words_upto(degree, alphabet) if len(w) == degree]


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


def substitute_series(coeffs: Sequence[Fraction], z: Assoc, degree: int) -> Assoc:
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
            out = assoc_add(out, power, coeffs[k])
    return out


# ---------------------------------------------------------------------------
# Word series; Lie series in the Lyndon basis

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
        for w, c in sorted((coeffs or {}).items(), key=lambda it: (len(it[0]), it[0])):
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

    # -- algebra -----------------------------------------------------------
    def __add__(self, other):
        n = min(self.degree, other.degree)
        out = {w: c for w, c in self._c.items() if len(w) <= n}
        for w, c in other._c.items():
            if len(w) <= n:
                out[w] = out.get(w, Fraction(0)) + c
        return type(self)(n, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, factor):
        f = Fraction(factor)
        return type(self)(self.degree, {w: f * c for w, c in self._c.items()})

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


def assoc_to_lyndon(p: Assoc, degree: int) -> LieSeries:
    """Project a Lie element given in the tensor algebra to Lyndon coordinates.

    Raises ValueError if the input is not a Lie element up to the truncation.
    """
    remaining = {w: c for w, c in p.items() if 0 < len(w) <= degree and c}
    if any((not w) and c for w, c in p.items()):
        raise ValueError("constant term present: not a Lie element")
    coeffs: Dict[str, Fraction] = {}
    for d in sorted({len(w) for w in remaining}):
        while True:
            words_d = [w for w in remaining if len(w) == d]
            if not words_d:
                break
            w0 = min(words_d)
            if not is_lyndon(w0):
                raise ValueError(f"input is not a Lie element (stray word {w0!r})")
            c0 = remaining[w0]
            coeffs[w0] = c0
            for word, k in word_expansion(w0):
                nc = remaining.get(word, Fraction(0)) - c0 * k
                if nc:
                    remaining[word] = nc
                else:
                    remaining.pop(word, None)
    return LieSeries(degree, coeffs)


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
    least index `degree` (longer is fine).
    """
    if direction not in ALPHABET:
        raise ValueError(f"unknown generator {direction!r}")
    if len(f) < degree + 1:
        raise ValueError(f"need series coefficients up to index {degree}")
    gen = LieSeries.generator(direction, degree)
    acc = target.truncated(degree)
    out = acc.scaled(f[0])
    for k in range(1, degree + 1):
        if acc.is_zero():
            break
        acc = lie_bracket(gen, acc, degree)
        if f[k]:
            out = out + acc.scaled(f[k])
    return out


@functools.lru_cache(maxsize=None)
def bch(degree: int, order: str = "XY") -> LieSeries:
    """Campbell-Hausdorff series log(e^X e^Y) (or log(e^Y e^X)), truncated.

    Computed as log1p(e^X e^Y - 1) by series substitution in the truncated
    tensor algebra, then projected to the Lyndon basis.  Exact rationals
    throughout.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if order not in ("XY", "YX"):
        raise ValueError("order must be 'XY' or 'YX'")
    first, second = ("x", "y") if order == "XY" else ("y", "x")
    ea = substitute_series(exp_series(degree), {first: Fraction(1)}, degree)
    eb = substitute_series(exp_series(degree), {second: Fraction(1)}, degree)
    u = assoc_add(assoc_mul(ea, eb, degree), {"": Fraction(1)}, Fraction(-1))
    return assoc_to_lyndon(substitute_series(log1p_series(degree), u, degree), degree)


def rescale(s: LieSeries, t) -> LieSeries:
    """Degree scaling m_t^*: a word of degree d picks up a factor t^d."""
    t = Fraction(t)
    return LieSeries(s.degree, {w: c * t ** len(w) for w, c in s.items()})


def phi_series(degree: int, t, order: str = "XY") -> LieSeries:
    """The rescaled series (1/t) m_t^* log(e^X e^Y): degree d scales by t^(d-1).

    Well defined at t = 0, where it degenerates to X + Y.
    """
    t = Fraction(t)
    z = bch(degree, order)
    return LieSeries(degree, {w: c * t ** (len(w) - 1) for w, c in z.items()})


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

def exp_series(n: int) -> List[Fraction]:
    """e^s up to s^n: the coefficient of s^k is 1/k!."""
    return [Fraction(1, math.factorial(k)) for k in range(n + 1)]


def log1p_series(n: int) -> List[Fraction]:
    """log(1 + s) up to s^n: the coefficient of s^k is (-1)^(k+1)/k for k >= 1."""
    return [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, n + 1)]


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
# BCH cache files

def format_fraction(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _cache_payload(series: LieSeries, order: str) -> str:
    coeffs = [{"word": w, "c": format_fraction(c)} for w, c in series.items()]
    doc = {"degree": series.degree, "order": order, "coeffs": coeffs}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def bch_cache_path(cache_dir: str, degree: int, order: str) -> str:
    return os.path.join(cache_dir, f"bch_{order.lower()}_{degree}.json")


def write_bch_cache(series: LieSeries, order: str, path: str) -> None:
    """Atomic write: serialize to a temp file in the same directory, then rename."""
    payload = _cache_payload(series, order)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_bch_cache(path: str) -> Tuple[LieSeries, str]:
    with open(path, "r") as fh:
        doc = json.load(fh)
    order = doc["order"]
    series = LieSeries(doc["degree"],
                       {e["word"]: Fraction(e["c"]) for e in doc["coeffs"]})
    # reload must reserialize byte-identically
    if _cache_payload(series, order) != _read_text(path):
        raise ValueError(f"cache file {path} is not in canonical form")
    return series, order


def _read_text(path: str) -> str:
    with open(path, "r") as fh:
        return fh.read()


def bch_cached(degree: int, order: str, cache_dir: str) -> LieSeries:
    """Load the BCH series from the cache directory, computing and writing on miss."""
    path = bch_cache_path(cache_dir, degree, order)
    if os.path.exists(path):
        series, cached_order = load_bch_cache(path)
        if series.degree == degree and cached_order == order:
            return series
    series = bch(degree, order)
    write_bch_cache(series, order, path)
    return series
