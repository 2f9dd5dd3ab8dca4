import math
from fractions import Fraction

import numpy as np
import pytest

from kvgeom import cyclic
from kvgeom.cyclic import (
    CyclicWordSeries,
    fold_reversal,
    g_coefficients,
    kv2_residual,
    min_rotation,
    trace_column,
)
from kvgeom.freelie import (
    LieSeries,
    lie_bracket,
    log1p_over_s,
    lyndon_words_upto,
    u_series,
)
from kvgeom.kvsolve import solve_kv

from conftest import (
    AssocSeries,
    assoc_add,
    assoc_mul,
    bch_by_substitution,
    cyclic_reduce,
    delta_derivative,
    lie_to_assoc,
    substitute_series,
)

F = Fraction


def trace_rhs_by_substitution(degree):
    """-1/2 cyc(g(x) + g(y) - g(z) - 1) with g substituted word by word at
    x, y and z = log(e^X e^Y): the oracle for cyclic._trace_rhs."""
    g = g_coefficients(degree)
    z = lie_to_assoc(bch_by_substitution(degree, "XY"))
    gx = substitute_series(g, {"x": F(1)}, degree)
    gy = substitute_series(g, {"y": F(1)}, degree)
    gz = substitute_series(g, z, degree)
    bracket = assoc_add(assoc_add(assoc_add(gx, gy), gz, F(-1)), {"": F(1)}, F(-1))
    return cyclic_reduce(AssocSeries(degree, bracket)).scaled(F(-1, 2))


def trace_rhs_by_cyclic_reduce(degree):
    """The same integer series as cyclic._trace_rhs, taken the long way: each
    u_series word as a Fraction in an AssocSeries, reduced to necklaces by
    cyclic_reduce, then scaled by -1/2.  The oracle for its straight
    integer reduction."""
    words, den = u_series(log1p_over_s(degree), "XY", degree)
    bracket = {w: F(-n, den * math.factorial(len(w))) for w, n in words.items()}
    for m, c in enumerate(g_coefficients(degree)[1:], 1):
        for letter in "xy":
            bracket[letter * m] = bracket.get(letter * m, F(0)) + c
    return cyclic_reduce(AssocSeries(degree, bracket)).scaled(F(-1, 2))


class TestMinRotation:
    @pytest.mark.parametrize("w,expected", [
        ("xy", "xy"), ("yx", "xy"), ("xyx", "xxy"), ("yyx", "xyy"), ("", ""),
    ])
    def test_examples(self, w, expected):
        assert min_rotation(w) == expected

    def test_all_rotations_share_canonical_form(self):
        w = "xxyxy"
        forms = {min_rotation(w[i:] + w[:i]) for i in range(len(w))}
        assert len(forms) == 1


def _adword_expansion(opword):
    """Expansion of [w1,[w2,...,[wk,a]...]] in the tensor algebra over {x,y,a}."""
    out = {"a": F(1)}
    for letter in reversed(opword):
        nxt = {}
        for w, c in out.items():
            for ww, cc in ((letter + w, c), (w + letter, -c)):
                nxt[ww] = nxt.get(ww, F(0)) + cc
        out = {w: c for w, c in nxt.items() if c}
    return out


def oracle_delta(series, slot, degree):
    """delta_X / delta_Y by substitution in the tensor algebra.

    Substitutes the auxiliary letter a for each occurrence of the slot's
    letter in the expansion of the series (the s-linear part of X -> X + s a),
    reads P off the words ending in a (in the expansion of P(ad_x, ad_y) . a
    these are exactly the words of P followed by a), then re-expands
    P . a word by word and checks that it gives back the substituted series.
    """
    letter = slot.lower()
    linear = {}
    for w, c in lie_to_assoc(series).items():
        for i, ch in enumerate(w):
            if ch == letter:
                ww = w[:i] + "a" + w[i + 1:]
                linear[ww] = linear.get(ww, F(0)) + c
    linear = {w: c for w, c in linear.items() if c}
    p = {w[:-1]: c for w, c in linear.items() if w.endswith("a")}
    recon = {}
    for w, c in p.items():
        for ww, cc in _adword_expansion(w).items():
            recon[ww] = recon.get(ww, F(0)) + c * cc
    assert {w: c for w, c in recon.items() if c} == linear
    return AssocSeries(degree, p)


class TestDeltaOracle:
    DEGREE = 8

    @pytest.mark.parametrize("slot", ["X", "Y"])
    def test_every_lyndon_word(self, slot):
        n = self.DEGREE
        for w in lyndon_words_upto(n):
            s = LieSeries(n, {w: F(1)})
            assert delta_derivative(s, slot, n).items() == oracle_delta(s, slot, n).items(), w

    @pytest.mark.parametrize("slot", ["X", "Y"])
    def test_random_rational_combination(self, slot):
        n = self.DEGREE
        rng = np.random.default_rng(11)
        s = LieSeries(n, {w: F(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                          for w in lyndon_words_upto(n)})
        assert delta_derivative(s, slot, n).items() == oracle_delta(s, slot, n).items()


class TestDeltaDerivative:
    def test_slot_own_generator(self):
        out = delta_derivative(LieSeries.generator("x", 2), "X", 2)
        assert out == AssocSeries(2, {"": F(1)})

    def test_slot_other_generator(self):
        assert delta_derivative(LieSeries.generator("y", 2), "X", 2).is_zero()

    def test_bracket_slot_x(self):
        out = delta_derivative(LieSeries(3, {"xy": F(1)}), "X", 3)
        assert out == AssocSeries(3, {"y": F(-1)})

    def test_leibniz_on_monomials(self):
        # delta_X [u, v] = rho(u) delta_X(v) - rho(v) delta_X(u) for Lie
        # monomials, with rho the commutator expansion
        cases = [("xy", "y"), ("xxy", "x"), ("xy", "xyy")]
        for wu, wv in cases:
            n = len(wu) + len(wv)
            u = LieSeries(n, {wu: F(1)})
            v = LieSeries(n, {wv: F(1)})
            uv = lie_bracket(u, v, n)
            lhs = delta_derivative(uv, "X", n).as_dict()
            du = delta_derivative(u, "X", n).as_dict()
            dv = delta_derivative(v, "X", n).as_dict()
            rhs = assoc_add(assoc_mul(lie_to_assoc(u), dv, n),
                            assoc_mul(lie_to_assoc(v), du, n), F(-1))
            assert lhs == rhs


class TestCyclicReduce:
    def test_rotation_merge(self):
        out = cyclic_reduce(AssocSeries(2, {"xy": F(1), "yx": F(1)}))
        assert out == CyclicWordSeries(2, {"xy": F(2)})

    def test_rotations_cancel(self):
        out = cyclic_reduce(AssocSeries(3, {"xxy": F(1), "xyx": F(-1)}))
        assert out.is_zero()

    def test_scalar_part(self):
        out = cyclic_reduce(AssocSeries(2, {"": F(3)}))
        assert out.scalar == F(3) and not out.items()

    def test_idempotent_and_linear(self):
        rng = np.random.default_rng(5)
        words = ["x", "y", "xy", "yx", "xxy", "yxy", "xyxy", ""]
        a = AssocSeries(4, {w: F(int(rng.integers(-3, 4))) for w in words})
        b = AssocSeries(4, {w: F(int(rng.integers(-3, 4))) for w in reversed(words)})
        ra, rb = cyclic_reduce(a), cyclic_reduce(b)
        assert cyclic_reduce(a + b) == ra + rb
        again = cyclic_reduce(AssocSeries(4, dict(ra.items()), ))
        assert again == CyclicWordSeries(4, dict(ra.items()), F(0))


class TestGSeries:
    def test_known_leading_values(self):
        g = g_coefficients(6)
        assert g == [F(1), F(-1, 2), F(1, 12), F(0), F(-1, 720), F(0), F(1, 30240)]

    def test_matches_scalar_function(self):
        # independent oracle: numeric evaluation of s/(e^s - 1)
        g = g_coefficients(25)
        for s in (0.3, -0.4, 0.9):
            series = sum(float(c) * s ** k for k, c in enumerate(g))
            exact = s / (np.exp(s) - 1.0)
            assert abs(series - exact) < 1e-13

    def test_inverts_exp_series(self):
        from kvgeom.freelie import exp_minus_one_over_s
        g = g_coefficients(12)
        r = exp_minus_one_over_s(12)
        conv = [sum(g[k] * r[m - k] for k in range(m + 1)) for m in range(13)]
        assert conv[0] == 1 and all(c == 0 for c in conv[1:])


def trace_lhs_by_operator_series(A, B, degree):
    """cyc(x . delta_X(A) + y . delta_Y(B)) through `degree`, composed as
    operator series: the oracle for cyclic.trace_column."""
    words = {}
    for series, slot in ((A, "X"), (B, "Y")):
        letter = slot.lower()
        p = delta_derivative(series.truncated(degree), slot, degree)
        for w, c in p.items():
            if len(w) < degree:
                words[letter + w] = words.get(letter + w, F(0)) + c
    return cyclic_reduce(AssocSeries(degree, words))


class TestTraceColumn:
    @pytest.mark.parametrize("letter", ["x", "y"])
    def test_matches_operator_series(self, letter):
        for w in lyndon_words_upto(7):
            s = LieSeries(len(w), {w: F(1)})
            zero = LieSeries.zero(len(w))
            A, B = (s, zero) if letter == "x" else (zero, s)
            expected = trace_lhs_by_operator_series(A, B, len(w))
            assert dict(trace_column(w, letter)) == dict(expected.items()), w

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_kv2_residual_matches_operator_series(self, degree):
        # the pair reaches one degree past the residual's, which truncates it
        rng = np.random.default_rng(degree)
        words = lyndon_words_upto(degree + 1)

        def random_series():
            return LieSeries(degree + 1, {w: F(int(rng.integers(-3, 4))) for w in words})

        A, B = random_series(), random_series()
        expected = trace_lhs_by_operator_series(A, B, degree) - cyclic._trace_rhs(degree)
        assert repr(kv2_residual(A, B, degree)) == repr(expected)


class TestKV2Residual:
    def test_zero_pair_low_degree(self):
        res = kv2_residual(LieSeries.zero(1), LieSeries.zero(1), 1)
        assert res.is_zero()

    def test_scalar_part_always_cancels(self):
        for pair_degree in (1, 2, 3):
            p = solve_kv(pair_degree)
            res = kv2_residual(p.A, p.B, pair_degree)
            assert res.scalar == 0

    def test_degree_one_family_reports_degree_two_residual(self):
        # frozen from an independent expansion of g(z) to degree 2:
        # with A = 0, B = x/2 the degree-2 residual is -(1/12) <xy>
        p = solve_kv(1)
        res = kv2_residual(p.A, p.B, 2)
        assert res.component(2) == CyclicWordSeries(2, {"xy": F(-1, 12)})

    def test_degree_two_solution_closes(self):
        p = solve_kv(2)
        assert kv2_residual(p.A, p.B, 2).is_zero()

    def test_substitute_requires_no_constant(self):
        with pytest.raises(ValueError):
            substitute_series([F(1), F(1)], {"": F(1)}, 2)

    def test_trace_rhs_matches_substitution_oracle(self):
        for d in range(1, 9):
            assert repr(cyclic._trace_rhs(d)) == repr(trace_rhs_by_substitution(d))

    @pytest.mark.parametrize("degree", range(1, 10))
    def test_trace_rhs_matches_cyclic_reduce_oracle(self, degree):
        rhs = cyclic._trace_rhs(degree)
        assert type(rhs) is CyclicWordSeries
        assert repr(rhs) == repr(trace_rhs_by_cyclic_reduce(degree))


class TestMatrixEvaluationConsistency:
    def test_trace_cyclicity_on_algebras(self, all_algebras):
        # evaluating an AssocSeries by substituting actual ad matrices and
        # tracing must agree with evaluating its cyclic reduction
        rng = np.random.default_rng(17)
        words = ["xy", "yx", "xxy", "xyx", "yxx", "xyy", "x", "y", ""]
        coeffs = {w: F(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for w in words}
        series = AssocSeries(3, coeffs)
        reduced = cyclic_reduce(series)
        for alg in all_algebras:
            X = 0.3 * rng.standard_normal(alg.dim)
            Y = 0.3 * rng.standard_normal(alg.dim)
            ax, ay = alg.ad(X), alg.ad(Y)

            def word_matrix(w):
                M = np.eye(alg.dim)
                for ch in w:
                    M = M @ (ax if ch == "x" else ay)
                return M

            t_assoc = sum(float(c) * np.trace(word_matrix(w))
                          for w, c in series.items())
            t_cyc = float(reduced.scalar) * alg.dim + sum(
                float(c) * np.trace(word_matrix(w)) for w, c in reduced.items())
            assert abs(t_assoc - t_cyc) <= 1e-10 * max(1.0, abs(t_assoc))


class TestFoldReversal:
    def test_odd_palindromic_class_vanishes(self):
        s = CyclicWordSeries(3, {"x": F(5)})
        assert fold_reversal(s).is_zero()

    def test_even_degree_fold(self):
        # <xxyy> reversed is <yyxx> ~ <xxyy>: even palindromic class survives
        s = CyclicWordSeries(4, {"xxyy": F(1)})
        assert fold_reversal(s) == s

    def test_fold_respects_trace_relation(self, so3):
        # the fold is exact for traces on a quadratic algebra
        rng = np.random.default_rng(23)
        words = ["xxy", "xyy", "xxyy", "xyxy", "xxxy"]
        series = CyclicWordSeries(4, {min_rotation(w): F(int(rng.integers(-3, 4)))
                                      for w in words})
        folded = fold_reversal(series)
        X = 0.4 * rng.standard_normal(3)
        Y = 0.4 * rng.standard_normal(3)
        ax, ay = so3.ad(X), so3.ad(Y)

        def trace_of(s):
            total = float(s.scalar) * 3
            for w, c in s.items():
                M = np.eye(3)
                for ch in w:
                    M = M @ (ax if ch == "x" else ay)
                total += float(c) * np.trace(M)
            return total

        assert abs(trace_of(series) - trace_of(folded)) < 1e-12

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_eq1_only_pair_solves_the_folded_trace_equation(self, degree):
        # on quadratic algebras the trace equation is the folded one, and
        # the eq1 solution solves it at every degree; the free necklace
        # residual is nonzero from degree 5, so the fold is doing the work
        pair = solve_kv(degree, "eq1-only")
        residual = kv2_residual(pair.A, pair.B, degree)
        assert fold_reversal(residual).is_zero()
        assert residual.is_zero() == (degree < 5)
