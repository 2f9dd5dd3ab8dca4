import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvgeom import freelie
from kvgeom.freelie import (
    LieSeries,
    ad_matrix,
    ad_series_apply,
    assoc_to_lyndon,
    bch,
    exp_minus_one,
    exp_minus_one_over_s,
    is_lyndon,
    lie_bracket,
    lie_to_assoc,
    log1p_series,
    lyndon_basis,
    lyndon_words_upto,
    negate_generators,
    one_minus_exp_neg,
    rescale,
    standard_factorization,
    swap_generators,
    u_series,
)

from conftest import (
    bch_by_substitution,
    eval_lie_series_exact,
    exp_nilpotent,
    exp_series,
    frac_add,
    frac_mul,
    is_zero_matrix,
    log_unitriangular,
    random_strict_upper,
    substitute_series,
    u_by_substitution,
)

F = Fraction


def brute_force_lyndon(degree):
    """Independent enumeration: aperiodic necklaces by direct rotation scan."""
    out = []
    for bits in range(2 ** degree):
        w = "".join("xy"[(bits >> i) & 1] for i in range(degree))
        if all(w < w[i:] + w[:i] for i in range(1, degree)):
            out.append(w)
    return sorted(out)


class TestLyndonBasis:
    def test_degree_one(self):
        assert lyndon_basis(1) == ["x", "y"]

    def test_degree_two(self):
        assert lyndon_basis(2) == ["xy"]

    def test_degree_three(self):
        words = lyndon_basis(3)
        assert words == ["xxy", "xyy"]
        # Witt: (2^3 - 2)/3 = 2
        assert len(words) == 2

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_matches_brute_force(self, degree):
        assert lyndon_basis(degree) == brute_force_lyndon(degree)

    def test_upto_is_lex_sorted(self):
        words = lyndon_words_upto(5)
        assert words == sorted(words)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            lyndon_basis(0)

    @given(st.integers(0, 2 ** 7 - 1), st.integers(1, 7))
    def test_is_lyndon_matches_rotation_scan(self, bits, degree):
        w = "".join("xy"[(bits >> i) & 1] for i in range(degree))
        expected = all(w < w[i:] + w[:i] for i in range(1, len(w)))
        assert is_lyndon(w) == expected

    def test_standard_factorization_right_factor_is_smallest_suffix(self):
        for w in lyndon_basis(6):
            u, v = standard_factorization(w)
            assert u + v == w
            assert is_lyndon(u) and is_lyndon(v)
            assert v == min(w[i:] for i in range(1, len(w)))


class TestBracket:
    def test_self_bracket_vanishes(self):
        X = LieSeries.generator("x", 4)
        assert lie_bracket(X, X, 4).is_zero()

    def test_generator_bracket(self):
        X = LieSeries.generator("x", 4)
        Y = LieSeries.generator("y", 4)
        assert lie_bracket(X, Y, 4) == LieSeries(4, {"xy": F(1)})

    def test_bracket_y_with_xy_matrix_oracle(self):
        # [Y, [X, Y]] reduced to the Lyndon basis, checked on exact
        # strictly upper triangular 4x4 matrices
        Y = LieSeries.generator("y", 3)
        xy = LieSeries(3, {"xy": F(1)})
        red = lie_bracket(Y, xy, 3)
        assert red == LieSeries(3, {"xyy": F(-1)})
        rng = np.random.default_rng(11)
        MX = random_strict_upper(4, rng)
        MY = random_strict_upper(4, rng)
        lhs = frac_mul(MY, frac_add(frac_mul(MX, MY), frac_mul(MY, MX), F(-1)))
        lhs = frac_add(lhs, frac_mul(frac_add(frac_mul(MX, MY), frac_mul(MY, MX), F(-1)), MY), F(-1))
        assert lhs == eval_lie_series_exact(red, MX, MY)

    def test_bilinear(self):
        X = LieSeries.generator("x", 4)
        Y = LieSeries.generator("y", 4)
        s = LieSeries(4, {"xy": F(2, 3), "y": F(1, 2)})
        lhs = lie_bracket(X + Y.scaled(F(3)), s, 4)
        rhs = lie_bracket(X, s, 4) + lie_bracket(Y, s, 4).scaled(F(3))
        assert lhs == rhs

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(st.sampled_from(["x", "y", "xy", "xxy", "xyy"]),
                     st.sampled_from(["x", "y", "xy", "xxy", "xyy"]),
                     st.sampled_from(["x", "y", "xy"])))
    def test_jacobi_identity(self, words):
        u, v, w = (LieSeries(6, {word: F(1)}) for word in words)
        total = (lie_bracket(u, lie_bracket(v, w, 6), 6)
                 + lie_bracket(v, lie_bracket(w, u, 6), 6)
                 + lie_bracket(w, lie_bracket(u, v, 6), 6))
        assert total.is_zero()

    def test_assoc_to_lyndon_rejects_non_lie(self):
        with pytest.raises(ValueError):
            assoc_to_lyndon({"xy": F(1)}, 2)   # xy alone is not a Lie element


class TestAdMatrix:
    @pytest.mark.parametrize("letter", ["x", "y"])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_columns_are_lie_brackets(self, letter, d):
        # oracle: the bracket through the tensor algebra, over Fractions
        cols = ad_matrix(letter, d)
        assert list(cols) == lyndon_basis(d)
        gen = LieSeries.generator(letter, d + 1)
        for w in lyndon_basis(d):
            expect = lie_bracket(gen, LieSeries(d + 1, {w: F(1)}), d + 1)
            assert cols[w] == tuple(expect.items())
            assert all(type(c) is int for _, c in cols[w])

    def test_read_only(self):
        with pytest.raises(TypeError):
            ad_matrix("x", 2)["xy"] = ()

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            ad_matrix("z", 2)


def ad_series_apply_by_brackets(f, direction, target, degree):
    """ad_series_apply through the tensor algebra, one lie_bracket per power: the oracle."""
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


def random_lie_series(rng, degree, top):
    """Random rational coefficients on a random subset of the Lyndon words up to top."""
    coeffs = {w: F(int(rng.integers(-9, 10)), int(rng.integers(1, 13)))
              for w in lyndon_words_upto(top) if rng.random() < 0.6}
    return LieSeries(degree, coeffs)


def lyndon_sweep_by_min(remaining):
    """The lex sweep that rescans every remaining word with min after each
    subtraction: the oracle for freelie._lyndon_sweep."""
    coeffs = {}
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
            for word, k in freelie.word_expansion(w0):
                nc = remaining.get(word, 0) - c0 * k
                if nc:
                    remaining[word] = nc
                else:
                    remaining.pop(word, None)
    return coeffs


class TestLyndonSweep:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_min_sweep(self, seed):
        rng = np.random.default_rng(seed)
        u, v = random_lie_series(rng, 8, 5), random_lie_series(rng, 8, 4)
        inputs = [freelie.lie_to_assoc(u),
                  freelie.assoc_commutator(freelie.lie_to_assoc(u), freelie.lie_to_assoc(v), 8)]
        words = [w for w in freelie.lie_to_assoc(u) if len(w) > 1]
        inputs.append({**inputs[0], words[int(rng.integers(len(words)))]: F(7)})
        for p in inputs:
            got, expect = dict(p), dict(p)
            try:
                want = lyndon_sweep_by_min(expect)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    freelie._lyndon_sweep(got)
            else:
                assert list(freelie._lyndon_sweep(got).items()) == list(want.items())
                assert got == expect == {}


class TestAdSeriesApply:
    TABLES = {
        "1-exp(-s)": one_minus_exp_neg,
        "exp(s)-1": exp_minus_one,
        "exp": exp_series,
        "log1p": log1p_series,
        "(exp(s)-1)/s": exp_minus_one_over_s,
    }

    @pytest.mark.parametrize("table", sorted(TABLES))
    @pytest.mark.parametrize("direction", ["x", "y"])
    def test_matches_bracket_loop(self, table, direction):
        rng = np.random.default_rng(sorted(self.TABLES).index(table))
        for degree in range(1, 8):
            f = self.TABLES[table](degree + 2)
            for top in {1, max(1, degree - 2), degree}:
                target = random_lie_series(rng, degree, top)
                assert (ad_series_apply(f, direction, target, degree)
                        == ad_series_apply_by_brackets(f, direction, target, degree))

    def test_random_tables_and_short_targets(self):
        # rational tables with zero entries; targets truncated below or above
        # the requested degree
        rng = np.random.default_rng(11)
        for _ in range(20):
            degree = int(rng.integers(1, 8))
            f = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 8)))
                 for _ in range(degree + 1)]
            top = int(rng.integers(1, 9))
            target = random_lie_series(rng, top, top)
            direction = "xy"[int(rng.integers(2))]
            assert (ad_series_apply(f, direction, target, degree)
                    == ad_series_apply_by_brackets(f, direction, target, degree))

    def test_no_bracket_call(self, monkeypatch):
        def unused(*args):
            raise AssertionError("ad_series_apply brackets through ad_matrix")

        monkeypatch.setattr(freelie, "lie_bracket", unused)
        out = ad_series_apply(one_minus_exp_neg(4), "x", LieSeries.generator("y", 4), 4)
        assert out.coefficient("xy") == 1

    def test_identity_series(self):
        f = [F(0), F(1), F(0), F(0)]
        Y = LieSeries.generator("y", 3)
        assert ad_series_apply(f, "x", Y, 3) == LieSeries(3, {"xy": F(1)})

    def test_on_own_generator_vanishes(self):
        f = one_minus_exp_neg(3)
        X = LieSeries.generator("x", 3)
        assert ad_series_apply(f, "x", X, 3) == LieSeries(3, {"x": f[0]})

    def test_one_minus_exp_neg_on_y(self):
        # direct expansion oracle: s - s^2/2 applied as brackets
        f = one_minus_exp_neg(3)
        Y = LieSeries.generator("y", 3)
        out = ad_series_apply(f, "x", Y, 3)
        assert out == LieSeries(3, {"xy": F(1), "xxy": F(-1, 2)})

    def test_requires_enough_coefficients(self):
        with pytest.raises(ValueError):
            ad_series_apply([F(1)], "x", LieSeries.generator("y", 3), 3)


class TestBCH:
    def test_degree_one(self):
        assert bch(1, "XY") == LieSeries(1, {"x": F(1), "y": F(1)})

    def test_degree_two_matrix_oracle(self):
        z = bch(2, "XY")
        assert z.coefficient("xy") == F(1, 2)
        rng = np.random.default_rng(3)
        MX = random_strict_upper(3, rng)
        MY = random_strict_upper(3, rng)
        direct = log_unitriangular(frac_mul(exp_nilpotent(MX), exp_nilpotent(MY)))
        assert direct == eval_lie_series_exact(z, MX, MY)

    def test_degree_three_coefficient(self):
        assert bch(3, "XY").coefficient("xxy") == F(1, 12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_evaluation_homomorphism_exact(self, seed):
        # 6x6 strictly upper triangular: nilpotency degree 6 > 5, so the
        # degree-5 truncation is exact
        z = bch(5, "XY")
        rng = np.random.default_rng(seed)
        MX = random_strict_upper(6, rng)
        MY = random_strict_upper(6, rng)
        direct = log_unitriangular(frac_mul(exp_nilpotent(MX), exp_nilpotent(MY)))
        assert direct == eval_lie_series_exact(z, MX, MY)

    def test_swap_endomorphism_relates_orders(self):
        for n in (3, 5):
            assert swap_generators(bch(n, "XY")) == bch(n, "YX")

    def test_inverse_of_product(self):
        for n in (3, 5):
            assert negate_generators(bch(n, "YX")).scaled(F(-1)) == bch(n, "XY")

    @pytest.mark.parametrize("order", ["XY", "YX"])
    def test_matches_substitution_oracle(self, order):
        for d in range(1, 9):
            assert repr(bch(d, order)) == repr(bch_by_substitution(d, order))

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError, match="order"):
            bch(3, "XX")


class TestUSeries:
    @pytest.mark.parametrize("order", ["XY", "YX"])
    def test_matches_substitution_oracle(self, order):
        # rational tables with zero entries; coeffs[0] is ignored
        rng = np.random.default_rng(5)
        for degree in range(1, 8):
            f = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 8)))
                 for _ in range(degree + 1)]
            words, den = u_series(f, order, degree)
            assert all(type(n) is int and n for n in words.values())
            got = {w: F(n, den * math.factorial(len(w))) for w, n in words.items()}
            expect = substitute_series([F(0)] + f[1:], u_by_substitution(order, degree), degree)
            assert got == expect

    def test_u_is_one_binomial_word_per_split(self):
        words, den = u_series([F(0), F(1), F(0), F(0)], "YX", 3)
        assert den == 1
        assert words == {"y": 1, "x": 1, "yy": 1, "yx": 2, "xx": 1,
                         "yyy": 1, "yyx": 3, "yxx": 3, "xxx": 1}

    def test_sweep_rejects_a_stray_word(self):
        # u itself is not a Lie element: the integer sweep stops at xx
        words, _ = u_series([F(0), F(1), F(0), F(0)], "XY", 3)
        with pytest.raises(ValueError, match="stray word 'xx'"):
            freelie._lyndon_sweep(words)

    def test_requires_enough_coefficients(self):
        with pytest.raises(ValueError):
            u_series([F(0), F(1)], "XY", 2)


class TestRescale:
    def test_identity_at_one(self):
        z = bch(4, "XY")
        assert rescale(z, F(1)) == z

    def test_degree_two_scaling(self):
        s = LieSeries(2, {"xy": F(1, 2)})
        assert rescale(s, F(1, 2)) == LieSeries(2, {"xy": F(1, 8)})


class TestLieSeriesType:
    def test_rejects_non_lyndon_key(self):
        with pytest.raises(ValueError):
            LieSeries(3, {"yx": F(1)})

    def test_rejects_overweight_word(self):
        with pytest.raises(ValueError):
            LieSeries(2, {"xxy": F(1)})

    def test_drops_zeros_and_sorts(self):
        s = LieSeries(3, {"xyy": F(0), "y": F(1), "x": F(2)})
        assert s.words() == ["x", "y"]

    def test_value_equality(self):
        a = LieSeries(3, {"xy": F(1, 2)})
        b = LieSeries(3, {"xy": F(2, 4)})
        assert a == b and hash(a) == hash(b)

    def test_subtraction_is_adding_the_negative(self):
        # one series for a - b, word for word the series of a + (-b)
        rng = np.random.default_rng(21)
        words = lyndon_words_upto(6)

        def random_series():
            n = int(rng.integers(3, 7))
            return LieSeries(n, {w: F(int(rng.integers(-4, 5)), int(rng.integers(1, 6)))
                                 for w in rng.choice(words, 8) if len(w) <= n})

        for _ in range(25):
            a, b = random_series(), random_series()
            assert a - b == a + (-b) and repr(a - b) == repr(a + (-b))
            assert (a - a).is_zero()

    def test_mixed_type_sum_checks_words(self):
        from kvgeom.cyclic import AssocSeries
        with pytest.raises(ValueError):
            LieSeries(3, {"x": F(1)}) - AssocSeries(3, {"yx": F(1)})
