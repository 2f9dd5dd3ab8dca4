import itertools
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
    bch,
    exp_minus_one,
    exp_minus_one_over_s,
    exp_neg,
    g_coefficients,
    is_lyndon,
    lie_bracket,
    log1p_series,
    lyndon_basis,
    lyndon_words_upto,
    one_minus_exp_neg,
    one_minus_exp_neg_over_s,
    rescale,
    sinh_minus_s_over_s2,
    standard_factorization,
    swap_generators,
    u_series,
)

from conftest import (
    assoc_commutator,
    assoc_to_lyndon,
    bch_by_substitution,
    bracket_by_tensor_algebra,
    eval_lie_series_exact,
    exp_nilpotent,
    exp_series,
    frac_add,
    frac_mul,
    lie_to_assoc,
    log_unitriangular,
    lyndon_sweep,
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

    def test_one_duval_run_serves_every_lower_degree(self, monkeypatch):
        # from a cold memo, the top degree asked first runs Duval's
        # generation once and every lower degree is served from that run;
        # a higher degree reruns it, in either order the bases are the same
        runs = []
        duval = freelie.lyndon_words_upto
        monkeypatch.setattr(freelie, "lyndon_words_upto",
                            lambda n: runs.append(n) or duval(n))
        freelie._lyndon_table.cache_clear()
        try:
            for degree in (6, 1, 4, 6, 5):
                assert lyndon_basis(degree) == brute_force_lyndon(degree)
            assert freelie._lyndon_prefixes(3) == {
                w[:i] for k in (1, 2, 3) for w in brute_force_lyndon(k)
                for i in range(1, k + 1)}
            assert runs == [6]
            assert lyndon_basis(8) == brute_force_lyndon(8)
            assert lyndon_basis(7) == brute_force_lyndon(7) and runs == [6, 8]
        finally:
            freelie._lyndon_table.cache_clear()

    def test_upto_is_lex_sorted(self):
        words = lyndon_words_upto(5)
        assert words == sorted(words)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            lyndon_basis(0)

    def test_returns_a_fresh_list(self):
        # the basis is memoised; a caller's edit must not reach the memo
        words = lyndon_basis(4)
        words.append("yyyy")
        words[0] = "yxxx"
        assert lyndon_basis(4) == brute_force_lyndon(4)

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

    def test_matches_tensor_algebra_oracle(self):
        # random rational series through degree 8, bracketed word pair by
        # word pair, against one commutator of the full expansions
        rng = np.random.default_rng(31)
        for _ in range(40):
            degree = int(rng.integers(2, 9))
            u = random_lie_series(rng, degree, int(rng.integers(1, degree)))
            v = random_lie_series(rng, degree, int(rng.integers(1, degree + 1)))
            assert repr(lie_bracket(u, v, degree)) == repr(bracket_by_tensor_algebra(u, v, degree))

    def test_swap_matches_tensor_algebra_oracle(self):
        rng = np.random.default_rng(37)
        tr = str.maketrans("xy", "yx")
        for degree in range(1, 9):
            s = random_lie_series(rng, degree, degree)
            swapped = {w.translate(tr): c for w, c in lie_to_assoc(s).items()}
            assert repr(swap_generators(s)) == repr(assoc_to_lyndon(swapped, degree))


class TestAdMatrix:
    @pytest.mark.parametrize("letter", ["x", "y"])
    @pytest.mark.parametrize("d", range(1, 10))
    def test_columns_are_lie_brackets(self, letter, d):
        # oracle: the bracket through the tensor algebra, over Fractions
        cols = ad_matrix(letter, d)
        assert list(cols) == lyndon_basis(d)
        gen = LieSeries.generator(letter, d + 1)
        for w in lyndon_basis(d):
            expect = bracket_by_tensor_algebra(gen, LieSeries(d + 1, {w: F(1)}), d + 1)
            assert cols[w] == tuple(expect.items())
            assert all(type(c) is int for _, c in cols[w])

    def test_read_only(self):
        with pytest.raises(TypeError):
            ad_matrix("x", 2)["xy"] = ()

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            ad_matrix("z", 2)


def ad_series_apply_by_brackets(f, direction, target, degree):
    """ad_series_apply through the tensor algebra, one bracket per power: the oracle."""
    gen = LieSeries.generator(direction, degree)
    acc = target.truncated(degree)
    out = acc.scaled(f[0])
    for k in range(1, degree + 1):
        if acc.is_zero():
            break
        acc = bracket_by_tensor_algebra(gen, acc, degree)
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
    subtraction: the oracle for the heap sweep of conftest.lyndon_sweep."""
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
        inputs = [lie_to_assoc(u), assoc_commutator(lie_to_assoc(u), lie_to_assoc(v), 8)]
        words = [w for w in lie_to_assoc(u) if len(w) > 1]
        inputs.append({**inputs[0], words[int(rng.integers(len(words)))]: F(7)})
        for p in inputs:
            got, expect = dict(p), dict(p)
            try:
                want = lyndon_sweep_by_min(expect)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    lyndon_sweep(got)
            else:
                assert list(lyndon_sweep(got).items()) == list(want.items())
                assert got == expect == {}


class TestLyndonSolve:
    """freelie._lyndon_solve, on the Lyndon entries only, against the
    conftest sweep over every word."""

    def test_bracket_matches_sweep_of_commutator(self):
        words = lyndon_words_upto(9)
        pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= 10]
        for u, v in pairs:
            assert freelie._bracket(u, v) == lyndon_sweep(freelie._commutator(u, v))

    @pytest.mark.parametrize("order", ["XY", "YX"])
    def test_bch_matches_sweep_of_unpruned_u_series(self, order):
        for n in range(1, 13):
            words, den = u_series(log1p_series(n), order, n)
            expect = LieSeries(n, {w: F(k, den * math.factorial(len(w)))
                                   for w, k in lyndon_sweep(words).items()})
            assert repr(bch(n, order)) == repr(expect)

    def test_lyndon_part_is_the_lyndon_tail_of_the_expansion(self):
        for w in lyndon_words_upto(8):
            expansion = freelie.word_expansion(w)
            assert expansion[0] == (w, 1)
            assert freelie._lyndon_part(w) == tuple(
                (v, k) for v, k in expansion[1:] if is_lyndon(v))

    def test_reads_only_lyndon_entries(self):
        # the words past the Lyndon ones are never read, so the solve takes
        # a Lie element's Lyndon entries alone to the same coordinates
        rng = np.random.default_rng(13)
        for _ in range(10):
            s = random_lie_series(rng, 7, 7)
            den = math.lcm(*(c.denominator for _, c in s.items()))
            words = {w: int(c * den) for w, c in lie_to_assoc(s).items()}
            lyndon = {w: n for w, n in words.items() if is_lyndon(w)}
            expect = {w: int(c * den) for w, c in s.items()}
            assert freelie._lyndon_solve(words) == freelie._lyndon_solve(lyndon) == expect


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
        for n in range(1, 11):
            assert swap_generators(bch(n, "XY")) == bch(n, "YX")

    def test_inverse_of_product(self):
        for n in (3, 5):
            assert rescale(bch(n, "YX"), -1).scaled(F(-1)) == bch(n, "XY")

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
        # u itself is not a Lie element: the oracle's sweep stops at xx
        words, _ = u_series([F(0), F(1), F(0), F(0)], "XY", 3)
        with pytest.raises(ValueError, match="stray word 'xx'"):
            lyndon_sweep(words)

    @pytest.mark.parametrize("order", ["XY", "YX"])
    def test_pruned_agrees_on_lyndon_prefixes(self, order):
        # built on prefixes of Lyndon words only, every word it keeps has
        # the coefficient of the full sum; in particular every Lyndon word
        rng = np.random.default_rng(9)
        for degree in range(1, 11):
            f = [F(int(rng.integers(-3, 4)), int(rng.integers(1, 8)))
                 for _ in range(degree + 1)]
            keep = freelie._lyndon_prefixes(degree)
            full, den = u_series(f, order, degree)
            pruned, den_pruned = u_series(f, order, degree, keep)
            assert den_pruned == den
            assert pruned == {w: n for w, n in full.items() if w in keep}
            assert {w: n for w, n in pruned.items() if is_lyndon(w)} == {
                w: n for w, n in full.items() if is_lyndon(w)}

    def test_lyndon_prefixes(self):
        # every word of length <= degree that begins a brute-force Lyndon word
        for degree in range(1, 9):
            lyndon = [w for d in range(1, degree + 1) for w in brute_force_lyndon(d)]
            words = ["".join(t) for m in range(1, degree + 1)
                     for t in itertools.product("xy", repeat=m)]
            assert freelie._lyndon_prefixes(degree) == {
                p for p in words if any(w.startswith(p) for w in lyndon)}

    def test_requires_enough_coefficients(self):
        with pytest.raises(ValueError):
            u_series([F(0), F(1)], "XY", 2)


class TestSeriesTables:
    def test_exact_relations(self):
        n = 30
        L, R = one_minus_exp_neg_over_s(n + 1), exp_minus_one_over_s(n + 1)
        assert one_minus_exp_neg(n) == [0] + L[:n]                   # s L(s)
        assert exp_minus_one(n) == [0] + R[:n]                       # s R(s)
        assert exp_neg(n) == [1] + [-c for c in L[:n]]               # 1 - s L(s)
        # (sinh s - s)/s^2 = ((L(s) + R(s))/2 - 1)/s
        assert sinh_minus_s_over_s2(n) == [(a + b) / 2 for a, b in zip(L[1:], R[1:])]
        # g(s) = s/(e^s - 1) inverts R, and g(-s) = s/(1 - e^{-s}) inverts L
        g = g_coefficients(n)
        for table, inverse in ((L, [(-1) ** k * c for k, c in enumerate(g)]), (R, g)):
            assert [sum(table[k] * inverse[m - k] for k in range(m + 1))
                    for m in range(n + 1)] == [1] + [0] * n

    def test_match_scalar_functions(self):
        functions = {
            exp_neg: lambda s: math.exp(-s),
            one_minus_exp_neg_over_s: lambda s: -math.expm1(-s) / s,
            exp_minus_one_over_s: lambda s: math.expm1(s) / s,
            sinh_minus_s_over_s2: lambda s: (math.sinh(s) - s) / s ** 2,
            g_coefficients: lambda s: s / math.expm1(s),
        }
        for table, f in functions.items():
            coeffs = table(30)
            for s in (0.3, -0.4, 0.9):
                assert sum(float(c) * s ** k for k, c in enumerate(coeffs)) == pytest.approx(
                    f(s), rel=1e-14, abs=1e-15)


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
        from kvgeom.cyclic import CyclicWordSeries
        # xx is a minimal rotation but not a Lyndon word
        with pytest.raises(ValueError):
            LieSeries(3, {"x": F(1)}) - CyclicWordSeries(3, {"xx": F(1)})
