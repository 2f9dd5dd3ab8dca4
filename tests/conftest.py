"""Shared fixtures, exact-arithmetic oracle helpers, acceptance reporting."""

import heapq
import math
from fractions import Fraction

import numpy as np
import pytest

from kvgeom.cyclic import CyclicWordSeries, _word_derivative, min_rotation
from kvgeom.freelie import (
    LieSeries,
    WordSeries,
    is_lyndon,
    log1p_series,
    word_expansion,
)
from kvgeom.geom import _central_differences, _cumulative_simpson, _equivariant_trace
from kvgeom.matrixlie import (
    ad_series,
    builtin_algebras,
    fn_dexp,
    get_algebra,
    load_algebra,
)

_acceptance_lines = []


def record_criterion(number: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    _acceptance_lines.append(f"[{tag}] criterion {number}: {description}{suffix}")


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def so3():
    return get_algebra("so3")


@pytest.fixture(scope="session")
def sl2():
    return get_algebra("sl2")


@pytest.fixture(scope="session")
def gl2():
    return get_algebra("gl2")


@pytest.fixture(scope="session")
def all_algebras():
    return builtin_algebras()


@pytest.fixture(scope="session")
def sl3():
    """sl(3, R) with the trace form: not the so(3) basis, so the generic chart."""
    E = np.zeros((8, 3, 3))
    E[0, 0, 0], E[0, 1, 1] = 1.0, -1.0
    E[1, 1, 1], E[1, 2, 2] = 1.0, -1.0
    for k, (i, j) in enumerate([(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]):
        E[2 + k, i, j] = 1.0
    return load_algebra({"name": "sl3", "basis": E, "form": "trace",
                         "domain_radius": 0.3})


@pytest.fixture(scope="session")
def so4():
    """so(4) with -1/2 the trace form: the six 4 x 4 rotation generators."""
    E = np.zeros((6, 4, 4))
    for k, (i, j) in enumerate([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]):
        E[k, i, j], E[k, j, i] = -1.0, 1.0
    return load_algebra({"name": "so4", "basis": E, "form": "neg_half_trace"})


@pytest.fixture(scope="session")
def oscillator():
    """The Nappi-Witten (oscillator) algebra in 4 x 4 matrices.

    Basis J = E21 - E12, P1 = E01 + E23, P2 = E02 - E13, T = -[P1, P2]/2,
    with <P_i, P_j> = delta_ij, <J, T> = -1/2 and <J, J> = 0.3.  It is not
    reductive, and its trace form is degenerate, so the form is given.
    """
    def unit(i, j):
        m = np.zeros((4, 4))
        m[i, j] = 1.0
        return m

    J = unit(2, 1) - unit(1, 2)
    P1 = unit(0, 1) + unit(2, 3)
    P2 = unit(0, 2) - unit(1, 3)
    T = -0.5 * (P1 @ P2 - P2 @ P1)
    form = [[0.3, 0.0, 0.0, -0.5],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [-0.5, 0.0, 0.0, 0.0]]
    return load_algebra({"name": "oscillator", "basis": np.stack([J, P1, P2, T]),
                         "form": form})


def reduction_table(rho, K, d):
    """The (K, d, N) table r with A^k = sum_j r[k, j] A^j, from ad_series' rho.

    rho[i, j] reduces A^(o + 2 i) to A^(o + 2 j) for o = e, e + 1 (d = 2 m + e);
    A^0 = I lies outside both blocks when d is odd.  Entries where j and k
    differ in parity are zero.
    """
    e = d % 2
    r = np.zeros((K, d, rho.shape[-1]))
    r[0, 0] = 1.0
    for o in (e, e + 1):
        block = r[o::2, o::2]
        block[...] = rho[:len(block)]
    return r


def oracle_varpi(alg, W):
    """varpi at the stack W (B, d) by the double-sum closed form, as (B, d, d).

    -1/2 sum_{k,l} cL_k cL_l / (k + l + 3) (A^k)^T K_W A^l, A = ad_W, with
    the first 22 terms cL_k of L(s) = (1 - e^{-s})/s and K_W[i, j] =
    <W, [e_i, e_j]>: the term-by-term integral of
    -1/2 int_0^1 t^2 L(t A)^T K_W L(t A) dt.  With A^k = sum_i r[k, i] A^i
    in the Cayley-Hamilton power basis this is -1/2 sum_{i,j} C_ij
    (A^i)^T K_W A^j, C = R^T H R, R[k, i] = cL_k r[k, i], H_kl = 1/(k + l + 3).
    """
    cL = fn_dexp[0, :22]
    kl = np.arange(22)
    H = 1.0 / (kl[:, None] + kl[None, :] + 3.0)
    N, d = W.shape
    K = np.einsum('ijl,lk,...k->...ij', alg.structure, alg.Q, W)
    _, pw, rho = ad_series(alg.ad(W), cL[None])
    r = reduction_table(rho, 22, d)
    R = (cL[:, None, None] * r).transpose(2, 0, 1)
    C = np.transpose(R, (0, 2, 1)) @ H @ R
    KA = (K[:, None] @ pw).reshape(N, d, d * d)                  # K A^j
    T = (C @ KA).reshape(N, d * d, d)                            # sum_j C_ij K A^j
    M = -0.5 * (np.transpose(pw.reshape(N, d * d, d), (0, 2, 1)) @ T)
    return 0.5 * (M - np.transpose(M, (0, 2, 1)))


def adams_weights(nodes):
    """The integral over [0, 1] of each Lagrange basis polynomial through the
    nodes (in units of dt, measured from the step's start), as Fractions.

    Nodes 0, -1, ..., -5 give the Adams-Bashforth weights of order 6, and
    1, 0, ..., -4 the Adams-Moulton ones.
    """
    weights = []
    for j, sj in enumerate(nodes):
        poly = [Fraction(1)]                    # ascending coefficients in s
        for i, si in enumerate(nodes):
            if i != j:                          # times (s - si) / (sj - si)
                shifted = [Fraction(0)] + poly
                poly = [(a - si * b) / (sj - si)
                        for a, b in zip(shifted, poly + [Fraction(0)])]
        weights.append(sum(c / (k + 1) for k, c in enumerate(poly)))
    return weights


_ORACLE_AB6 = [float(w) for w in adams_weights(range(0, -6, -1))]
_ORACLE_AM6 = [float(w) for w in adams_weights(range(1, -5, -1))]


def _rk4_step(eng, t0, dt, q, k1):
    """One RK4 step of dp/dt = -v_t from (t0, q), given k1 = -v_t0(q)."""
    k2 = -eng.moser_w(t0 + dt / 2, q + dt / 2 * k1)
    k3 = -eng.moser_w(t0 + dt / 2, q + dt / 2 * k2)
    k4 = -eng.moser_w(min(t0 + dt, 1.0), q + dt * k3)
    return q + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def oracle_flow(eng, P, steps, density=True):
    """The Moser flow as the engine takes it, every evaluation its own moser_w call.

    Five RK4 steps, then the Adams-Bashforth-Moulton pair of order 6 in PECE
    form, with the weights of adams_weights: predict from -v_t at the last
    six accepted points, evaluate there, correct, and evaluate -v_t at the
    corrected point for the history.  Then, at each step, the divergence of
    v_t through _equivariant_trace (which the geom tests bound against
    full_stencil_trace), integrated in t by cumulative Simpson.  Returns
    (trajectory (steps+1, B, 2d), log_density (steps+1, B)); without
    density, the trajectory and None.
    """
    dt = 1.0 / steps
    q = P.astype(float)
    traj, hist = [q], []
    for k in range(steps):
        t0 = k * dt
        hist.insert(0, -eng.moser_w(t0, q))
        if k < 5:
            q = _rk4_step(eng, t0, dt, q, hist[0])
        else:
            pred = q + dt * sum(w * f for w, f in zip(_ORACLE_AB6, hist))
            f1 = -eng.moser_w(min(t0 + dt, 1.0), pred)
            q = q + dt * sum(w * f for w, f in zip(_ORACLE_AM6, [f1] + hist))
        traj.append(q)
    traj = np.array(traj)
    if not density:
        return traj, None
    div = np.array([
        _equivariant_trace(eng.alg, lambda Q, t=k * dt: eng.moser_w(t, Q), q)[1]
        for k, q in enumerate(traj)])
    return traj, _cumulative_simpson(div, dt)


def oracle_rk4_flow(eng, P, steps):
    """The Moser flow by RK4 at every step, as the engine took it before the
    Adams pair: the trajectory (steps+1, B, 2d) the Adams flow is measured
    against."""
    dt = 1.0 / steps
    q = P.astype(float)
    traj = [q]
    for k in range(steps):
        q = _rk4_step(eng, k * dt, dt, q, -eng.moser_w(k * dt, q))
        traj.append(q)
    return np.array(traj)


def full_stencil_trace(field, P, weight=None):
    """tr(W(p) Df(p)) with Df by central differences along all 2d coordinates.

    The trace before the orbit split: the field is differenced on the 4d B
    points p +- h_i e_i.  W (B, 2d, 2d) defaults to the identity.
    """
    J = np.transpose(_central_differences(field, P), (1, 2, 0))     # J[b, j, i] = df_j/dp_i
    if weight is None:
        return np.einsum('bii->b', J)
    return np.einsum('bij,bji->b', weight, J)


def dsigma_dt(eng, t, P, ht=1e-4):
    """d(sigma_t)/dt by a second-order stencil in t (one-sided at t = 0, 1).

    The oracle for d alpha_t = d sigma_t / dt: the engine's alpha never
    differentiates in t.
    """
    if t == 0.0:
        f0 = eng.sigma_t(0.0, P)
        return (-3 * f0 + 4 * eng.sigma_t(ht, P) - eng.sigma_t(2 * ht, P)) / (2 * ht)
    if t == 1.0:
        return (3 * eng.sigma_t(1.0, P) - 4 * eng.sigma_t(1 - ht, P)
                + eng.sigma_t(1 - 2 * ht, P)) / (2 * ht)
    return (eng.sigma_t(t + ht, P) - eng.sigma_t(t - ht, P)) / (2 * ht)


# ---------------------------------------------------------------------------
# exact rational matrix arithmetic (independent oracle for the symbolic side)

def frac_zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def frac_eye(n):
    M = frac_zeros(n)
    for i in range(n):
        M[i][i] = Fraction(1)
    return M


def frac_mul(A, B):
    n = len(A)
    out = frac_zeros(n)
    for i in range(n):
        Ai = A[i]
        for k in range(n):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(n):
                    if Bk[j]:
                        row[j] += a * Bk[j]
    return out


def frac_add(A, B, scale=Fraction(1)):
    n = len(A)
    return [[A[i][j] + scale * B[i][j] for j in range(n)] for i in range(n)]


def frac_scale(A, c):
    return [[c * v for v in row] for row in A]


def is_zero_matrix(A):
    return all(not v for row in A for v in row)


def frac_commutator(A, B):
    return frac_add(frac_mul(A, B), frac_mul(B, A), Fraction(-1))


def exp_nilpotent(M):
    """Exact e^M for nilpotent M (the power series terminates)."""
    n = len(M)
    out = frac_eye(n)
    term = frac_eye(n)
    k = 1
    while True:
        term = frac_scale(frac_mul(term, M), Fraction(1, k))
        if is_zero_matrix(term):
            return out
        out = frac_add(out, term)
        k += 1


def log_unitriangular(M):
    """Exact log for M = I + N with N nilpotent."""
    n = len(M)
    N = frac_add(M, frac_eye(n), Fraction(-1))
    out = frac_zeros(n)
    term = frac_eye(n)
    k = 1
    while True:
        term = frac_mul(term, N)
        if is_zero_matrix(term):
            return out
        out = frac_add(out, frac_scale(term, Fraction((-1) ** (k + 1), k)))
        k += 1


def random_strict_upper(n, rng, denominators=(1, 2, 3, 5)):
    """Random exact-rational strictly upper triangular n x n matrix."""
    M = frac_zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = Fraction(int(rng.integers(-4, 5)),
                               int(rng.choice(denominators)))
    return M


def eval_lie_series_exact(series, MX, MY):
    """Evaluate a LieSeries on exact matrices via standard factorizations."""
    from kvgeom.freelie import standard_factorization

    n = len(MX)
    values = {"x": MX, "y": MY}

    def value(word):
        if word in values:
            return values[word]
        u, v = standard_factorization(word)
        out = frac_commutator(value(u), value(v))
        values[word] = out
        return out

    acc = frac_zeros(n)
    for w, c in series.items():
        acc = frac_add(acc, frac_scale(value(w), c))
    return acc


# ---------------------------------------------------------------------------
# The truncated tensor algebra over Fractions, a dict from word to
# coefficient: the oracle for the integer kernels of freelie (u_series, bch,
# _bracket and what runs on it) and of cyclic (trace_column, _trace_rhs)

def assoc_add(a, b, scale=Fraction(1)):
    out = dict(a)
    for w, c in b.items():
        nc = out.get(w, Fraction(0)) + scale * c
        if nc:
            out[w] = nc
        else:
            out.pop(w, None)
    return out


def assoc_mul(a, b, max_degree):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= max_degree:
                out[wa + wb] = out.get(wa + wb, Fraction(0)) + ca * cb
    return {w: c for w, c in out.items() if c}


def assoc_commutator(a, b, max_degree):
    return assoc_add(assoc_mul(a, b, max_degree), assoc_mul(b, a, max_degree), Fraction(-1))


def lie_to_assoc(s):
    """Embed a LieSeries into the tensor algebra (concatenation words)."""
    out = {}
    for w, c in s.items():
        for word, k in word_expansion(w):
            out[word] = out.get(word, Fraction(0)) + c * k
    return {w: c for w, c in out.items() if c}


def lyndon_sweep(remaining):
    """Lyndon coordinates of a Lie element without constant term, given by
    its words in the tensor algebra, by the triangular lex sweep over every
    word; consumes `remaining`.  The oracle of freelie._lyndon_solve, which
    reads only the Lyndon entries.

    Works over any exact coefficients.  Raises ValueError on a word that no
    Lie element can leave.  One heap of words per degree: the expansion of
    a Lyndon word w0 has w0 as its smallest word, so every word it adds
    comes after w0, and a word popped after its coefficient cancelled is
    skipped.
    """
    coeffs = {}
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


def assoc_to_lyndon(p, degree):
    """Project a Lie element given in the tensor algebra to Lyndon
    coordinates; ValueError if it is not one up to the truncation."""
    if p.get("", 0):
        raise ValueError("constant term present: not a Lie element")
    return LieSeries(degree, lyndon_sweep(
        {w: c for w, c in p.items() if 0 < len(w) <= degree and c}))


def bracket_by_tensor_algebra(s1, s2, degree):
    """[s1, s2] as one commutator of the full expansions, truncated and
    projected once: the oracle for freelie.lie_bracket and ad_matrix."""
    a = {w: c for w, c in lie_to_assoc(s1).items() if len(w) <= degree}
    b = {w: c for w, c in lie_to_assoc(s2).items() if len(w) <= degree}
    return assoc_to_lyndon(assoc_commutator(a, b, degree), degree)


class AssocSeries(WordSeries):
    """Truncated series of words over {x, y} with rational coefficients; the
    empty word is allowed (identity operator)."""

    __slots__ = ()
    _rule = "has letters outside x, y"

    @staticmethod
    def _admits(word):
        return all(ch in "xy" for ch in word)

    @staticmethod
    def _show(word):
        return word or "1"

    def as_dict(self):
        return dict(self._c)


def delta_derivative(series, slot, degree):
    """Directional derivative delta_X (slot='X') or delta_Y of a Lie series,
    as the operator series sum_w c_w P_w over its Lyndon words, each P_w from
    cyclic._word_derivative."""
    if slot not in ("X", "Y"):
        raise ValueError("slot must be 'X' or 'Y'")
    letter = slot.lower()
    p = {}
    for w, c in series.items():
        for word, k in _word_derivative(w, letter):
            p[word] = p.get(word, Fraction(0)) + c * k
    return AssocSeries(degree, p)


def cyclic_reduce(p):
    """Project words onto necklaces (trace cyclicity); empty word -> scalar."""
    out = {}
    for w, c in p.items():
        m = min_rotation(w)
        out[m] = out.get(m, Fraction(0)) + c
    return CyclicWordSeries(p.degree, out)


def exp_series(n):
    """e^s up to s^n: the coefficient of s^k is 1/k!."""
    return [Fraction(1, math.factorial(k)) for k in range(n + 1)]


def substitute_series(coeffs, z, degree):
    """sum_k coeffs[k] z^k truncated, word by word; z must have zero constant term."""
    if z.get("", Fraction(0)):
        raise ValueError("substitution requires zero constant term")
    out = {"": coeffs[0]} if coeffs[0] else {}
    power = {"": Fraction(1)}
    for k in range(1, len(coeffs)):
        power = assoc_mul(power, z, degree)
        if not power:
            break
        if coeffs[k]:
            out = assoc_add(out, power, coeffs[k])
    return out


def u_by_substitution(order, degree):
    """e^a e^b - 1 as a dict of words, from the exp table at each generator."""
    a, b = ("x", "y") if order == "XY" else ("y", "x")
    ea = substitute_series(exp_series(degree), {a: Fraction(1)}, degree)
    eb = substitute_series(exp_series(degree), {b: Fraction(1)}, degree)
    return assoc_add(assoc_mul(ea, eb, degree), {"": Fraction(1)}, Fraction(-1))


def bch_by_substitution(degree, order):
    """log1p(e^a e^b - 1) by substitution, projected to the Lyndon basis."""
    u = u_by_substitution(order, degree)
    return assoc_to_lyndon(substitute_series(log1p_series(degree), u, degree), degree)
