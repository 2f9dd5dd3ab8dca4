"""Poisson-geometric construction of the Kashiwara-Vergne solution.

Pipeline, on the product of two copies of a quadratic Lie algebra:
the product Kirillov bivector P0; the chart pullback of the equivariant
Cartan 3-form; its homotopy primitive (a 2-form plus a moment term); the
gauge cocycle sigma assembled from them; the gauged and scaled bivectors
P_t; the Moser 1-form alpha_t and vector field v_t; and the extraction of
the pair (A, B) solving the Kashiwara-Vergne equations.

Realized conventions (fixed once, verified by the identity tests):
all bundle maps act as plain matrices on coordinate columns,

    P#(a)   = P @ a,          sigma_flat(w) = sigma @ w,
    iota_{xi_M} sigma = sigma @ xi_M,
    moment map condition:  xi_M = -P @ d<Phi, xi>,

the chart pullback of the Cartan 3-form is evaluated as
eta3(W; u, v, w) = -1/2 <L u, [L v, L w]> with L = (1 - e^{-ad_W})/ad_W,
its equivariant part as -1/2 <(L + R) u, xi>, and the Maurer-Cartan cross
term on the product as -1/2 <L(ad_X) u_X, R(ad_Y) v_Y> antisymmetrized.
With these choices the gauge of P0 by sigma has moment map log(e^X e^Y),
the density det^{1/2}(1 + sigma_t P0) equals kappa_t, and the Moser field
is v_t = -(P_t @ alpha_t); the transporting flow integrates dp/dt = -v_t.

The public functions return plain numpy values.  Each builds the batched
_Engine afresh and writes nothing onto the descriptor; the single-point
ones pass their PointV as a stack of one and return the first row.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .freelie import (
    exp_minus_one_over_s,
    exp_neg,
    one_minus_exp_neg_over_s,
    s_over_one_minus_exp_neg,
    sinh_minus_s_over_s2,
)
from .matrixlie import (
    OutsideDomainError,
    PointV,
    QuadraticLieAlgebra,
    Vec,
    _float_rows,
    ad_series,
    analytic_ad,
    fn_dexp,
    fn_dexp_right,
    fn_todd,
    kappa_t,
    phi_t,
)

_SERIES_TERMS = 22          # terms for L/R series on ad (spectra stay small)
_G_TERMS = 30               # terms for sigma's s/(1 - e^{-s}) (radius 2 pi)
_ALPHA_GATE = 1e-12         # |K15 - G7| bound on the Moser 1-form, relative to 1 + |alpha|
_FD_STEP = 1e-5             # central differences: step _FD_STEP (1 + |<p, u>|) along a unit u
_RANK_RTOL = 1e-6           # orbit-map singular values above _RANK_RTOL sigma_1 count toward r
_COND_LIMIT = 1e12
_GAUGE_NEAR = 0.99          # |M - I|_F under which the gauge factor M passes both gates
_CHUNK = 4096
_SUITE_SUBSAMPLE = 20       # points of the suite's Jacobi, moment-map and flow checks


# sigma's five series at ad: L = (1 - e^{-s})/s, R = (e^s - 1)/s, e^{-s},
# the inverse of L, s/(1 - e^{-s}), and varpi's phi = (sinh s - s)/s^2.
# L, R and e^{-s} stop at s^21 and phi at s^20, at coefficients of 1/22!.
# The inverse of L, to s^29, is the Todd series g(s) = s/(e^s - 1) at -s,
# whose float row fn_todd serves the trace equation (kv2_residual).
_SIGMA_ROWS = _float_rows(one_minus_exp_neg_over_s(_SERIES_TERMS - 1),
                          exp_minus_one_over_s(_SERIES_TERMS - 1),
                          exp_neg(_SERIES_TERMS - 1),
                          s_over_one_minus_exp_neg(_G_TERMS - 1),
                          sinh_minus_s_over_s2(_SERIES_TERMS - 2))

# Gauss-Kronrod G7/K15 on [-1, 1], as in QUADPACK's qk15 (Piessens et al.
# 1983): the Kronrod abscissae from the end point to the centre, their K15
# weights, and the G7 weights of the abscissae xgk[1], xgk[3], xgk[5], xgk[7].
_XGK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
# the same rules on [0, 1]: nodes s_k and weights, G7's zero at the Kronrod-only nodes
_K15_S = 0.5 + 0.5 * np.concatenate([-_XGK, _XGK[-2::-1]])
_K15_W = 0.5 * np.concatenate([_WGK, _WGK[-2::-1]])
_G7_W = np.zeros(15)
_G7_W[1::2] = 0.5 * np.concatenate([_WG, _WG[-2::-1]])
_KRONROD = np.stack([_K15_W, _K15_W - _G7_W])     # the integral and its error estimate
_SAMPLE_S = np.append(_K15_S, 1.0)      # the Moser 1-form's sigma samples: K15 nodes, then s = 1

DEFAULT_TOLERANCES: Dict[str, float] = {
    "eq1": 1e-7,
    "eq2": 1e-5,
    "kappaVsLambda": 1e-7,
    "jacobi": 1e-5,
    "momentMap": 1e-5,
    "transportPhi": 1e-6,
    "transportVol": 1e-5,
}


def _cumulative_simpson(f: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative integral along axis 0 of n uniformly spaced samples.

    Even nodes: composite Simpson over interval pairs.  Odd nodes k >= 3:
    Simpson's 3/8 rule over the last three intervals, added to node k - 3.
    Node 1: the integral of the cubic through the first four samples (the
    parabola through three when n = 3).  Every node is exact for cubics
    once n >= 4.  Needs n >= 3.
    """
    n = f.shape[0]
    out = np.zeros_like(f)
    for k in range(2, n, 2):
        out[k] = out[k - 2] + dt / 3.0 * (f[k - 2] + 4 * f[k - 1] + f[k])
    for k in range(3, n, 2):
        out[k] = out[k - 3] + 3.0 * dt / 8.0 * (f[k - 3] + 3 * (f[k - 2] + f[k - 1]) + f[k])
    if n >= 4:
        out[1] = dt / 24.0 * (9 * f[0] + 19 * f[1] - 5 * f[2] + f[3])
    else:
        out[1] = dt / 12.0 * (5 * f[0] + 8 * f[1] - f[2])
    return out


# The Adams pair of order 6, in units of dt / 1440 and newest value first:
# Adams-Bashforth on f_k ... f_{k-5} and Adams-Moulton on f_{k+1} ... f_{k-4},
# each the integral over [t_k, t_{k+1}] of the Lagrange polynomial through
# its six values.  _ADAMS_START RK4 steps give the first six.
_AB6 = (4277, -7923, 9982, -7298, 2877, -475)
_AM6 = (475, 1427, -798, 482, -173, 27)
_ADAMS_START = 5


def _adams(weights: Sequence[int], values: Sequence[np.ndarray]) -> np.ndarray:
    """sum_j weights[j] values[j] over the first len(weights) values, one
    elementwise term at a time, so a point's bits do not depend on its stack."""
    return sum(c * f for c, f in zip(weights, values))


# ---------------------------------------------------------------------------
# batched engine

def _chunked(f: Callable[[np.ndarray], np.ndarray], P: np.ndarray,
             shape: Tuple[int, ...]) -> np.ndarray:
    """f on the stack P, _CHUNK points per call, as one (len(P),) + shape array.

    A stack of one chunk is f(P) itself; an empty one never calls f.
    """
    if 0 < len(P) <= _CHUNK:
        return f(P)
    out = np.empty((len(P),) + shape)
    for lo in range(0, len(P), _CHUNK):
        out[lo:lo + _CHUNK] = f(P[lo:lo + _CHUNK])
    return out


def _stencil(P: np.ndarray, U: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The central-difference stencil of the points P (B, n) along unit directions.

    U (B, n, m) holds m unit directions u_k per point as columns.  The step
    along u_k is h_k = _FD_STEP (1 + |<p, u_k>|), the one step rule of the
    module; on a coordinate axis it is _FD_STEP (1 + |p_i|).  Returns the
    stack (2m B, n) of the points p + h_k u_k, p - h_k u_k (pairs in k,
    points within a pair) and the steps h (m, B).
    """
    h = _FD_STEP * (1.0 + np.abs(P[:, None] @ U)[:, 0].T)
    step = h[..., None] * np.transpose(U, (2, 0, 1))            # (m, B, n)
    return np.concatenate([P + step, P - step], axis=1).reshape(-1, P.shape[1]), h


def _differences(vals: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(f(p + h_k u_k) - f(p - h_k u_k)) / (2 h_k), as (m, B, ...), from the
    field's values (2m B, ...) on a _stencil stack and its steps h (m, B)."""
    m, B = h.shape
    vals = vals.reshape((2 * m, B) + vals.shape[1:])
    return (vals[0::2] - vals[1::2]) / (2 * h).reshape((m, B) + (1,) * (vals.ndim - 2))


def _central_differences(field: Callable[[np.ndarray], np.ndarray],
                         P: np.ndarray) -> np.ndarray:
    """Central differences of a batched field along every coordinate.

    P is a stack (B, n) of points; the field is called once, on the _stencil
    stack of the coordinate axes.  Returns D (n, B, ...) with
    D[i] = (f(p + h_i e_i) - f(p - h_i e_i)) / (2 h_i).  Callers that want
    another axis order copy it to C order, since einsum's summation order
    follows the memory layout of its operands.
    """
    B, n = P.shape
    stack, h = _stencil(P, np.broadcast_to(np.eye(n), (B, n, n)))
    return _differences(field(stack), h)


def _orbit_map(alg: QuadraticLieAlgebra, P: np.ndarray) -> np.ndarray:
    """T_p xi = ([xi, X], [xi, Y]) = (-ad_X xi, -ad_Y xi) at each point, as (B, 2d, d):
    the derivative at the identity of the diagonal adjoint action on g x g."""
    B, n = P.shape
    return -alg.ad(P.reshape(B, 2, n // 2)).reshape(B, n, n // 2)


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """blockdiag(M_0, M_1) from a stack (B, 2, d, d), as (B, 2d, 2d)."""
    B, _, d, _ = blocks.shape
    out = np.zeros((B, 2 * d, 2 * d))
    out[:, :d, :d] = blocks[:, 0]
    out[:, d:, d:] = blocks[:, 1]
    return out


def _equivariant_trace(alg: QuadraticLieAlgebra, field: Callable[[np.ndarray], np.ndarray],
                       P: np.ndarray, weight: np.ndarray | None = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """(f(P) (B, 2d), tr(W(p) Df(p)) (B,)) for an equivariant field f on g x g.

    f maps a stack (N, 2d) to (N, 2d) and commutes with the diagonal adjoint
    action, so along the orbit its derivative is known: Df(p) T_p = T_{f(p)}
    (_orbit_map).  Take the SVD T_p = U Sigma V^T and let r_p be the
    numerical rank at p, the count of sigma_k > _RANK_RTOL sigma_1 (r_p = 0
    at the origin; r_p < d where the stabilizer is positive-dimensional, at
    X || Y or on a centre).  With u_k the columns of U the trace splits into
    the orbit part tr(T_p^+ W T_{f(p)}), T_p^+ = V Sigma^{-1} U^T on the top
    r_p singular triples, which needs no field value beyond f(p), and the
    transverse part sum_k u_k^T W Df(p) u_k over the 2d - r_p columns beyond
    r_p, by central differences along u_k (_stencil).  Any orthonormal split
    gives the same trace; the threshold only bounds the 1/sigma_r
    amplification of rounding in the orbit part.  The points are taken in
    groups of one rank, so a point's stencil and result do not depend on
    the ranks of the others.  The field is called once, on the B points P
    followed by the sum over points of their 2 (2d - r_p) perturbations.
    W (B, 2d, 2d) defaults to the identity, where the trace is the
    divergence.
    """
    B = P.shape[0]
    U, s, Vt = np.linalg.svd(_orbit_map(alg, P))
    rank = (s > _RANK_RTOL * s[:, :1]).sum(axis=1)
    groups = [(r, np.flatnonzero(rank == r)) for r in sorted(set(rank.tolist()))]
    stencils = [_stencil(P[g], U[g, :, r:]) for r, g in groups]
    vals = field(np.concatenate([P] + [stack for stack, _ in stencils]))
    f = vals[:B]
    Tf = _orbit_map(alg, f)
    WU = U
    if weight is not None:
        Tf = weight @ Tf
        WU = np.transpose(weight, (0, 2, 1)) @ U
    tr = np.empty(B)
    lo = B
    for (r, g), (stack, h) in zip(groups, stencils):
        D = _differences(vals[lo:lo + len(stack)], h)               # (2d - r, |g|, 2d)
        lo += len(stack)
        # tr(V Sigma^{-1} U^T W T_f) = sum_k (u_k^T W T_f v_k) / sigma_k over k < r
        orbit = np.einsum('bik,bij,bkj->b', U[g, :, :r], Tf[g], Vt[g, :r] / s[g, :r, None])
        tr[g] = orbit + np.einsum('bik,kbi->b', WU[g, :, r:], D)
    return f, tr


def _dphi(F: np.ndarray, B: int) -> np.ndarray:
    """dPhi_t = [dPhi_t/dX, dPhi_t/dY] at B points, as (B, d, 2d).

    F holds the engine's sigma series L, R, e^{-s}, L^{-1} (rows 0-3) from one
    ad_series call on the stack [tX, tY, tPhi_t] of 3B points.  By the dexp
    calculus, with Z = t Phi_t = log(e^{tX} e^{tY}) and L(s) = (1 - e^{-s})/s:
    dPhi_t/dX = L(ad_Z)^{-1} e^{-ad_tY} L(ad_tX), dPhi_t/dY = L(ad_Z)^{-1} L(ad_tY).
    """
    Lx, Ly, Eyn, Gzn = F[:B, 0], F[B:2 * B, 0], F[B:2 * B, 2], F[2 * B:, 3]
    return np.concatenate([Gzn @ Eyn @ Lx, Gzn @ Ly], axis=-1)


class _Engine:
    """Vectorized evaluation core; all point arguments are stacks (B, 2d)."""

    def __init__(self, alg: QuadraticLieAlgebra):
        self.alg = alg
        self.d = alg.dim
        self.Q = alg.Q
        self.Qi = 0.5 * (alg.Qinv + alg.Qinv.T)

    # -- elementary pieces ---------------------------------------------------
    def p0(self, P: np.ndarray) -> np.ndarray:
        """Product Kirillov bivector, block diagonal, P_W = -ad_W Q^{-1}."""
        out = _block_diag(-self.alg.ad(P.reshape(P.shape[0], 2, self.d)) @ self.Qi)
        return 0.5 * (out - np.transpose(out, (0, 2, 1)))

    def varpi(self, W: np.ndarray) -> np.ndarray:
        """Homotopy primitive of the Cartan-form pullback, as (B, d, d).

        The integral -1/2 int_0^1 t^2 L(t ad_W)^T K_W L(t ad_W) dt, in
        closed form (see _varpi_from_powers).
        """
        return _chunked(lambda V: self._varpi_from_powers(
            ad_series(self.alg.ad(V), _SIGMA_ROWS[4:])[0][:, 0]), W, (self.d, self.d))

    def _varpi_from_powers(self, phi: np.ndarray) -> np.ndarray:
        """varpi = Q phi(ad_W), from the series phi(s) = (sinh s - s)/s^2 at ad_W.

        On a quadratic algebra K_W = ad_W^T Q = -Q ad_W and f(A)^T Q = Q f(-A),
        so L(tA)^T K_W L(tA) = -Q A L(-tA) L(tA) = -2 Q (cosh tA - 1) / (t^2 A),
        and -1/2 of its t^2-weighted integral over [0, 1] is Q (sinh A - A)/A^2.
        """
        M = self.Q @ phi
        return 0.5 * (M - np.transpose(M, (0, 2, 1)))

    def sigma(self, P: np.ndarray) -> np.ndarray:
        """The gauge 2-form at each point, as (B, 2d, 2d)."""
        return _chunked(self._sigma_chunk, P, (2 * self.d, 2 * self.d))

    def _sigma_chunk(self, P: np.ndarray) -> np.ndarray:
        d = self.d
        B = P.shape[0]
        X, Y = P[:, :d], P[:, d:]
        Z = phi_t(self.alg, 1.0, PointV(X, Y))
        # one table and one contraction for every series at X, Y and Z
        W = np.concatenate([X, Y, Z], axis=0)
        F = ad_series(self.alg.ad(W), _SIGMA_ROWS)[0]
        J = _dphi(F, B)
        w = self._varpi_from_powers(F[:, 4])
        S = np.transpose(J, (0, 2, 1)) @ w[2 * B:] @ J
        S[:, :d, :d] -= w[:B]
        S[:, d:, d:] -= w[B:2 * B]
        # the Maurer-Cartan cross term -1/2 L(ad_X)^T Q R(ad_Y)
        C = -0.5 * np.transpose(F[:B, 0], (0, 2, 1)) @ (self.Q @ F[B:2 * B, 1])
        S[:, :d, d:] += C
        S[:, d:, :d] -= np.transpose(C, (0, 2, 1))
        return 0.5 * (S - np.transpose(S, (0, 2, 1)))

    def psi(self, P: np.ndarray) -> np.ndarray:
        """Moment part Psi = Phi_0 - Phi_1 = X + Y - log(e^X e^Y)."""
        d = self.d
        return P[:, :d] + P[:, d:] - self.phi_t_map(1.0, P)

    def sigma_t(self, t: float, P: np.ndarray) -> np.ndarray:
        """sigma_t = t * sigma(t p): the scaled family, zero at t = 0."""
        return t * self.sigma(t * P)

    def alpha(self, t: float, P: np.ndarray) -> np.ndarray:
        """Moser 1-form iota_p [sigma(t p) - int_0^1 s sigma(t s p) ds], as (B, 2d)."""
        return self._alpha_gauge(t, P)[0]

    def _alpha_gauge(self, t: float, P: np.ndarray, P0: np.ndarray | None = None
                     ) -> Tuple[np.ndarray, np.ndarray | None]:
        """alpha_t and, given the bivectors P0 at P, the gauge factor 1 + sigma_t P0.

        alpha_t is the homotopy primitive int_0^1 s iota_p beta_s ds of
        d(sigma_t)/dt, beta_s = G'(t s) for G(u) = u sigma(u p).  Integrated
        by parts in s it is iota_p [sigma(t p) - int_0^1 s sigma(t s p) ds]
        for every t in [0, 1] (at t = 0, iota_p sigma(0) / 2), with no
        t-derivative.  One batched sigma call takes the 15 Kronrod nodes
        t s_k p and the base point t p, which the gauge factor shares.  The
        integral is K15; G7 on the same samples gates it: OutsideDomainError
        where |K15 - G7| > 1e-12 (1 + |alpha|) (max norms per point).
        """
        B, n2 = P.shape
        sig = self.sigma((t * _SAMPLE_S[:, None, None] * P[None]).reshape(-1, n2))
        # iota_p at every sample, v[k, b] = p_b^T sigma(t s_k p_b) = -sigma p_b
        # (sigma is antisymmetric), then K15 and K15 - G7 on v as one matrix
        # product.  Both give a point the same bits at any stack size; the
        # vector-matrix products p^T sigma and _K15_W @ v did not
        v = -(sig.reshape(16, B, n2, n2) @ P[None, :, :, None])[..., 0]
        quad = (_KRONROD @ (_K15_S[:, None, None] * v[:15]).reshape(15, B * n2)).reshape(2, B, n2)
        cov = v[15] - quad[0]
        err = quad[1]
        bound = _ALPHA_GATE * (1.0 + np.max(np.abs(cov), axis=1))
        if not np.all(np.max(np.abs(err), axis=1) <= bound):
            raise OutsideDomainError(
                "outside V: Moser 1-form quadrature unresolved (|K15 - G7| above "
                f"{_ALPHA_GATE:g} (1 + |alpha|))")
        if P0 is None:
            return cov, None
        return cov, self._gauge(t * sig[-B:], P0)

    def _gauge(self, sig_t: np.ndarray, P0: np.ndarray) -> np.ndarray:
        """1 + sigma_t P0 from sigma_t and P0, with invertibility gates; (B, 2d, 2d)."""
        M = np.eye(2 * self.d) + sig_t @ P0
        self._check_gauge(M)
        return M

    @staticmethod
    def _check_gauge(M: np.ndarray) -> None:
        """OutsideDomainError unless every det M > 0 and cond_2 M <= _COND_LIMIT.

        A stack with |M - I|_F <= _GAUGE_NEAR at every matrix passes both
        without det or SVD: each eigenvalue lies within |M - I|_2 <= 0.99 of
        1, so the real ones are positive and det M > 0, and each singular
        value lies in [0.01, 1.99] (Weyl), so cond_2 M <= 199.  Any other
        stack, a NaN among them, takes the exact gates.
        """
        E = M - np.eye(M.shape[-1])
        if np.all(np.einsum('nij,nij->n', E, E) <= _GAUGE_NEAR ** 2):
            return
        dets = np.linalg.det(M)
        if np.any(dets <= 0.0):
            raise OutsideDomainError("outside V: det(1 + sigma_t P0) not positive")
        sv = np.linalg.svd(M, compute_uv=False)
        if np.any(sv[:, 0] / sv[:, -1] > _COND_LIMIT):      # the 2-norm condition number
            raise OutsideDomainError("outside V: gauge factor ill conditioned")

    def p_t(self, t: float, P: np.ndarray) -> np.ndarray:
        P0 = self.p0(P)
        return P0 @ np.linalg.inv(self._gauge(self.sigma_t(t, P), P0))

    def lam(self, t: float, P: np.ndarray) -> np.ndarray:
        return np.sqrt(np.linalg.det(self._gauge(self.sigma_t(t, P), self.p0(P))))

    def moser_w(self, t: float, P: np.ndarray) -> np.ndarray:
        """v_t = -(P_t @ alpha_t) = -P0 (1 + sigma_t P0)^{-1} alpha_t."""
        P0 = self.p0(P)
        cov, M = self._alpha_gauge(t, P, P0)
        return -(P0 @ np.linalg.solve(M, cov[..., None]))[..., 0]

    def extract(self, P: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(A, B) with -(1 + sigma P0)^{-1} alpha_1 = Q A dX + Q B dY."""
        a1, M = self._alpha_gauge(1.0, P, self.p0(P))
        c = -np.linalg.solve(M, a1[..., None])[..., 0]
        d = self.d
        return (np.einsum('uv,bv->bu', self.Qi, c[:, :d]),
                np.einsum('uv,bv->bu', self.Qi, c[:, d:]))

    # -- residual evaluations -------------------------------------------------
    def eq1_residual(self, P: np.ndarray) -> np.ndarray:
        """max-norm residual of the first KV equation at each point."""
        d = self.d
        X, Y = P[:, :d], P[:, d:]
        A, Bv = self.extract(P)
        lhs = phi_t(self.alg, 1.0, PointV(Y, X)) - X - Y
        B = P.shape[0]
        # 1 - e^{-ad_X} = ad_X L(ad_X) and e^{ad_Y} - 1 = ad_Y R(ad_Y)
        ad = self.alg.ad(np.concatenate([X, Y]))
        F = ad_series(ad, _SIGMA_ROWS[:2])[0]
        rhs = (np.einsum('buv,bv->bu', ad[:B] @ F[:B, 0], A)
               + np.einsum('buv,bv->bu', ad[B:] @ F[B:, 1], Bv))
        return np.max(np.abs(lhs - rhs), axis=-1)

    def kappa(self, t: float, P: np.ndarray) -> np.ndarray:
        return kappa_t(self.alg, t, PointV.from_array(P, self.d))

    def kv2_residual(self, P: np.ndarray) -> np.ndarray:
        """|LHS - RHS| of the trace equation.

        The left side tr(ad_X d_X A) + tr(ad_Y d_Y B) is tr(W D(A, B)) with
        W = blockdiag(ad_X, ad_Y), taken by _equivariant_trace: the pair
        (A, B) is equivariant, so D(A, B) T_p = T_{(A, B)} along the orbit,
        and extract runs on the points and their 2 (2d - r) perturbations,
        r the smallest rank of the orbit map T_p in the stack.
        """
        d = self.d
        W = _block_diag(self.alg.ad(P.reshape(P.shape[0], 2, d)))
        lhs = _equivariant_trace(
            self.alg, lambda Q: np.concatenate(self.extract(Q), axis=1), P, W)[1]
        X, Y = P[:, :d], P[:, d:]
        Z = phi_t(self.alg, 1.0, PointV(X, Y))
        G = analytic_ad(self.alg, fn_todd, np.concatenate([X, Y, Z]))
        tr = np.trace(G, axis1=-2, axis2=-1).reshape(3, -1)
        rhs = -0.5 * (tr[0] + tr[1] - tr[2] - d)
        return np.abs(lhs - rhs)

    # -- structure checks ------------------------------------------------------
    def schouten_max(self, t: float, P: np.ndarray) -> np.ndarray:
        """max |[P_t, P_t]^{ijk}| per point (FD assembly)."""
        Pt = self.p_t(t, P)
        # D[b, l, j, k] = d(P_t)_{jk}/dp_l
        D = np.ascontiguousarray(
            _central_differences(lambda Q: self.p_t(t, Q), P).transpose(1, 0, 2, 3))
        S = (np.einsum('bil,bljk->bijk', Pt, D)
             + np.einsum('bjl,blki->bijk', Pt, D)
             + np.einsum('bkl,blij->bijk', Pt, D))
        return np.max(np.abs(S), axis=(1, 2, 3))

    def phi_t_map(self, t: float, P: np.ndarray) -> np.ndarray:
        return phi_t(self.alg, t, PointV.from_array(P, self.d))

    def dphi_t(self, t: float, P: np.ndarray) -> np.ndarray:
        """dPhi_t at each point, as (B, d, 2d), in closed form (see _dphi)."""
        d = self.d
        W = t * np.concatenate([P[:, :d], P[:, d:], self.phi_t_map(t, P)])
        return _dphi(ad_series(self.alg.ad(W), _SIGMA_ROWS[:4])[0], P.shape[0])

    def moment_residual(self, t: float, P: np.ndarray, xis: np.ndarray) -> float:
        """max | xi_M + P_t d<Phi_t, xi> | over points and test elements."""
        d = self.d
        Pt = self.p_t(t, P)
        J = self.dphi_t(t, P)
        worst = 0.0
        for xi in xis:
            xiM = np.concatenate([
                -self.alg.bracket(np.broadcast_to(xi, P[:, :d].shape), P[:, :d]),
                -self.alg.bracket(np.broadcast_to(xi, P[:, d:].shape), P[:, d:])], axis=-1)
            dH = np.einsum('bdu,dk,k->bu', J, self.Q, xi)
            r = xiM + np.einsum('buv,bv->bu', Pt, dH)
            worst = max(worst, float(np.max(np.abs(r))))
        return worst

    # -- flow -------------------------------------------------------------------
    def flow(self, P0pts: np.ndarray, steps: int
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integration of dp/dt = -v_t by an Adams predictor-corrector, with
        log-density accumulation.

        The Adams-Bashforth-Moulton pair of order 6 in PECE form (Hairer,
        Norsett and Wanner, Solving Ordinary Differential Equations I,
        III.1): from step _ADAMS_START on, AB6 predicts from the values -v_t
        at the last six accepted points, one moser_w call evaluates the
        prediction, and AM6 corrects.  The first _ADAMS_START steps, which
        build that history, are RK4.  Every step starts with _divergence_w
        at its accepted point, whose v_t is both RK4's first stage and the
        next history value, and whose divergence is integrated in time by
        cumulative Simpson.  A flow of S steps makes 1 + 4 min(S, 5) +
        2 max(S - 5, 0) moser_w calls: 91 at S = 40.  Returns (ts,
        trajectory (steps+1, B, 2d), log_density (steps+1, B)).  ValueError
        for fewer than 2 steps: one step leaves the log-density the
        trapezoid, whose volume drift (1.8e-5 on 4 so3 points of radius
        0.3) exceeds the transportVol tolerance.
        """
        if steps < 2:
            raise ValueError("steps must be >= 2")
        d = self.d
        dt = 1.0 / steps
        q = P0pts.astype(float)
        traj = np.empty((steps + 1,) + q.shape)
        div = np.empty((steps + 1, q.shape[0]))
        traj[0] = q
        hist = []                       # -v_t at the accepted points, newest first
        for k in range(steps):
            t0 = k * dt
            w, div[k] = self._divergence_w(t0, q)
            hist = [-w] + hist[:5]
            if k < _ADAMS_START:
                k1 = hist[0]
                k2 = -self.moser_w(t0 + dt / 2, q + dt / 2 * k1)
                k3 = -self.moser_w(t0 + dt / 2, q + dt / 2 * k2)
                k4 = -self.moser_w(min(t0 + dt, 1.0), q + dt * k3)
                q = q + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            else:
                f1 = -self.moser_w(min(t0 + dt, 1.0), q + dt / 1440 * _adams(_AB6, hist))
                q = q + dt / 1440 * _adams(_AM6, [f1] + hist)
            try:
                self.alg.check_point(q[:, :d], q[:, d:])
            except OutsideDomainError:
                raise OutsideDomainError(f"trajectory left V at t = {t0 + dt:.4f}") from None
            traj[k + 1] = q
        div[steps] = self._divergence_w(steps * dt, q)[1]
        return np.arange(steps + 1) * dt, traj, _cumulative_simpson(div, dt)

    def _divergence_w(self, t: float, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(v_t (B, 2d), div v_t (B,)) at q, from one moser_w call.

        v_t commutes with the diagonal adjoint action, so Dv_t(p) T_p =
        T_{v_t(p)} gives the divergence along the orbit without differencing
        (_equivariant_trace, W = I); central differences take the 2d - r_p
        directions across the orbits, r_p the rank of T_p at each point.  The
        call takes the points q and their 2 (2d - r_p) perturbations: 7
        points per generic point on so3 and sl2, 11 on gl2.  In the flow,
        its v_t at an accepted point is RK4's first stage during start-up
        and the Adams history value after it.
        """
        return _equivariant_trace(self.alg, lambda Q: self.moser_w(t, Q), q)


# ---------------------------------------------------------------------------
# public single-point operations

def kirillov_P0(alg: QuadraticLieAlgebra, p: PointV) -> np.ndarray:
    """Product Kirillov bivector at p, (2d, 2d): block diagonal, linear in the point."""
    return _Engine(alg).p0(p.as_array()[None])[0]


def modular_field(P_field: Callable[[np.ndarray], np.ndarray], p: PointV) -> np.ndarray:
    """Modular vector field of a bivector field w.r.t. a constant volume form.

    Components on the 2d coordinate Hamiltonians H_i = p_i, by central-FD
    divergence of the Hamiltonian fields v_{H_i} = -(P @ e_i).  P_field
    maps a stack of points (N, 2d) to bivectors (N, 2d, 2d); it is called
    once, on the stack of the 2 * 2d perturbed points.  The volume form is
    the constant (translation-invariant) one, whose coefficient drops out
    of the divergence.
    """
    # component k is sum_i d_i P_{ik}
    return np.einsum('iik->k', _central_differences(P_field, p.as_array()[None])[:, 0])


def cartan_eta(alg: QuadraticLieAlgebra, X: Vec, vectors: Sequence[Vec],
               equiv_param: Vec) -> float:
    """Chart pullback of the equivariant Cartan 3-form at chart point X.

    With three tangent vectors, returns the 3-form part
    -1/2 <L u, [L v, L w]>; with one vector, the equivariant 1-form part
    -1/2 <(L + R) u, xi>.
    """
    X = np.asarray(X, dtype=float)
    L = analytic_ad(alg, fn_dexp, X)
    if len(vectors) == 3:
        u, v, w = (np.asarray(a, float) for a in vectors)
        return -0.5 * float(alg.pairing(L @ u, alg.bracket(L @ v, L @ w)))
    if len(vectors) == 1:
        R = analytic_ad(alg, fn_dexp_right, X)
        u = np.asarray(vectors[0], float)
        return -0.5 * float(alg.pairing((L + R) @ u, np.asarray(equiv_param, float)))
    raise ValueError("cartan_eta evaluates the 3-form part (three vectors) "
                     "or the equivariant 1-form part (one vector)")


def varpi(alg: QuadraticLieAlgebra, Y: Vec, vectors: Sequence[Vec],
          equiv_param: Vec) -> float:
    """Homotopy primitive of the Cartan-form pullback at Y.

    Two vectors: the 2-form part, int_0^1 t^2 eta3(tY; Y, v1, v2) dt, from
    the engine's closed form.  No vectors: the moment (form-degree 0) part,
    -<Y, xi>.
    """
    Y = np.asarray(Y, dtype=float)
    if len(vectors) == 0:
        return -float(alg.pairing(Y, np.asarray(equiv_param, float)))
    if len(vectors) != 2:
        raise ValueError("varpi evaluates the 2-form part (two vectors) "
                         "or the moment part (no vectors)")
    v1, v2 = (np.asarray(a, float) for a in vectors)
    return float(v1 @ _Engine(alg).varpi(Y[None])[0] @ v2)


def sigma(alg: QuadraticLieAlgebra, p: PointV) -> Tuple[np.ndarray, Vec]:
    """The gauge cocycle at p: (2-form matrix (2d, 2d), moment part Psi = Phi0 - Phi1)."""
    eng = _Engine(alg)
    q = p.as_array()[None]
    return eng.sigma(q)[0], eng.psi(q)[0]


def gauge_P(alg: QuadraticLieAlgebra, t: float, p: PointV) -> np.ndarray:
    """Gauged and scaled bivector P_t = P0 (1 + sigma_t P0)^{-1}, (2d, 2d); P0 at t = 0."""
    return _Engine(alg).p_t(t, p.as_array()[None])[0]


def lambda_det(alg: QuadraticLieAlgebra, t: float, p: PointV) -> float:
    """det^{1/2}(1 + sigma_t P0) at p."""
    return float(_Engine(alg).lam(t, p.as_array()[None])[0])


def alpha(alg: QuadraticLieAlgebra, t: float, p: PointV) -> np.ndarray:
    """Moser 1-form alpha_t = iota_p [sigma(t p) - int_0^1 s sigma(t s p) ds], (2d,).

    This is the homotopy primitive of d(sigma_t)/dt, integrated by parts;
    OutsideDomainError when its G7/K15 quadrature is unresolved.
    """
    return _Engine(alg).alpha(t, p.as_array()[None])[0]


def moser_v(alg: QuadraticLieAlgebra, t: float, p: PointV) -> np.ndarray:
    """Moser vector field v_t = -(P_t @ alpha_t) at p, (2d,)."""
    return _Engine(alg).moser_w(t, p.as_array()[None])[0]


def extract_AB(alg: QuadraticLieAlgebra, p: PointV) -> Tuple[Vec, Vec]:
    """The Kashiwara-Vergne pair (A(X,Y), B(X,Y)) at p, in coordinates."""
    alg.check_point(p.X, p.Y)
    A, B = _Engine(alg).extract(p.as_array()[None])
    return A[0], B[0]


def kv2_numeric_residual(alg: QuadraticLieAlgebra, p: PointV) -> float:
    """|LHS - RHS| of the trace equation for the extracted pair at p."""
    return float(_Engine(alg).kv2_residual(p.as_array()[None])[0])


def flow_integrate(alg: QuadraticLieAlgebra, p0: PointV, steps: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate dp/dt = -v_t from t = 0 to 1, with volume transport.

    Five RK4 steps, then the Adams-Bashforth-Moulton pair of order 6
    (_Engine.flow).  Returns (ts (steps+1,), points (steps+1, 2d),
    log_density (steps+1,)).
    """
    alg.check_point(p0.X, p0.Y)
    ts, traj, dens = _Engine(alg).flow(p0.as_array()[None], steps)
    return ts, traj[:, 0], dens[:, 0]


def transport_drift(alg: QuadraticLieAlgebra, P: np.ndarray, steps: int
                    ) -> Tuple[float, float]:
    """Worst drift of Phi_t and of the volume along the Moser flow from P.

    Integrates the flow of the points P (B, 2d) over `steps` steps of
    _Engine.flow (RK4 start-up, then the Adams pair of order 6) and,
    at every step t > 0, compares Phi_t with Phi_0 and log kappa_t with the
    transported log-density (both are exact at t = 0).  Every step is taken
    in one stack through Phi_t(p) = Phi_1(t p) / t and kappa_t(p) =
    kappa_1(t p), _CHUNK points per call.  Returns (max |Phi_t - Phi_0|,
    max |log kappa_t - log-density|) over points and steps.
    """
    eng = _Engine(alg)
    ts, traj, dens = eng.flow(P, steps)
    B, n2 = P.shape
    t = np.repeat(ts[1:], B)[:, None]
    scaled = (ts[1:, None, None] * traj[1:]).reshape(-1, n2)
    phi0 = np.tile(eng.phi_t_map(0.0, P), (steps, 1))
    phi = _chunked(lambda S: eng.phi_t_map(1.0, S), scaled, (alg.dim,)) / t
    lk = np.log(_chunked(lambda S: eng.kappa(1.0, S), scaled, ()))
    return (float(np.max(np.abs(phi - phi0), initial=0.0)),
            float(np.max(np.abs(lk - dens[1:].reshape(-1)), initial=0.0)))


# ---------------------------------------------------------------------------
# sample sweeps and the report

def check_radius(alg: QuadraticLieAlgebra, radius: float) -> None:
    """ValueError unless 0 <= radius <= the algebra's domain radius."""
    if not 0 <= radius <= alg.domain_radius:    # False for nan as well
        raise ValueError(f"radius {radius} is not in [0, {alg.domain_radius}], "
                         f"the {alg.name} domain radius")


def sample_points(alg: QuadraticLieAlgebra, n: int, seed: int,
                  radius: float) -> np.ndarray:
    """n points (X, Y), each uniform in the coordinate ball of the radius."""
    check_radius(alg, radius)
    rng = np.random.default_rng(seed)
    d = alg.dim

    def ball(k: int) -> np.ndarray:
        u = rng.standard_normal((k, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = radius * rng.random(k) ** (1.0 / d)
        return u * r[:, None]

    return np.concatenate([ball(n), ball(n)], axis=1)


def run_geometry_suite(alg: QuadraticLieAlgebra, n_samples: int = 100,
                       seed: int = 42, radius: float = 0.3, steps: int = 200,
                       tolerances: Dict[str, float] | None = None) -> dict:
    """Full numeric verification sweep for one algebra; returns the report."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    eng = _Engine(alg)
    P = sample_points(alg, n_samples, seed, radius)
    rng = np.random.default_rng(seed + 1)

    eq1 = eng.eq1_residual(P)
    eq2 = eng.kv2_residual(P)

    kl_max = 0.0
    for t in (0.25, 0.5, 1.0):
        k = eng.kappa(t, P)
        kl_max = max(kl_max, float(np.max(np.abs(k - eng.lam(t, P)) / np.abs(k))))

    sub = P[:_SUITE_SUBSAMPLE]
    jac_max = 0.0
    for t in (0.25, 0.5, 1.0):
        jac_max = max(jac_max, float(np.max(eng.schouten_max(t, sub))))

    xis = 0.5 * rng.standard_normal((5, alg.dim))
    mom_max = 0.0
    for t in (0.25, 0.5, 1.0):
        mom_max = max(mom_max, eng.moment_residual(t, sub, xis))

    phi_drift, vol_drift = transport_drift(alg, sub, steps)

    residuals = {
        "eq1": {"max": float(np.max(eq1)), "mean": float(np.mean(eq1))},
        "eq2": {"max": float(np.max(eq2)), "mean": float(np.mean(eq2))},
        "kappaVsLambda": {"max": kl_max},
        "jacobi": {"max": jac_max},
        "momentMap": {"max": mom_max},
        "transportPhi": {"max": phi_drift},
        "transportVol": {"max": vol_drift},
    }
    passed = all(r["max"] <= tol[name] for name, r in residuals.items())
    return {
        "algebra": alg.name,
        "seed": seed,
        "nSamples": n_samples,
        "radius": radius,
        "steps": steps,
        "residuals": residuals,
        "tolerances": {k: tol[k] for k in residuals},
        "pass": bool(passed),
    }
