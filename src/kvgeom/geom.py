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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .matrixlie import (
    OutsideDomainError,
    PointV,
    QuadraticLieAlgebra,
    Vec,
    _gl_nodes,
    analytic_ad,
    fn_dexp,
    fn_dexp_right,
    fn_todd,
)

_SERIES_TERMS = 22          # terms for L/R series on ad (spectra stay small)
_G_TERMS = 30               # terms for the Todd-type series (radius 2 pi)
_ALPHA_NODES = 16           # fixed Gauss-Legendre order for the Moser 1-form
_DT_SIGMA = 1e-4            # time step for d(sigma_t)/dt
_DPHI_H = 1e-5              # base step for the differential of Phi_t
_COND_LIMIT = 1e12
_CHUNK = 4096

DEFAULT_TOLERANCES: Dict[str, float] = {
    "eq1": 1e-7,
    "eq2": 1e-5,
    "kappaVsLambda": 1e-7,
    "jacobi": 1e-5,
    "momentMap": 1e-5,
    "transportPhi": 1e-6,
    "transportVol": 1e-5,
    "modular": 1e-7,
    "equivariance": 1e-6,
    "homotopy": 1e-5,
}


@dataclass(frozen=True)
class BivectorSample:
    at: PointV
    matrix: np.ndarray          # (2d, 2d), antisymmetric


@dataclass(frozen=True)
class TwoFormSample:
    at: PointV
    matrix: np.ndarray          # (2d, 2d), antisymmetric
    moment: np.ndarray          # Psi = Phi_0 - Phi_1, in basis coordinates


@dataclass(frozen=True)
class OneFormSample:
    at: PointV
    covector: np.ndarray        # (2d,)


@dataclass(frozen=True)
class FlowState:
    t: float
    point: PointV
    log_density: float


def _cumulative_simpson(f: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative integral along axis 0 of uniformly sampled values.

    Composite Simpson on interval pairs; odd endpoints use the 3-point
    right-open rule, so every node gets a 4th-order accurate value.
    """
    n = f.shape[0]
    out = np.zeros_like(f)
    for k in range(1, n):
        if k % 2 == 0:
            out[k] = out[k - 2] + dt / 3.0 * (f[k - 2] + 4 * f[k - 1] + f[k])
        elif k + 1 < n:
            out[k] = out[k - 1] + dt / 12.0 * (5 * f[k - 1] + 8 * f[k] - f[k + 1])
        else:
            out[k] = out[k - 1] + dt / 12.0 * (-f[k - 2] + 8 * f[k - 1] + 5 * f[k])
    return out


# ---------------------------------------------------------------------------
# batched engine

def _central_differences(field: Callable[[np.ndarray], np.ndarray],
                         P: np.ndarray, h) -> np.ndarray:
    """Central differences of a batched field along every coordinate.

    P is a stack (B, n) of points and h a scalar step or one step per point
    and coordinate (B, n).  The field is called once, on the stack of the
    2n B points p + h_i e_i, p - h_i e_i.  Returns D (n, B, ...) with
    D[i] = (f(p + h_i e_i) - f(p - h_i e_i)) / (2 h_i).  Callers that want
    another axis order copy it to C order, since einsum's summation order
    follows the memory layout of its operands.
    """
    B, n = P.shape
    h = np.broadcast_to(h, P.shape)
    stack = np.repeat(P[None], 2 * n, axis=0)
    for i in range(n):
        stack[2 * i, :, i] += h[:, i]
        stack[2 * i + 1, :, i] -= h[:, i]
    vals = field(stack.reshape(-1, n))
    vals = vals.reshape((2 * n, B) + vals.shape[1:])
    step = (2 * h.T).reshape((n, B) + (1,) * (vals.ndim - 2))
    return (vals[0::2] - vals[1::2]) / step


class _Engine:
    """Vectorized evaluation core; all point arguments are stacks (B, 2d)."""

    def __init__(self, alg: QuadraticLieAlgebra):
        self.alg = alg
        self.d = alg.dim
        self.Q = alg.Q
        self.Qi = 0.5 * (alg.Qinv + alg.Qinv.T)
        self.T = alg.structure          # c[a,b,k]
        # TQ[i,j,k] = <e_k, [e_i, e_j]>, so that K_W = einsum('ijk,k', TQ, W)
        self.TQ = np.einsum('ijl,lk->ijk', self.T, self.Q)
        # every coefficient comes from the matrixlie Taylor tables, truncated
        self.cL = np.array(fn_dexp.taylor[:_SERIES_TERMS])
        self.cR = np.array(fn_dexp_right.taylor[:_SERIES_TERMS])
        self.cG = np.array(fn_todd.taylor[:_G_TERMS])
        # s L(s) = 1 - e^{-s} and s R(s) = e^s - 1, to the same truncation
        self.cA = np.concatenate([[0.0], self.cL[:-1]])
        self.cB = np.concatenate([[0.0], self.cR[:-1]])
        # sigma's four series, zero-padded to one length: L, R,
        # e^{-s} = 1 - s L(s), and s/(1 - e^{-s}) = g(-s), the inverse of L
        self.c_sigma = np.zeros((4, _G_TERMS))
        self.c_sigma[0, :_SERIES_TERMS] = self.cL
        self.c_sigma[1, :_SERIES_TERMS] = self.cR
        self.c_sigma[2, :_SERIES_TERMS] = -self.cA
        self.c_sigma[2, 0] = 1.0
        self.c_sigma[3] = self.cG * (-1.0) ** np.arange(_G_TERMS)
        # closed-form varpi: int_0^1 t^(k+l+2) dt for the L-series terms k, l
        kl = np.arange(_SERIES_TERMS)
        self.H = 1.0 / (kl[:, None] + kl[None, :] + 3.0)
        self.st, self.sw = _gl_nodes(_ALPHA_NODES)

    # -- elementary pieces ---------------------------------------------------
    def ad(self, X: np.ndarray) -> np.ndarray:
        return np.einsum('...a,abk->...kb', X, self.T)

    def kmat(self, W: np.ndarray) -> np.ndarray:
        """K_W[i,j] = <W, [e_i, e_j]> (antisymmetric, linear in W)."""
        return np.einsum('ijk,...k->...ij', self.TQ, W)

    def p0(self, P: np.ndarray) -> np.ndarray:
        """Product Kirillov bivector, block diagonal, P_W = -ad_W Q^{-1}."""
        d = self.d
        B = P.shape[0]
        out = np.zeros((B, 2 * d, 2 * d))
        out[:, :d, :d] = -self.ad(P[:, :d]) @ self.Qi
        out[:, d:, d:] = -self.ad(P[:, d:]) @ self.Qi
        return 0.5 * (out - np.transpose(out, (0, 2, 1)))

    def series(self, A: np.ndarray, coeffs: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Truncated power series sum_k coeffs[s, k] A^k on a stack (N, d, d).

        Reduces every series to the power basis A^0 ... A^{d-1} by the
        Cayley-Hamilton recurrence (Putzer 1966; Higham, Functions of
        Matrices, 2008, ch. 1).  The characteristic polynomial of each A_n
        comes from tr(A_n^k) by Newton's identities, and the table r holds
        A_n^k = sum_j r[k, j, n] A_n^j, a scalar recurrence per point.
        Raises OutsideDomainError if, at some point, the last nonzero term
        of a series, |c_k| sum_j |r[k, j, n]| max|A_n^j|, exceeds
        1e-12 (1 + max|f_s(A_n)|).

        Returns (F, pw, r): F (N, S, d, d) the series values, pw (N, d, d, d)
        the powers A^0 ... A^{d-1}, and r (K, d, N) the reduction table.
        """
        N, d = A.shape[0], A.shape[-1]
        K = coeffs.shape[1]
        pw = np.empty((N, d, d, d))
        pw[:, 0] = np.eye(d)
        Ak = A
        for j in range(1, d):
            pw[:, j] = Ak
            Ak = Ak @ A
        # power sums p_k = tr(A^k), k = 1 .. d (Ak is now A^d), then Newton's
        # identities k e_k = sum_i (-1)^(i-1) e_(k-i) p_i for the elementary
        # symmetric functions e_k of the eigenvalues
        p = np.empty((d + 1, N))
        p[1:d] = np.einsum('njii->jn', pw[:, 1:])
        p[d] = np.einsum('nii->n', Ak)
        sgn = (-1.0) ** np.arange(d)
        e = np.empty((d + 1, N))
        e[0] = 1.0
        for k in range(1, d + 1):
            e[k] = (sgn[:k] @ (e[k - 1::-1] * p[1:k + 1])) / k
        # Cayley-Hamilton: A^d = sum_j q_j A^j with q_(d-k) = (-1)^(k-1) e_k
        q = (e[1:] * sgn[:, None])[::-1]                             # (d, N)
        r = np.empty((K, d, N))
        r[:d] = np.eye(d)[:K, :, None]
        for k in range(d, K):
            np.multiply(r[k - 1, d - 1], q, out=r[k])
            r[k, 1:] += r[k - 1, :-1]
        coef = (coeffs @ r.reshape(K, d * N)).reshape(-1, d, N).transpose(2, 0, 1)
        F = (coef @ pw.reshape(N, d, d * d)).reshape(N, -1, d, d)
        # tail gate on the last nonzero term of each series, per point
        last = K - 1 - np.argmax(coeffs[:, ::-1] != 0, axis=1)
        size = np.max(np.abs(pw), axis=(-2, -1)).T                   # (d, N)
        tail = (np.abs(coeffs[np.arange(len(coeffs)), last])[:, None]
                * np.sum(np.abs(r[last]) * size, axis=1))            # (S, N)
        bound = 1e-12 * (1.0 + np.max(np.abs(F), axis=(-2, -1)).T)
        if np.any(tail > bound):
            raise OutsideDomainError(
                f"outside V: truncated series tail {np.max(tail):.2e} exceeds "
                f"{1e-12:.0e} (1 + |f(ad)|); spectrum of ad too large")
        return F, pw, r

    def phi1(self, P: np.ndarray) -> np.ndarray:
        """log(e^X e^Y) in coordinates (the unscaled product map)."""
        d = self.d
        ex = self.alg.exp_chart(P[:, :d])
        ey = self.alg.exp_chart(P[:, d:])
        return self.alg.log_chart(ex @ ey)

    def varpi(self, W: np.ndarray) -> np.ndarray:
        """Homotopy primitive of the Cartan-form pullback, as (B, d, d).

        The integral -1/2 int_0^1 t^2 L(t ad_W)^T K_W L(t ad_W) dt, in
        closed form (see _varpi_from_powers).
        """
        out = np.empty((W.shape[0], self.d, self.d))
        for lo in range(0, W.shape[0], _CHUNK):
            ch = W[lo:lo + _CHUNK]
            _, pw, r = self.series(self.ad(ch), self.cL[None])
            out[lo:lo + _CHUNK] = self._varpi_from_powers(ch, pw, r)
        return out

    def _varpi_from_powers(self, W: np.ndarray, pw: np.ndarray, r: np.ndarray
                           ) -> np.ndarray:
        """-1/2 sum_{k,l} cL_k cL_l / (k + l + 3) (A^k)^T K_W A^l, A = ad_W.

        With A^k = sum_i r[k, i] A^i this is -1/2 sum_{i,j} C_ij (A^i)^T K_W A^j
        for the per-point d x d matrix C = R^T H R, R[k, i] = cL_k r[k, i].
        """
        N, d = W.shape
        K = self.kmat(W)
        R = (self.cL[:, None, None] * r[:_SERIES_TERMS]).transpose(2, 0, 1)
        C = np.transpose(R, (0, 2, 1)) @ self.H @ R                  # (N, d, d)
        KA = (K[:, None] @ pw).reshape(N, d, d * d)                  # K A^j
        T = (C @ KA).reshape(N, d * d, d)                            # sum_j C_ij K A^j
        M = -0.5 * (np.transpose(pw.reshape(N, d * d, d), (0, 2, 1)) @ T)
        return 0.5 * (M - np.transpose(M, (0, 2, 1)))

    def sigma(self, P: np.ndarray) -> np.ndarray:
        """The gauge 2-form at each point, as (B, 2d, 2d)."""
        out = np.empty((P.shape[0], 2 * self.d, 2 * self.d))
        for lo in range(0, P.shape[0], _CHUNK):
            out[lo:lo + _CHUNK] = self._sigma_chunk(P[lo:lo + _CHUNK])
        return out

    def _sigma_chunk(self, P: np.ndarray) -> np.ndarray:
        d = self.d
        B = P.shape[0]
        X, Y = P[:, :d], P[:, d:]
        Z = self.phi1(P)
        # one table and one contraction for every series at X, Y and Z
        W = np.concatenate([X, Y, Z], axis=0)
        F, pw, r = self.series(self.ad(W), self.c_sigma)
        Lx = F[:B, 0]
        Ly, Ry, Eyn = F[B:2 * B, 0], F[B:2 * B, 1], F[B:2 * B, 2]
        Gzn = F[2 * B:, 3]
        # d(phi1) by the dexp calculus, with Z = log(e^X e^Y) and
        # L(s) = (1 - e^{-s})/s: dZ/dX = L(ad_Z)^{-1} e^{-ad_Y} L(ad_X) and
        # dZ/dY = L(ad_Z)^{-1} L(ad_Y)
        J = np.empty((B, d, 2 * d))
        J[:, :, :d] = Gzn @ Eyn @ Lx
        J[:, :, d:] = Gzn @ Ly
        wX, wY, wZ = np.split(self._varpi_from_powers(W, pw, r), 3, axis=0)
        Jt = np.transpose(J, (0, 2, 1))
        S = Jt @ wZ @ J
        S[:, :d, :d] -= wX
        S[:, d:, d:] -= wY
        C = -0.5 * np.transpose(Lx, (0, 2, 1)) @ (self.Q @ Ry)
        S[:, :d, d:] += C
        S[:, d:, :d] -= np.transpose(C, (0, 2, 1))
        return 0.5 * (S - np.transpose(S, (0, 2, 1)))

    def psi(self, P: np.ndarray) -> np.ndarray:
        """Moment part Psi = Phi_0 - Phi_1 = X + Y - log(e^X e^Y)."""
        d = self.d
        return P[:, :d] + P[:, d:] - self.phi1(P)

    def sigma_t(self, t: float, P: np.ndarray) -> np.ndarray:
        """sigma_t = t * sigma(t p): the scaled family, zero at t = 0."""
        if t == 0.0:
            return np.zeros((P.shape[0], 2 * self.d, 2 * self.d))
        return t * self.sigma(t * P)

    def dsigma_dt(self, t: float, P: np.ndarray, ht: float = _DT_SIGMA) -> np.ndarray:
        if t == 0.0:
            f0 = self.sigma_t(0.0, P)
            return (-3 * f0 + 4 * self.sigma_t(ht, P) - self.sigma_t(2 * ht, P)) / (2 * ht)
        if t == 1.0:
            return (3 * self.sigma_t(1.0, P) - 4 * self.sigma_t(1 - ht, P)
                    + self.sigma_t(1 - 2 * ht, P)) / (2 * ht)
        return (self.sigma_t(t + ht, P) - self.sigma_t(t - ht, P)) / (2 * ht)

    def alpha(self, t: float, P: np.ndarray) -> np.ndarray:
        """Moser 1-form: homotopy applied to d(sigma_t)/dt, as (B, 2d)."""
        return self._alpha_gauge(t, P, want_gauge=False)[0]

    def _alpha_gauge(self, t: float, P: np.ndarray, want_gauge: bool = True
                     ) -> Tuple[np.ndarray, np.ndarray | None]:
        """alpha_t and (optionally) the gauge factor 1 + sigma_t P0.

        The t-derivative stencil, all homotopy nodes, and the gauge's own
        sigma sample share one batched sigma evaluation.
        """
        B = P.shape[0]
        S = len(self.st)
        n2 = 2 * self.d
        ht = _DT_SIGMA
        scaled = (self.st[:, None, None] * P[None, :, :]).reshape(S * B, n2)
        base = [t * P] if (want_gauge and t != 0.0) else []
        if t == 0.0:
            sig = self.sigma(np.concatenate([ht * scaled, 2 * ht * scaled]))
            s1, s2 = sig[:S * B], sig[S * B:]
            beta = (4 * ht * s1 - 2 * ht * s2) / (2 * ht)
        elif t == 1.0:
            sig = self.sigma(np.concatenate(
                [scaled, (1 - ht) * scaled, (1 - 2 * ht) * scaled] + base))
            s1, s2, s3 = sig[:S * B], sig[S * B:2 * S * B], sig[2 * S * B:3 * S * B]
            beta = (3 * s1 - 4 * (1 - ht) * s2 + (1 - 2 * ht) * s3) / (2 * ht)
        else:
            sig = self.sigma(np.concatenate(
                [(t + ht) * scaled, (t - ht) * scaled] + base))
            s1, s2 = sig[:S * B], sig[S * B:2 * S * B]
            beta = ((t + ht) * s1 - (t - ht) * s2) / (2 * ht)
        beta = beta.reshape(S, B, n2, n2)
        cov = np.einsum('s,sbuv,bu->bv', self.st * self.sw, beta, P)
        if not want_gauge:
            return cov, None
        M = np.broadcast_to(np.eye(n2), (B, n2, n2)).copy()
        if t != 0.0:
            M += t * sig[-B:] @ self.p0(P)
        self._check_gauge(M)
        return cov, M

    @staticmethod
    def _check_gauge(M: np.ndarray) -> None:
        dets = np.linalg.det(M)
        if np.any(dets <= 0.0):
            raise OutsideDomainError("outside V: det(1 + sigma_t P0) not positive")
        if np.any(np.linalg.cond(M) > _COND_LIMIT):
            raise OutsideDomainError("outside V: gauge factor ill conditioned")

    def gauge_factor(self, t: float, P: np.ndarray) -> np.ndarray:
        """1 + sigma_t P0 with invertibility gates; (B, 2d, 2d)."""
        M = np.broadcast_to(np.eye(2 * self.d), (P.shape[0], 2 * self.d, 2 * self.d)).copy()
        M += self.sigma_t(t, P) @ self.p0(P)
        self._check_gauge(M)
        return M

    def p_t(self, t: float, P: np.ndarray) -> np.ndarray:
        if t == 0.0:
            return self.p0(P)
        M = self.gauge_factor(t, P)
        return self.p0(P) @ np.linalg.inv(M)

    def lam(self, t: float, P: np.ndarray) -> np.ndarray:
        if t == 0.0:
            return np.ones(P.shape[0])
        return np.sqrt(np.linalg.det(self.gauge_factor(t, P)))

    def moser_w(self, t: float, P: np.ndarray) -> np.ndarray:
        """v_t = -(P_t @ alpha_t)."""
        cov, M = self._alpha_gauge(t, P)
        if t == 0.0:
            Pt = self.p0(P)
        else:
            Pt = self.p0(P) @ np.linalg.inv(M)
        return -np.einsum('buv,bv->bu', Pt, cov)

    def extract(self, P: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(A, B) with -(1 + sigma P0)^{-1} alpha_1 = Q A dX + Q B dY."""
        a1, M = self._alpha_gauge(1.0, P)
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
        ey = self.alg.exp_chart(Y)
        ex = self.alg.exp_chart(X)
        lhs = self.alg.log_chart(ey @ ex) - X - Y
        B = P.shape[0]
        F = self.series(self.ad(np.concatenate([X, Y])), np.stack([self.cA, self.cB]))[0]
        rhs = (np.einsum('buv,bv->bu', F[:B, 0], A)
               + np.einsum('buv,bv->bu', F[B:, 1], Bv))
        return np.max(np.abs(lhs - rhs), axis=-1)

    def kappa(self, t: float, P: np.ndarray) -> np.ndarray:
        if t == 0.0:
            return np.ones(P.shape[0])
        d = self.d
        W = np.concatenate([t * P[:, :d], t * P[:, d:], self.phi1(t * P)])
        dJ = np.linalg.det(self.series(self.ad(W), self.cL[None])[0][:, 0])
        if np.any(dJ <= 0.0):
            raise OutsideDomainError("outside V: Jacobian of exp not positive")
        dets = np.split(dJ, 3)
        return np.sqrt(dets[0] * dets[1] / dets[2])

    def kv2_residual(self, P: np.ndarray, h: float = 1e-5) -> np.ndarray:
        """|LHS - RHS| of the trace equation, delta-derivatives by FD."""
        d = self.d
        D = _central_differences(lambda Q: np.stack(self.extract(Q), axis=1), P, h)
        # DA[:, :, j] = dA/dX_j, DB[:, :, j] = dB/dY_j
        DA = np.ascontiguousarray(D[:d, :, 0].transpose(1, 2, 0))
        DB = np.ascontiguousarray(D[d:, :, 1].transpose(1, 2, 0))
        X, Y = P[:, :d], P[:, d:]
        lhs = (np.einsum('bij,bji->b', self.ad(X), DA)
               + np.einsum('bij,bji->b', self.ad(Y), DB))
        F = self.series(self.ad(np.concatenate([X, Y, self.phi1(P)])), self.cG[None])[0]
        tr = np.split(np.trace(F[:, 0], axis1=-2, axis2=-1), 3)
        rhs = -0.5 * (tr[0] + tr[1] - tr[2] - d)
        return np.abs(lhs - rhs)

    # -- structure checks ------------------------------------------------------
    def schouten_max(self, t: float, P: np.ndarray, h: float = 1e-4) -> np.ndarray:
        """max |[P_t, P_t]^{ijk}| per point (FD assembly)."""
        Pt = self.p_t(t, P)
        # D[b, l, j, k] = d(P_t)_{jk}/dp_l
        D = np.ascontiguousarray(
            _central_differences(lambda Q: self.p_t(t, Q), P, h).transpose(1, 0, 2, 3))
        S = (np.einsum('bil,bljk->bijk', Pt, D)
             + np.einsum('bjl,blki->bijk', Pt, D)
             + np.einsum('bkl,blij->bijk', Pt, D))
        return np.max(np.abs(S), axis=(1, 2, 3))

    def phi_t_map(self, t: float, P: np.ndarray) -> np.ndarray:
        d = self.d
        if t == 0.0:
            return P[:, :d] + P[:, d:]
        return self.phi1(t * P) / t

    def dphi_t(self, t: float, P: np.ndarray) -> np.ndarray:
        h = _DPHI_H * (1.0 + np.abs(P))
        D = _central_differences(lambda Q: self.phi_t_map(t, Q), P, h)
        return np.ascontiguousarray(D.transpose(1, 2, 0))

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
    def flow(self, P0pts: np.ndarray, steps: int,
             keep_every: int = 1) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """RK4 integration of dp/dt = -v_t with log-density accumulation.

        The trajectory is integrated first; the divergence of v_t is then
        evaluated by central differences at every stored step at once and
        integrated in time by cumulative Simpson.  Returns
        (ts, trajectory (steps+1, B, 2d), log_density (steps+1, B)).
        """
        d = self.d
        B, n2 = P0pts.shape
        r = self.alg.domain_radius
        dt = 1.0 / steps

        q = P0pts.astype(float).copy()
        traj = np.empty((steps + 1, B, n2))
        traj[0] = q
        for k in range(steps):
            t0 = k * dt
            k1 = -self.moser_w(t0, q)
            k2 = -self.moser_w(t0 + dt / 2, q + dt / 2 * k1)
            k3 = -self.moser_w(t0 + dt / 2, q + dt / 2 * k2)
            k4 = -self.moser_w(min(t0 + dt, 1.0), q + dt * k3)
            q = q + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if (np.any(np.linalg.norm(q[:, :d], axis=1) > r)
                    or np.any(np.linalg.norm(q[:, d:], axis=1) > r)):
                raise OutsideDomainError(f"trajectory left V at t = {t0 + dt:.4f}")
            traj[k + 1] = q

        div = np.empty((steps + 1, B))
        for k in range(steps + 1):
            div[k] = self._divergence_w(k * dt, traj[k])
        dens = _cumulative_simpson(div, dt)

        ts = np.arange(steps + 1) * dt
        keep = np.arange(0, steps + 1, keep_every)
        if keep[-1] != steps:
            keep = np.append(keep, steps)
        return ts[keep], traj[keep], dens[keep]

    def _divergence_w(self, t: float, q: np.ndarray) -> np.ndarray:
        """div of the Moser field at (t, q) by scaled central differences."""
        D = _central_differences(lambda Q: self.moser_w(t, Q), q,
                                 1e-4 * (1.0 + np.abs(q)))
        div = np.zeros(q.shape[0])
        for i in range(q.shape[1]):
            div += D[i, :, i]
        return div


def _engine(alg: QuadraticLieAlgebra) -> _Engine:
    eng = getattr(alg, "_geom_engine", None)
    if eng is None:
        eng = _Engine(alg)
        alg._geom_engine = eng
    return eng


# ---------------------------------------------------------------------------
# public single-point operations

def kirillov_P0(alg: QuadraticLieAlgebra, p: PointV) -> BivectorSample:
    """Product Kirillov bivector at p (block diagonal, linear in the point)."""
    eng = _engine(alg)
    return BivectorSample(p, eng.p0(p.as_array()[None])[0])


def modular_field(alg: QuadraticLieAlgebra, volume: float,
                  P_field: Callable[[np.ndarray], np.ndarray], p: PointV,
                  h: float = 1e-5) -> np.ndarray:
    """Modular vector field of a bivector field w.r.t. a constant volume form.

    Components on the 2d coordinate Hamiltonians H_i = p_i, by central-FD
    divergence of the Hamiltonian fields v_{H_i} = -(P @ e_i).  P_field
    maps a stack of points (N, 2d) to bivectors (N, 2d, 2d); it is called
    once, on the stack of the 2 * 2d perturbed points.  The volume
    coefficient is constant (translation-invariant form), so it drops out
    of the divergence; the argument is kept for interface fidelity.
    """
    del volume
    q = p.as_array()
    D = _central_differences(P_field, q[None], h * (1.0 + np.abs(q))[None])
    out = np.zeros(q.shape[0])
    for i in range(q.shape[0]):
        out += D[i, 0, i, :]  # sum_j d_j P_{j i} accumulated per j = i row
    return out


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
          equiv_param: Vec, tol: float = 1e-10) -> float:
    """Homotopy primitive of the Cartan-form pullback at Y.

    Two vectors: the 2-form part, by adaptive Gauss-Legendre quadrature of
    t^2 eta3(tY; Y, v1, v2) to the given tolerance.  No vectors: the moment
    (form-degree 0) part, -<Y, xi>.
    """
    Y = np.asarray(Y, dtype=float)
    if len(vectors) == 0:
        return -float(alg.pairing(Y, np.asarray(equiv_param, float)))
    if len(vectors) != 2:
        raise ValueError("varpi evaluates the 2-form part (two vectors) "
                         "or the moment part (no vectors)")
    v1, v2 = (np.asarray(a, float) for a in vectors)

    def integrand(ts: np.ndarray) -> np.ndarray:
        out = np.empty_like(ts)
        for i, t in enumerate(ts):
            out[i] = t * t * cartan_eta(alg, t * Y, (Y, v1, v2), equiv_param)
        return out

    val, est = _adaptive_gl(integrand, 0.0, 1.0, tol)
    if est > tol:
        raise OutsideDomainError(
            f"varpi quadrature did not converge: achieved {est:.2e} > {tol:.2e}")
    return float(val)


def _adaptive_gl(f, a: float, b: float, tol: float, depth: int = 8
                 ) -> Tuple[float, float]:
    xs16, ws16 = _gl_nodes(16, a, b)
    xs32, ws32 = _gl_nodes(32, a, b)
    i16 = float(np.dot(ws16, f(xs16)))
    i32 = float(np.dot(ws32, f(xs32)))
    err = abs(i32 - i16)
    if err <= tol or depth == 0:
        return i32, err
    m = 0.5 * (a + b)
    l, el = _adaptive_gl(f, a, m, tol / 2, depth - 1)
    r, er = _adaptive_gl(f, m, b, tol / 2, depth - 1)
    return l + r, el + er


def sigma(alg: QuadraticLieAlgebra, p: PointV) -> TwoFormSample:
    """The gauge cocycle at p: 2-form matrix and moment part Psi = Phi0 - Phi1."""
    eng = _engine(alg)
    q = p.as_array()[None]
    return TwoFormSample(p, eng.sigma(q)[0], eng.psi(q)[0])


def gauge_P(alg: QuadraticLieAlgebra, t: float, p: PointV) -> BivectorSample:
    """Gauged and scaled bivector P_t = P0 (1 + sigma_t P0)^{-1}; P0 at t = 0."""
    eng = _engine(alg)
    return BivectorSample(p, eng.p_t(t, p.as_array()[None])[0])


def lambda_det(alg: QuadraticLieAlgebra, t: float, p: PointV) -> float:
    """det^{1/2}(1 + sigma_t P0) at p."""
    eng = _engine(alg)
    return float(eng.lam(t, p.as_array()[None])[0])


def alpha(alg: QuadraticLieAlgebra, t: float, p: PointV) -> OneFormSample:
    """Moser 1-form alpha_t (homotopy primitive of d sigma_t/dt)."""
    eng = _engine(alg)
    return OneFormSample(p, eng.alpha(t, p.as_array()[None])[0])


def moser_v(alg: QuadraticLieAlgebra, t: float, p: PointV) -> np.ndarray:
    """Moser vector field v_t = -(P_t @ alpha_t) at p."""
    eng = _engine(alg)
    return eng.moser_w(t, p.as_array()[None])[0]


def extract_AB(alg: QuadraticLieAlgebra, p: PointV) -> Tuple[Vec, Vec]:
    """The Kashiwara-Vergne pair (A(X,Y), B(X,Y)) at p, in coordinates."""
    alg.check_point(p.X, p.Y)
    eng = _engine(alg)
    A, B = eng.extract(p.as_array()[None])
    return A[0], B[0]


def kv2_numeric_residual(alg: QuadraticLieAlgebra, p: PointV) -> float:
    """|LHS - RHS| of the trace equation for the extracted pair at p."""
    eng = _engine(alg)
    return float(eng.kv2_residual(p.as_array()[None])[0])


def flow_integrate(alg: QuadraticLieAlgebra, p0: PointV, steps: int
                   ) -> List[FlowState]:
    """Integrate dp/dt = -v_t from t = 0 to 1 by RK4, with volume transport."""
    alg.check_point(p0.X, p0.Y)
    eng = _engine(alg)
    ts, traj, dens = eng.flow(p0.as_array()[None], steps)
    return [FlowState(float(t), PointV.from_array(traj[k, 0], alg.dim),
                      float(dens[k, 0]))
            for k, t in enumerate(ts)]


def transport_drift(alg: QuadraticLieAlgebra, P: np.ndarray, steps: int,
                    keep_every: int) -> Tuple[float, float]:
    """Worst drift of Phi_t and of the volume along the Moser flow from P.

    Integrates the flow of the points P (B, 2d) over `steps` RK4 steps and,
    at every kept step t, compares Phi_t with Phi_0 and log kappa_t with the
    transported log-density.  Returns (max |Phi_t - Phi_0|, max |log kappa_t
    - log-density|) over points and kept steps.
    """
    eng = _engine(alg)
    ts, traj, dens = eng.flow(P, steps, keep_every=keep_every)
    phi0 = eng.phi_t_map(0.0, P)
    phi_drift = 0.0
    vol_drift = 0.0
    for k, t in enumerate(ts):
        phi_now = eng.phi_t_map(float(t), traj[k])
        phi_drift = max(phi_drift, float(np.max(np.abs(phi_now - phi0))))
        if t > 0:
            lk = np.log(eng.kappa(float(t), traj[k]))
            vol_drift = max(vol_drift, float(np.max(np.abs(lk - dens[k]))))
    return phi_drift, vol_drift


# ---------------------------------------------------------------------------
# sample sweeps and the report

def sample_points(alg: QuadraticLieAlgebra, n: int, seed: int,
                  radius: float) -> np.ndarray:
    """n points (X, Y), each uniform in the coordinate ball of the radius."""
    if radius > alg.domain_radius:
        raise ValueError(f"radius {radius} exceeds the {alg.name} domain "
                         f"radius {alg.domain_radius}")
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
                       tolerances: Dict[str, float] | None = None,
                       flow_subsample: int = 20,
                       check_subsample: int = 20) -> dict:
    """Full numeric verification sweep for one algebra; returns the report."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    eng = _engine(alg)
    P = sample_points(alg, n_samples, seed, radius)
    rng = np.random.default_rng(seed + 1)

    eq1 = eng.eq1_residual(P)
    eq2 = eng.kv2_residual(P)

    kl_max = 0.0
    for t in (0.25, 0.5, 1.0):
        kl = np.abs(eng.kappa(t, P) - eng.lam(t, P)) / np.abs(eng.kappa(t, P))
        kl_max = max(kl_max, float(np.max(kl)))

    sub = P[:min(check_subsample, n_samples)]
    jac_max = 0.0
    for t in (0.25, 0.5, 1.0):
        jac_max = max(jac_max, float(np.max(eng.schouten_max(t, sub))))

    xis = 0.5 * rng.standard_normal((5, alg.dim))
    mom_max = 0.0
    for t in (0.25, 0.5, 1.0):
        mom_max = max(mom_max, eng.moment_residual(t, sub, xis))

    phi_drift, vol_drift = transport_drift(
        alg, P[:min(flow_subsample, n_samples)], steps, keep_every=max(1, steps // 20))

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
