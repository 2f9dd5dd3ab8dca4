"""Concrete quadratic Lie algebras given by matrices.

An algebra descriptor carries a matrix basis, the Gram matrix of an
invariant nondegenerate pairing, structure constants derived from the
basis, and a domain radius inside which exp is a chart.  Descriptors are
validated on construction (antisymmetry, Jacobi, invariance of the form,
unimodularity) and immutable afterwards.

The module also provides numerically robust exp/log, the operator calculus
f(ad_X) for analytic f given by a Taylor table, the Jacobian of exp, the
interpolating maps Phi_t, and the density kappa_t.

Every f(ad_X) goes through one kernel, ad_series: a stack of truncated
power series reduced to the powers A^0 ... A^{d-1} by the Cayley-Hamilton
recurrence, with a gate on each series' last term.  analytic_ad,
jacobian_J and kappa_t apply it to the 48-term tables of fn_dexp,
fn_dexp_right and fn_todd; the batched engine in geom applies it to the
same tables truncated to 22 and 30 terms.  The tail gate, not the poles
at 2 pi i k, bounds the domain: where a truncated series has not
converged, or its value is not finite, OutsideDomainError.

Chart maps: a descriptor whose basis is the standard so(3) basis
_hat3(e_1), _hat3(e_2), _hat3(e_3) uses the Rodrigues formulas, one of 2 x 2
matrices uses the 2 x 2 closed forms, and every other descriptor uses one
batched scipy.linalg.expm and the batched, gated logarithm _logm_checked.
The choice is made once, from the verified basis, when the descriptor is
built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np
import scipy.linalg

from .cyclic import g_coefficients
from .freelie import exp_minus_one_over_s, one_minus_exp_neg

Vec = np.ndarray

_VALIDATION_TOL = 1e-12
_CLOSURE_TOL = 1e-9
_LOG_THETA = 0.25       # square roots until ||R - I||_1 <= theta (Pade step)
_LOG_PADE_NODES = 8     # Gauss-Legendre nodes: the [8/8] Pade of log(I + E)
_SQRT_TOL = 1e-8        # Denman-Beavers: one step past ||M_k - I||_1 <= tol
_SQRT_MAX_ITER = 50     # Denman-Beavers steps per square root
_MAX_SQRTS = 40         # square roots per matrix


class AlgebraValidationError(ValueError):
    """A quadratic-Lie-algebra descriptor failed a construction invariant."""


class OutsideDomainError(ValueError):
    """A point or operator left the validity domain of the construction."""


@dataclass(eq=False)
class QuadraticLieAlgebra:
    """Validated quadratic Lie algebra descriptor.  Immutable after init."""

    name: str
    basis: np.ndarray          # (d, n, n)
    Q: np.ndarray              # (d, d) Gram matrix of the invariant pairing
    domain_radius: float
    structure: np.ndarray = field(init=False)   # c[a, b, k]: [e_a,e_b] = c[a,b,k] e_k
    Qinv: np.ndarray = field(init=False)
    chart: str = field(init=False)             # "so3" | "2x2" | "generic"

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        self.Q = np.asarray(self.Q, dtype=float)
        d = self.basis.shape[0]
        if self.basis.ndim != 3 or self.basis.shape[1] != self.basis.shape[2]:
            raise AlgebraValidationError("basis must be a (d, n, n) array")
        if self.Q.shape != (d, d):
            raise AlgebraValidationError("form must be d x d")
        if np.max(np.abs(self.Q - self.Q.T)) > _VALIDATION_TOL:
            raise AlgebraValidationError("form is not symmetric")
        if abs(np.linalg.det(self.Q)) < 1e-10:
            raise AlgebraValidationError("form is degenerate")
        self.Qinv = np.linalg.inv(self.Q)

        flat = self.basis.reshape(d, -1).T          # (n*n, d)
        self._pinv = np.linalg.pinv(flat)           # (d, n*n)
        comms = np.einsum('aij,bjk->abik', self.basis, self.basis)
        comms = comms - np.transpose(comms, (1, 0, 2, 3))
        self.structure = np.einsum('di,abi->abd', self._pinv,
                                   comms.reshape(d, d, -1))
        recon = np.einsum('abd,dij->abij', self.structure, self.basis)
        if np.max(np.abs(recon - comms)) > _VALIDATION_TOL * max(1.0, np.max(np.abs(comms))):
            raise AlgebraValidationError("basis does not close under brackets")
        self._validate()
        # the closed-form charts hold for the basis, whatever the name says
        if (self.basis.shape == (3, 3, 3)
                and np.max(np.abs(self.basis - _hat3(np.eye(3)))) <= _VALIDATION_TOL):
            self.chart = "so3"
        elif self.matrix_size == 2:
            self.chart = "2x2"
        else:
            self.chart = "generic"

    # -- validation ---------------------------------------------------------
    def _validate(self):
        c = self.structure
        if np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) > _VALIDATION_TOL:
            raise AlgebraValidationError("structure constants not antisymmetric")
        jac = (np.einsum('abm,mck->abck', c, c)
               + np.einsum('bcm,mak->abck', c, c)
               + np.einsum('cam,mbk->abck', c, c))
        if np.max(np.abs(jac)) > _VALIDATION_TOL:
            raise AlgebraValidationError("Jacobi identity fails")
        # invariance: <[e_a,e_b], e_k> + <e_b, [e_a,e_k]> = 0
        T = np.einsum('abl,lk->abk', c, self.Q)
        if np.max(np.abs(T + np.transpose(T, (0, 2, 1)))) > _VALIDATION_TOL:
            raise AlgebraValidationError("form is not invariant")
        # quadratic => unimodular: tr(ad_{e_a}) = 0
        if np.max(np.abs(np.einsum('abb->a', c))) > _VALIDATION_TOL:
            raise AlgebraValidationError("algebra is not unimodular")

    # -- basic operations ----------------------------------------------------
    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def matrix_size(self) -> int:
        return self.basis.shape[1]

    def ad(self, X: Vec) -> np.ndarray:
        """Matrix of ad_X in the basis; supports stacked inputs (..., d)."""
        return np.einsum('...a,abk->...kb', np.asarray(X, dtype=float), self.structure)

    def bracket(self, u: Vec, v: Vec) -> Vec:
        return np.einsum('...a,...b,abk->...k', np.asarray(u, float),
                         np.asarray(v, float), self.structure)

    def pairing(self, u: Vec, v: Vec) -> float | np.ndarray:
        return np.einsum('...a,ab,...b->...', np.asarray(u, float), self.Q,
                         np.asarray(v, float))

    def to_matrix(self, X: Vec) -> np.ndarray:
        return np.einsum('...a,aij->...ij', np.asarray(X, dtype=float), self.basis)

    def from_matrix(self, M: np.ndarray, closure_tol: float = _CLOSURE_TOL) -> Vec:
        """Least-squares coordinates; raises if M leaves the subalgebra."""
        M = np.asarray(M, dtype=float)
        coords = np.einsum('di,...i->...d', self._pinv, M.reshape(*M.shape[:-2], -1))
        recon = self.to_matrix(coords)
        resid = np.max(np.abs(recon - M), axis=(-2, -1))
        if np.any(resid > closure_tol * (1.0 + np.max(np.abs(M)))):
            raise OutsideDomainError(
                f"matrix leaves the subalgebra (closure residual {np.max(resid):.2e})")
        return coords

    def coord_norm(self, X: Vec) -> float | np.ndarray:
        return np.linalg.norm(np.asarray(X, float), axis=-1)

    def check_point(self, X: Vec, Y: Vec) -> None:
        r = self.domain_radius
        if np.any(self.coord_norm(X) > r + 1e-12) or np.any(self.coord_norm(Y) > r + 1e-12):
            raise OutsideDomainError(f"point outside the |X|,|Y| <= {r} domain of {self.name}")

    # -- chart maps (exp/log on the defining representation) -----------------
    def exp_chart(self, X: Vec) -> np.ndarray:
        """exp of coordinate vectors, batched; closed forms for so3 and 2 x 2."""
        X = np.atleast_2d(_finite(X, "exp_chart"))
        if self.chart == "so3":
            return _so3_exp(X)
        if self.chart == "2x2":
            return _exp_2x2(self.to_matrix(X))
        return scipy.linalg.expm(self.to_matrix(X))

    def log_chart(self, M: np.ndarray) -> Vec:
        """Principal log of chart matrices back to coordinates, batched."""
        M = _finite(M, "log_chart")
        squeeze = M.ndim == 2
        M = M.reshape(-1, *M.shape[-2:])
        if self.chart == "so3":
            out = _so3_log(M)
        elif self.chart == "2x2":
            out = self.from_matrix(_log_2x2(M))
        else:
            out = self.from_matrix(_logm_checked(M))
        return out[0] if squeeze else out


@dataclass(frozen=True)
class PointV:
    """A point (X, Y) of the product domain, in basis coordinates."""
    X: np.ndarray
    Y: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.X, float), np.asarray(self.Y, float)])

    @staticmethod
    def from_array(p: np.ndarray, d: int) -> "PointV":
        p = np.asarray(p, dtype=float)
        return PointV(p[:d], p[d:])


# ---------------------------------------------------------------------------
# matrix exp / log

def _finite(M, where: str) -> np.ndarray:
    """M as a float array; ValueError if any entry is not finite."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError(f"non-finite entries in {where} input")
    return M


def matrix_exp(M: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade approximants)."""
    return scipy.linalg.expm(_finite(M, "matrix_exp"))


def matrix_log(M: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm on the exp chart, of one matrix or a stack.

    Rejects matrices whose spectrum touches the closed negative real axis
    and verifies the exp round trip to 1e-10.
    """
    return _logm_checked(_finite(M, "matrix_log"))


def _gl_nodes(n: int, a: float = 0.0, b: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


_GL_NODES, _GL_WEIGHTS = _gl_nodes(_LOG_PADE_NODES)


def _norm1(M: np.ndarray) -> np.ndarray:
    """Matrix 1-norm of each matrix of a stack."""
    return np.max(np.sum(np.abs(M), axis=-2), axis=-1)


def _logm_checked(M: np.ndarray) -> np.ndarray:
    """Principal logarithm of a stack (..., n, n) of real matrices, gated.

    Inverse scaling and squaring in real arithmetic (Al-Mohy and Higham,
    SIAM J. Sci. Comput. 34 (2012)): s_i Denman-Beavers square roots of
    matrix i until R_i = M_i^{1/2^s_i} has ||R_i - I||_1 <= _LOG_THETA, then
    log(I + E) = sum_j w_j (I + x_j E)^{-1} E at the Gauss-Legendre nodes
    x_j of [0, 1] (the [m/m] Pade approximant), times 2^s_i.

    Raises OutsideDomainError for the whole stack if any matrix has an
    eigenvalue on the closed negative real axis (where the principal log is
    not real), needs more than _MAX_SQRTS square roots, has a square root
    that does not converge, or fails the exp/log round trip.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    A = M.reshape(-1, n, n)
    scale = np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1)))
    eigs = np.linalg.eigvals(A)
    sc = scale[:, None]
    if np.any((eigs.real <= 1e-12 * sc) & (np.abs(eigs.imag) <= 1e-10 * sc)):
        raise OutsideDomainError("outside exp(U): spectrum meets the negative real axis")
    eye = np.eye(n)
    R = A.copy()
    s = np.zeros(len(A))
    while True:
        far = ~(_norm1(R - eye) <= _LOG_THETA)
        if not np.any(far):
            break
        if np.max(s[far]) >= _MAX_SQRTS:
            raise OutsideDomainError("outside exp(U): too many square roots")
        R[far] = _sqrtm_db(R[far])
        s[far] += 1
    E = R - eye
    Z = np.linalg.solve(eye + _GL_NODES[:, None, None, None] * E,
                        np.broadcast_to(E, (_LOG_PADE_NODES,) + E.shape))
    L = np.einsum('j,j...->...', _GL_WEIGHTS, Z) * (2.0 ** s)[:, None, None]
    err = np.max(np.abs(scipy.linalg.expm(L) - A), axis=(-2, -1))
    if not np.all(err <= 1e-10 * (1.0 + scale)):
        raise OutsideDomainError("outside exp(U): exp/log round trip failed")
    return L.reshape(M.shape)


def _sqrtm_db(A: np.ndarray) -> np.ndarray:
    """Principal square roots of a stack by the product-form Denman-Beavers
    iteration: Y_k -> A^{1/2} and M_k -> I, quadratically near the limit, so
    one step past ||M_k - I||_1 <= _SQRT_TOL reaches working precision."""
    eye = np.eye(A.shape[-1])
    Y = Mk = A
    for _ in range(_SQRT_MAX_ITER):
        done = _norm1(Mk - eye) <= _SQRT_TOL
        Minv = np.linalg.inv(Mk)
        Y = 0.5 * Y @ (eye + Minv)
        Mk = 0.5 * eye + 0.25 * (Mk + Minv)
        if np.all(done):
            return Y
    raise OutsideDomainError("outside exp(U): square-root iteration did not converge")


# -- closed-form charts ------------------------------------------------------

def _hat3(v: np.ndarray) -> np.ndarray:
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]; out[..., 1, 0] = v[..., 2]
    out[..., 0, 2] = v[..., 1];  out[..., 2, 0] = -v[..., 1]
    out[..., 1, 2] = -v[..., 0]; out[..., 2, 1] = v[..., 0]
    return out


def _so3_exp(v: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(v, axis=-1)
    K = _hat3(v)
    K2 = K @ K
    t2 = theta * theta
    small = theta < 1e-3
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0,
                     np.sin(theta) / np.where(small, 1.0, theta))
        c = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0,
                     (1.0 - np.cos(theta)) / np.where(small, 1.0, t2))
    eye = np.broadcast_to(np.eye(3), K.shape)
    return eye + s[..., None, None] * K + c[..., None, None] * K2


def _so3_log(R: np.ndarray) -> np.ndarray:
    tr = np.trace(R, axis1=-2, axis2=-1)
    ct = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(ct)
    if np.any(theta > 2.8):
        raise OutsideDomainError("outside exp(U): rotation angle near pi")
    a = np.stack([R[..., 2, 1] - R[..., 1, 2],
                  R[..., 0, 2] - R[..., 2, 0],
                  R[..., 1, 0] - R[..., 0, 1]], axis=-1) / 2.0
    t2 = theta * theta
    small = theta < 1e-3
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(small, 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0,
                     theta / np.where(small, 1.0, np.sin(theta)))
    return a * f[..., None]


def _exp_2x2(M: np.ndarray) -> np.ndarray:
    tau = 0.5 * np.trace(M, axis1=-2, axis2=-1)
    N = M - tau[..., None, None] * np.eye(2)
    mu2 = -np.linalg.det(N)                     # N^2 = mu^2 I
    mu = np.sqrt(mu2.astype(complex))
    small = np.abs(mu) < 1e-4
    mu_safe = np.where(small, 1.0, mu)
    ch = np.where(small, 1.0 + mu2 / 2.0 + mu2 * mu2 / 24.0, np.cosh(mu))
    sh = np.where(small, 1.0 + mu2 / 6.0 + mu2 * mu2 / 120.0, np.sinh(mu) / mu_safe)
    out = (ch[..., None, None] * np.eye(2) + sh[..., None, None] * N)
    return np.exp(tau)[..., None, None] * out.real


def _log_2x2(M: np.ndarray) -> np.ndarray:
    det = np.linalg.det(M)
    if np.any(det <= 1e-12):
        raise OutsideDomainError("outside exp(U): nonpositive determinant")
    s = np.sqrt(det)
    U = M / s[..., None, None]
    c = 0.5 * np.trace(U, axis1=-2, axis2=-1)
    if np.any(c <= -1.0 + 1e-10):
        raise OutsideDomainError("outside exp(U): 2x2 trace at branch cut")
    W = U - c[..., None, None] * np.eye(2)
    mu2 = (c * c - 1.0).astype(complex)
    mu = np.sqrt(mu2)
    small = np.abs(mu) < 1e-4
    mu_safe = np.where(small, 1.0, mu)
    # angle a with cosh a = c, sinh a = mu; a/mu = arcsinh(mu)/mu near 0
    a = np.log(c + mu)
    f = np.where(small, 1.0 - mu2 / 6.0 + 3.0 * mu2 * mu2 / 40.0, a / mu_safe)
    out = f[..., None, None] * W
    if np.max(np.abs(out.imag)) > 1e-9:
        raise OutsideDomainError("outside exp(U): complex 2x2 logarithm")
    return np.log(s)[..., None, None] * np.eye(2) + out.real


# ---------------------------------------------------------------------------
# analytic functions of ad_X

def ad_series(A: np.ndarray, coeffs: np.ndarray
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
    if not np.all(tail <= bound):                    # NaN fails the gate too
        raise OutsideDomainError(
            f"outside V: truncated series tail {np.max(tail):.2e} exceeds "
            f"{1e-12:.0e} (1 + |f(ad)|); spectrum of ad too large")
    return F, pw, r


@dataclass(frozen=True)
class AnalyticFunction:
    """Scalar analytic function, given by its Taylor coefficients at 0."""
    name: str
    taylor: Tuple[float, ...]


def _taylor_L(n: int) -> Tuple[float, ...]:
    return tuple(float(c) for c in one_minus_exp_neg(n)[1:])


def _taylor_R(n: int) -> Tuple[float, ...]:
    return tuple(float(c) for c in exp_minus_one_over_s(n - 1))


def _taylor_g(n: int) -> Tuple[float, ...]:
    return tuple(float(c) for c in g_coefficients(n - 1))


#: (1 - e^{-s})/s -- the pullback of the left Maurer-Cartan form, d(exp).
fn_dexp = AnalyticFunction("(1-exp(-s))/s", _taylor_L(48))

#: (e^s - 1)/s -- the right-Maurer-Cartan pullback.
fn_dexp_right = AnalyticFunction("(exp(s)-1)/s", _taylor_R(48))

#: s/(e^s - 1) -- the generating function of the trace equation.
fn_todd = AnalyticFunction("s/(exp(s)-1)", _taylor_g(48))


def analytic_ad(alg: QuadraticLieAlgebra, f: AnalyticFunction, X: Vec) -> np.ndarray:
    """f(ad_X) for X of shape (..., d), as (..., d, d).

    The whole 48-term Taylor table of f through ad_series, so the tail
    gate bounds the domain: OutsideDomainError where the truncated series
    has not converged (on so3, s/(e^s - 1) from a spectral radius of
    about 3.47, short of its pole at 2 pi, and both dexp factors from
    about 11.2).
    """
    A = alg.ad(X)
    F = ad_series(A.reshape(-1, alg.dim, alg.dim), np.array([f.taylor]))[0]
    return F[:, 0].reshape(A.shape)


def jacobian_J(alg: QuadraticLieAlgebra, X: Vec) -> float | np.ndarray:
    """Jacobian of exp: det((1 - e^{-ad_X})/ad_X); positive on the domain.

    X of shape (..., d) gives (...); a single point gives a float.
    """
    J = np.linalg.det(analytic_ad(alg, fn_dexp, X))
    if np.any(J <= 0.0):
        raise OutsideDomainError("outside V: Jacobian of exp not positive")
    return float(J) if J.ndim == 0 else J


# ---------------------------------------------------------------------------
# the interpolation Phi_t and the density kappa_t

def phi_t(alg: QuadraticLieAlgebra, t: float, p: PointV) -> Vec:
    """(1/t) log(e^{tX} e^{tY}) in basis coordinates; X + Y at t = 0."""
    X = np.asarray(p.X, dtype=float)
    Y = np.asarray(p.Y, dtype=float)
    if t == 0.0:
        return X + Y
    E = alg.exp_chart(t * np.stack([X, Y]))
    return alg.log_chart(E[0] @ E[1]) / t


def kappa_t(alg: QuadraticLieAlgebra, t: float, p: PointV) -> float:
    """J^{1/2}(tX) J^{1/2}(tY) / J^{1/2}(t Phi_t); equals 1 at t = 0."""
    if t == 0.0:
        return 1.0
    X = np.asarray(p.X, float)
    Y = np.asarray(p.Y, float)
    J = jacobian_J(alg, np.stack([t * X, t * Y, t * phi_t(alg, t, p)]))
    return math.sqrt(J[0]) * math.sqrt(J[1]) / math.sqrt(J[2])


# ---------------------------------------------------------------------------
# built-in algebras

def _so3() -> QuadraticLieAlgebra:
    basis = _hat3(np.eye(3))
    # pairing -1/2 tr(uv) makes the Gram matrix the identity
    gram = -0.5 * np.einsum('aij,bji->ab', basis, basis)
    return QuadraticLieAlgebra("so3", basis, gram, domain_radius=0.5)


def _sl2() -> QuadraticLieAlgebra:
    h = np.array([[1.0, 0.0], [0.0, -1.0]])
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    f = np.array([[0.0, 0.0], [1.0, 0.0]])
    basis = np.stack([h, e, f])
    gram = np.einsum('aij,bji->ab', basis, basis)   # trace form
    return QuadraticLieAlgebra("sl2", basis, gram, domain_radius=0.5)


def _gl2() -> QuadraticLieAlgebra:
    basis = np.zeros((4, 2, 2))
    basis[0, 0, 0] = 1.0
    basis[1, 0, 1] = 1.0
    basis[2, 1, 0] = 1.0
    basis[3, 1, 1] = 1.0
    gram = np.einsum('aij,bji->ab', basis, basis)   # trace form
    return QuadraticLieAlgebra("gl2", basis, gram, domain_radius=0.4)


_BUILTINS: dict[str, Callable[[], QuadraticLieAlgebra]] = {
    "so3": _so3, "sl2": _sl2, "gl2": _gl2,
}
_cache: dict[str, QuadraticLieAlgebra] = {}


def builtin_algebras() -> List[QuadraticLieAlgebra]:
    """The validated built-in algebras: so(3), sl(2,R), gl(2,R)."""
    return [get_algebra(name) for name in ("so3", "sl2", "gl2")]


def get_algebra(name: str) -> QuadraticLieAlgebra:
    if name not in _BUILTINS:
        raise KeyError(f"unknown algebra {name!r}; choose from {sorted(_BUILTINS)}")
    if name not in _cache:
        _cache[name] = _BUILTINS[name]()
    return _cache[name]


def load_algebra(source) -> QuadraticLieAlgebra:
    """Load a custom algebra from a JSON descriptor (path or dict).

    Schema: {"name": str, "basis": [[[...]]], "form": "trace" | [[...]],
             "domain_radius": float}.  Validation runs on construction.
    """
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    basis = np.asarray(doc["basis"], dtype=float)
    form = doc.get("form", "trace")
    if isinstance(form, str):
        if form == "trace":
            gram = np.einsum('aij,bji->ab', basis, basis)
        elif form == "neg_half_trace":
            gram = -0.5 * np.einsum('aij,bji->ab', basis, basis)
        else:
            raise AlgebraValidationError(f"unknown form type {form!r}")
    else:
        gram = np.asarray(form, dtype=float)
    return QuadraticLieAlgebra(doc.get("name", "custom"), basis, gram,
                               float(doc.get("domain_radius", 0.3)))
