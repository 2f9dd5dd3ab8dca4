"""Concrete quadratic Lie algebras given by matrices.

An algebra descriptor carries a matrix basis, the Gram matrix of an
invariant nondegenerate pairing, structure constants derived from the
basis, and a domain radius inside which exp is a chart.  Descriptors are
validated on construction (antisymmetry, Jacobi, invariance of the form,
unimodularity) and immutable afterwards.  load_algebra builds one from a
JSON descriptor; the built-ins so3, sl2 and gl2 are entries of the same
schema in _BUILTINS, which get_algebra builds once each.

The module also provides numerically robust exp/log, the operator calculus
f(ad_X) for analytic f given by a Taylor table, the Jacobian of exp, the
interpolating maps Phi_t, and the density kappa_t.

Every f(ad_X) goes through one kernel, ad_series: a stack of truncated
power series reduced to the powers A^0 ... A^{d-1} by the Cayley-Hamilton
recurrence in A^2, since ad_X is skew for the invariant form and its
characteristic polynomial is even or odd, with a gate on the odd power
sums that this relies on and a gate on each series' last term.  analytic_ad
applies it to read-only (1, 48) float rows: fn_dexp (jacobian_J, kappa_t),
fn_dexp_right (geom.cartan_eta) and fn_todd (geom's trace equation).
_float_rows builds every row, here and in the batched engine in geom, as
float() of an exact table of freelie, the one place where series
coefficients are written; this module imports nothing else of the
package.  The tail gate, not the poles at 2 pi i k, bounds the domain:
where a truncated series has not converged, or its value is not finite,
OutsideDomainError.

Chart maps: a descriptor whose basis is the standard so(3) basis
_SO3_BASIS, hat(e_1), hat(e_2), hat(e_3), uses the Rodrigues formulas, and every
other descriptor, sl(2) and gl(2) among them, uses the batched exponential
_expm and the batched, gated logarithm _logm_checked.
The choice is made once, from the verified basis, when the descriptor is
built.  _expm is the degree-13 Pade approximant with scaling and squaring
(Higham 2005) in plain numpy: the scaling is chosen and the squarings are
masked per matrix, so a stack gives bitwise each matrix's own result.  It
also serves matrix_exp and the round-trip gate of _logm_checked.  An
exponential that is not finite raises OutsideDomainError.  _logm_checked
takes square roots only until ||R - I||_1 <= 0.7266, the Kenney-Laub
bound of its 16-node Gauss-Legendre [16/16] Pade step, so most chart
products of the domain need none; a matrix nearer I takes the 8- or
4-node step that its norm allows.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .freelie import exp_minus_one_over_s, g_coefficients, one_minus_exp_neg_over_s

Vec = np.ndarray

_VALIDATION_TOL = 1e-12
_CLOSURE_TOL = 1e-9
# The [m/m] Pade steps of log(I + E), m Gauss-Legendre nodes, and their
# Kenney-Laub bounds theta_m: |r_m(-theta) - log(1 - theta)| <= 2^-53
# |log(1 - theta)| (theta_4, theta_8, theta_16 = 0.037835, 0.325305,
# 0.726634 from high-precision nodes, rounded down).  Square roots go on
# until ||R - I||_1 <= theta_16; then each matrix takes the fewest nodes
# whose bound covers it, since a stack costs one small solve per node and
# matrix, and most matrices of a sweep lie near I.
_LOG_PADE = ((4, 0.0378), (8, 0.3253), (16, 0.7266))
_LOG_THETA = _LOG_PADE[-1][1]
_SQRT_TOL = 1e-8        # Denman-Beavers: one step past ||M_k - I||_1 <= tol
_SQRT_MAX_ITER = 50     # Denman-Beavers steps per square root
_MAX_SQRTS = 40         # square roots per matrix
_EXPM_THETA = 5.371920351148152   # ||A||_1 bound of the degree-13 Pade (Higham 2005)
# the [13/13] Pade coefficients of exp, b_0 ... b_13, over b_0: a pivot of
# exactly 1 in V - U, so that exp(0) is exactly I
_EXPM_PADE = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))


class AlgebraValidationError(ValueError):
    """A quadratic-Lie-algebra descriptor failed a construction invariant."""


class OutsideDomainError(ValueError):
    """A point or operator left the validity domain of the construction."""


def _basis_array(basis) -> np.ndarray:
    """The basis as a float (d, n, n) array; AlgebraValidationError otherwise."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
        raise AlgebraValidationError("basis must be a (d, n, n) array")
    return basis


@dataclass(eq=False)
class QuadraticLieAlgebra:
    """Validated quadratic Lie algebra descriptor.  Immutable after init."""

    name: str
    basis: np.ndarray          # (d, n, n)
    Q: np.ndarray              # (d, d) Gram matrix of the invariant pairing
    domain_radius: float
    structure: np.ndarray = field(init=False)   # c[a, b, k]: [e_a,e_b] = c[a,b,k] e_k
    Qinv: np.ndarray = field(init=False)
    chart: str = field(init=False)             # "so3" | "generic"

    def __post_init__(self):
        self.basis = _basis_array(self.basis)
        self.Q = np.asarray(self.Q, dtype=float)
        d = self.basis.shape[0]
        if self.Q.shape != (d, d):
            raise AlgebraValidationError("form must be d x d")
        # every tolerance check below is False on NaN
        if not (np.all(np.isfinite(self.basis)) and np.all(np.isfinite(self.Q))):
            raise AlgebraValidationError("basis and form must be finite")
        if not (np.isfinite(self.domain_radius) and self.domain_radius > 0):
            raise AlgebraValidationError(
                f"domain radius {self.domain_radius} is not finite and positive")
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
        # ad_X = (X @ _ad_table).reshape(d, d): _ad_table[a, k d + b] = c[a, b, k]
        self._ad_table = np.ascontiguousarray(
            self.structure.transpose(0, 2, 1).reshape(d, d * d))
        self._ad_table.flags.writeable = False
        # the closed-form chart holds for the basis, whatever the name says
        if (self.basis.shape == _SO3_BASIS.shape
                and np.max(np.abs(self.basis - _SO3_BASIS)) <= _VALIDATION_TOL):
            self.chart = "so3"
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

    def ad(self, X: Vec) -> np.ndarray:
        """Matrix of ad_X in the basis; supports stacked inputs (..., d)."""
        X = np.asarray(X, dtype=float)
        return (X @ self._ad_table).reshape(X.shape[:-1] + (self.dim, self.dim))

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
        """exp of coordinate vectors, batched; the closed form for so3."""
        X = np.atleast_2d(_finite(X, "exp_chart"))
        if self.chart == "so3":
            return _so3_exp(X)
        return _exp_checked(_expm(self.to_matrix(X)), "exp_chart")

    def log_chart(self, M: np.ndarray) -> Vec:
        """Principal log of chart matrices back to coordinates, batched."""
        M = _finite(M, "log_chart")
        squeeze = M.ndim == 2
        M = M.reshape(-1, *M.shape[-2:])
        if self.chart == "so3":
            out = _so3_log(M)
        else:
            out = self.from_matrix(_logm_checked(M))
        return out[0] if squeeze else out


@dataclass(frozen=True)
class PointV:
    """A point (X, Y) of the product domain, in basis coordinates."""
    X: np.ndarray
    Y: np.ndarray

    def as_array(self) -> np.ndarray:
        """X and Y joined on the last axis: (2d,), or (..., 2d) for stacks."""
        return np.concatenate([np.asarray(self.X, float), np.asarray(self.Y, float)],
                              axis=-1)

    @staticmethod
    def from_array(p: np.ndarray, d: int) -> "PointV":
        p = np.asarray(p, dtype=float)
        return PointV(p[..., :d], p[..., d:])


# ---------------------------------------------------------------------------
# matrix exp / log

def _finite(M, where: str) -> np.ndarray:
    """M as a float array; ValueError if any entry is not finite."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError(f"non-finite entries in {where} input")
    return M


def _exp_checked(E: np.ndarray, where: str) -> np.ndarray:
    """E, unless the exponential overflowed: OutsideDomainError."""
    if not np.all(np.isfinite(E)):
        raise OutsideDomainError(f"{where}: the exponential is not finite")
    return E


def matrix_exp(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of one matrix or a stack (..., n, n).

    OutsideDomainError if the exponential overflows.
    """
    return _exp_checked(_expm(_finite(M, "matrix_exp")), "matrix_exp")


def _expm(M: np.ndarray) -> np.ndarray:
    """exp of a finite matrix or stack (..., n, n), silently inf or NaN on overflow.

    Scaling and squaring with the [13/13] Pade approximant r_13 (Higham,
    SIAM J. Matrix Anal. Appl. 26 (2005)): matrix i is scaled by 2^-s_i,
    s_i = max(0, ceil(log2(||A_i||_1 / theta_13))), then r_13 = (V - U)^-1
    (V + U) is squared s_i times.  Everything is per matrix, so a stack
    gives bitwise what each matrix gives alone.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    A = M.reshape(-1, n, n)
    with np.errstate(over="ignore", divide="ignore"):
        s = np.ceil(np.log2(_norm1(A) / _EXPM_THETA))
    # log2(0) = -inf gives s = 0; a norm that overflowed is below n 2^1024
    s = np.clip(s, 0, 1100).astype(int)
    A = np.ldexp(A, -s[:, None, None])
    b = _EXPM_PADE
    eye = np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + eye)
    R = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(s.max(initial=0)):
            sq = s > k
            R[sq] = R[sq] @ R[sq]
    return R.reshape(M.shape)


def matrix_log(M: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm on the exp chart, of one matrix or a stack.

    Rejects matrices whose spectrum touches the closed negative real axis
    and verifies the exp round trip to 1e-10.
    """
    return _logm_checked(_finite(M, "matrix_log"))


def _gl_nodes(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * x + 0.5, 0.5 * w


_LOG_NODES = [_gl_nodes(m) for m, _ in _LOG_PADE]
_LOG_STEP_BOUNDS = np.array([theta for _, theta in _LOG_PADE[:-1]])


def _norm1(M: np.ndarray) -> np.ndarray:
    """Matrix 1-norm of each matrix of a stack."""
    return np.max(np.sum(np.abs(M), axis=-2), axis=-1)


def _logm_checked(M: np.ndarray) -> np.ndarray:
    """Principal logarithm of a stack (..., n, n) of real matrices, gated.

    Inverse scaling and squaring in real arithmetic (Al-Mohy and Higham,
    SIAM J. Sci. Comput. 34 (2012)): s_i Denman-Beavers square roots of
    matrix i until R_i = M_i^{1/2^s_i} has ||R_i - I||_1 <= _LOG_THETA, then
    log(I + E) = sum_j w_j (I + x_j E)^{-1} E at the m Gauss-Legendre
    nodes x_j of [0, 1] (the [m/m] Pade approximant), times 2^s_i, with
    m = 4, 8 or 16, the fewest whose bound theta_m covers ||E||_1.  The
    error is at most |r_m(-||E||) - log(1 - ||E||)| (Kenney and Laub, SIAM
    J. Matrix Anal. Appl. 10 (1989); Higham, Functions of Matrices, 2008,
    ch. 11), within 2^-53 of |log(1 - ||E||)| up to theta_m.  Each matrix's
    result depends on that matrix alone.

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
    size = _norm1(R - eye)
    while True:
        far = ~(size <= _LOG_THETA)
        if not np.any(far):
            break
        if np.max(s[far]) >= _MAX_SQRTS:
            raise OutsideDomainError("outside exp(U): too many square roots")
        R[far] = _sqrtm_db(R[far])
        s[far] += 1
        size[far] = _norm1(R[far] - eye)
    E = R - eye
    step = np.searchsorted(_LOG_STEP_BOUNDS, size)
    L = np.empty_like(E)
    for k in np.flatnonzero(np.bincount(step, minlength=len(_LOG_NODES))):
        x, w = _LOG_NODES[k]
        sel = step == k
        Ek = E[sel]
        Z = np.linalg.solve(eye + x[:, None, None, None] * Ek,
                            np.broadcast_to(Ek, (len(x),) + Ek.shape))
        L[sel] = np.einsum('j,j...->...', w, Z)
    L *= (2.0 ** s)[:, None, None]
    err = np.max(np.abs(_expm(L) - A), axis=(-2, -1))
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


# -- the so(3) chart ---------------------------------------------------------

# the standard so(3) basis hat(e_1), hat(e_2), hat(e_3); as a (3, 9) table it
# maps v to hat(v) = v @ _SO3_HAT and a matrix R to vee(R - R^T) / 2 = R @ _SO3_VEE
_SO3_BASIS = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
                       [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                       [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
_SO3_BASIS.flags.writeable = False
_SO3_HAT = _SO3_BASIS.reshape(3, 9)
_SO3_VEE = 0.5 * _SO3_HAT.T
_SO3_VEE.flags.writeable = False


def _so3_exp(v: np.ndarray) -> np.ndarray:
    """Rodrigues: I + sin(t)/t K + (1 - cos t)/t^2 K^2, t = |v|, K = hat(v).

    sin(t)/t = sinc(t/pi) and (1 - cos t)/t^2 = sinc(t/(2 pi))^2 / 2 hold at
    t = 0 too, with no series branch.
    """
    theta = np.linalg.norm(v, axis=-1)
    K = (v @ _SO3_HAT).reshape(v.shape[:-1] + (3, 3))
    s = np.sinc(theta / np.pi)
    c = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    return np.eye(3) + s[..., None, None] * K + c[..., None, None] * (K @ K)


def _so3_log(R: np.ndarray) -> np.ndarray:
    """vee(R - R^T)/2 times t / sin t = 1 / sinc(t/pi), t the rotation angle."""
    tr = np.trace(R, axis1=-2, axis2=-1)
    theta = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
    if np.any(theta > 2.8):
        raise OutsideDomainError("outside exp(U): rotation angle near pi")
    a = R.reshape(R.shape[:-2] + (9,)) @ _SO3_VEE
    return a / np.sinc(theta / np.pi)[..., None]


# ---------------------------------------------------------------------------
# analytic functions of ad_X

def _entry_max(M: np.ndarray) -> np.ndarray:
    """np.max(np.abs(M), axis=(-2, -1)), taken along the outer axis of a
    transposed copy, which numpy reduces element-wise across rows (faster)."""
    flat = M.reshape(-1, M.shape[-2] * M.shape[-1]).T.copy()
    return np.max(np.abs(flat, out=flat), axis=0).reshape(M.shape[:-2])


def ad_series(A: np.ndarray, coeffs: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated power series sum_k coeffs[s, k] A^k on a stack (N, d, d).

    Reduces every series to the power basis A^0 ... A^{d-1} by the
    Cayley-Hamilton recurrence (Putzer 1966; Higham, Functions of
    Matrices, 2008, ch. 1), taken in A^2.  Each A_n is ad_W of a quadratic
    algebra, skew for the invariant form Q (A^T Q = -Q A), so its
    eigenvalues come in pairs +-lambda and its characteristic polynomial is
    x^e psi(x^2), d = 2 m + e, with psi of degree m.  Newton's identities on
    the even power sums tr(A^2k) / 2 give psi, and A^k = A^(e + o) (A^2)^i,
    k = e + o + 2 i, reduces by the scalar recurrence of y^i modulo psi(y),
    a geometric sequence when m = 1.  The table r holds
    A_n^k = sum_j r[k, j, n] A_n^j, zero where j and k differ in parity.

    Raises ValueError if an odd power sum tr(A_n^k), k <= d, exceeds
    1e-10 d |A_n|_F^k: such a stack is not skew for any invariant form, and
    its odd coefficients would be dropped.  Raises OutsideDomainError if,
    at some point, the last nonzero term of a series,
    |c_k| sum_j |r[k, j, n]| max|A_n^j|, exceeds 1e-12 (1 + max|f_s(A_n)|).

    Returns (F, pw, r): F (N, S, d, d) the series values, pw (N, d, d, d)
    the powers A^0 ... A^{d-1}, and r (K, d, N) the reduction table.
    """
    N, d = A.shape[0], A.shape[-1]
    K = coeffs.shape[1]
    m, e = divmod(d, 2)
    pw = np.empty((N, d, d, d))
    pw[:, 0] = np.eye(d)
    for j in range(1, d):
        np.matmul(pw[:, j - 1], A, out=pw[:, j])
    # power sums p_k = tr(A^k), k = 0 .. d; the odd ones vanish for a skew A
    p = np.empty((d + 1, N))
    p[:d] = np.einsum('njii->jn', pw)
    p[d] = np.einsum('nij,nji->n', pw[:, d - 1], A)
    odd = np.abs(p[1::2])
    norm = np.sqrt(np.einsum('nij,nij->n', A, A))
    if np.any(odd > 1e-10 * d * norm ** np.arange(1, d + 1, 2)[:, None]):
        raise ValueError(
            f"ad_series: odd power sum tr(A^k) {np.nanmax(odd):.2e} does not vanish; "
            "the stack is not skew for an invariant form")
    # Newton's identities k E_k = sum_i (-1)^(i-1) E_(k-i) P_i on the power
    # sums P_i = p_2i / 2 of y = lambda^2 give psi(y) = sum_k (-1)^k E_k y^(m-k)
    P = 0.5 * p[2::2]
    sgn = (-1.0) ** np.arange(m)
    E = np.empty((m + 1, N))
    E[0] = 1.0
    for k in range(1, m + 1):
        E[k] = (sgn[:k] @ (E[k - 1::-1] * P[:k])) / k
    # y^m = sum_j q_j y^j with q_(m-k) = (-1)^(k-1) E_k; rho[i] holds y^i
    q = (E[1:] * sgn[:, None])[::-1]                             # (m, N)
    half = (K + 1 - e) // 2
    rho = np.zeros((max(half, m), m, N))
    if m == 1:
        rho[:, 0] = q
        rho[0, 0] = 1.0
        np.cumprod(rho, axis=0, out=rho)
    elif m > 1:
        rho[:m] = np.eye(m)[:, :, None]
        for i in range(m, half):
            np.multiply(rho[i - 1, m - 1], q, out=rho[i])
            rho[i, 1:] += rho[i - 1, :-1]
    # interleave: A^(o + 2 i) = sum_j rho[i, j] A^(o + 2 j) for o = e, e + 1
    r = np.zeros((K, d, N))
    r[0, 0] = 1.0                       # A^0 = I, outside both blocks when d is odd
    for o in (e, e + 1):
        block = r[o::2, o::2]
        block[...] = rho[:len(block)]
    coef = (coeffs @ r.reshape(K, d * N)).reshape(-1, d, N).transpose(2, 0, 1)
    F = (coef @ pw.reshape(N, d, d * d)).reshape(N, -1, d, d)
    # tail gate on the last nonzero term of each series, per point
    last = K - 1 - np.argmax(coeffs[:, ::-1] != 0, axis=1)
    size = _entry_max(pw).T                                      # (d, N)
    tail = (np.abs(coeffs[np.arange(len(coeffs)), last])[:, None]
            * np.sum(np.abs(r[last]) * size, axis=1))            # (S, N)
    bound = 1e-12 * (1.0 + _entry_max(F).T)
    if not np.all(tail <= bound):                    # NaN fails the gate too
        raise OutsideDomainError(
            f"outside V: truncated series tail {np.max(tail):.2e} exceeds "
            f"{1e-12:.0e} (1 + |f(ad)|); spectrum of ad too large")
    return F, pw, r


def _float_rows(*tables: Sequence) -> np.ndarray:
    """Exact series tables as read-only float rows, zero-padded to the longest."""
    rows = np.zeros((len(tables), max(map(len, tables))))
    for row, table in zip(rows, tables):
        row[:len(table)] = [float(c) for c in table]
    rows.flags.writeable = False
    return rows


#: (1 - e^{-s})/s -- the pullback of the left Maurer-Cartan form, d(exp).
fn_dexp = _float_rows(one_minus_exp_neg_over_s(47))

#: (e^s - 1)/s -- the right-Maurer-Cartan pullback.
fn_dexp_right = _float_rows(exp_minus_one_over_s(47))

#: s/(e^s - 1) -- the generating function of the trace equation.
fn_todd = _float_rows(g_coefficients(47))


def analytic_ad(alg: QuadraticLieAlgebra, f: np.ndarray, X: Vec) -> np.ndarray:
    """f(ad_X) for X of shape (..., d), as (..., d, d).

    f is a (1, K) row of Taylor coefficients at 0, such as fn_dexp.  The
    whole row goes through ad_series, so the tail gate bounds the domain:
    OutsideDomainError where the truncated series has not converged (on
    so3, s/(e^s - 1) from a spectral radius of about 3.47, short of its
    pole at 2 pi, and both dexp factors from about 11.2).
    """
    A = alg.ad(X)
    F = ad_series(A.reshape(-1, alg.dim, alg.dim), f)[0]
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
    """(1/t) log(e^{tX} e^{tY}) in basis coordinates; X + Y at t = 0.

    X and Y are points (d,) or stacks (..., d) of the same shape, and so is
    the result.
    """
    X = np.asarray(p.X, dtype=float)
    Y = np.asarray(p.Y, dtype=float)
    if t == 0.0:
        return X + Y
    E = alg.exp_chart(t * np.stack([X, Y]).reshape(-1, alg.dim))
    n = len(E) // 2
    return alg.log_chart(E[:n] @ E[n:]).reshape(X.shape) / t


def kappa_t(alg: QuadraticLieAlgebra, t: float, p: PointV) -> float | np.ndarray:
    """J^{1/2}(tX) J^{1/2}(tY) / J^{1/2}(t Phi_t); exactly 1 at t = 0.

    A point gives a float, a stacked PointV (..., d) an array (...).
    """
    X = np.asarray(p.X, float)
    Y = np.asarray(p.Y, float)
    J = jacobian_J(alg, np.stack([t * X, t * Y, t * phi_t(alg, t, p)]))
    k = np.sqrt(J[0]) * np.sqrt(J[1]) / np.sqrt(J[2])
    return float(k) if k.ndim == 0 else k


# ---------------------------------------------------------------------------
# built-in algebras

# descriptors in load_algebra's schema: so(3) under -1/2 tr(u v), whose Gram
# matrix is the identity; sl(2, R) in the basis h, e, f and gl(2, R) in the
# matrix units E_11, E_12, E_21, E_22, both under the trace form
_BUILTINS = {
    "so3": {"basis": _SO3_BASIS, "form": "neg_half_trace", "domain_radius": 0.5},
    "sl2": {"basis": [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]],
                      [[0.0, 0.0], [1.0, 0.0]]], "domain_radius": 0.5},
    "gl2": {"basis": np.eye(4).reshape(4, 2, 2), "domain_radius": 0.4},
}


def builtin_algebras() -> List[QuadraticLieAlgebra]:
    """The validated built-in algebras: so(3), sl(2,R), gl(2,R)."""
    return [get_algebra(name) for name in _BUILTINS]


@functools.lru_cache(maxsize=None)
def get_algebra(name: str) -> QuadraticLieAlgebra:
    """The built-in algebra of that name, built once; KeyError for any other."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown algebra {name!r}; choose from {sorted(_BUILTINS)}")
    return load_algebra({"name": name, **_BUILTINS[name]})


def load_algebra(source) -> QuadraticLieAlgebra:
    """Load an algebra from a JSON descriptor (path or dict).

    Schema: {"name": str, "basis": [[[...]]],
             "form": "trace" | "neg_half_trace" | [[...]],
             "domain_radius": float}.
    The form is the pairing tr(u v) ("trace", the default), -1/2 tr(u v)
    ("neg_half_trace", positive definite on compact algebras such as so(n)),
    or the Gram matrix itself.  Validation runs on construction.
    """
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise AlgebraValidationError("descriptor must be a JSON object")
    basis = _basis_array(doc["basis"])   # before the trace form contracts it
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
