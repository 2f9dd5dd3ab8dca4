"""Kashiwara-Vergne equations: exact symbolic engine and Poisson-geometric solver."""

from .freelie import LieSeries, bch, lie_bracket, lyndon_basis, rescale
from .cyclic import CyclicWordSeries, kv2_residual
from .kvsolve import KVPair, evaluate_pair, kv1_residual, solve_kv
from .matrixlie import (
    PointV,
    QuadraticLieAlgebra,
    analytic_ad,
    builtin_algebras,
    jacobian_J,
    kappa_t,
    matrix_exp,
    matrix_log,
    phi_t,
)
from .geom import (
    alpha,
    cartan_eta,
    extract_AB,
    flow_integrate,
    gauge_P,
    kirillov_P0,
    kv2_numeric_residual,
    lambda_det,
    modular_field,
    moser_v,
    sigma,
    varpi,
)

__version__ = "0.1.0"
