"""Exact engine for the open Temperley-Lieb chain inner product and the
pair of KP tau functions attached to it.

The package constructs the Slavnov-type inner product of the open
Temperley-Lieb spin chain from exact scalar arithmetic, expands both
determinant families into Schur series, and mechanically certifies the
identities that tie them together: the tau-quotient form of the product,
bilinear (Hirota/Pluecker) relations, the residue form of the integral
representation, the Schur expansions, the Baker-Akhiezer quotient, the
strict-diagram counting of admissible expansions and the on-shell roots.
"""

__version__ = "0.1.0"

from .algebra import (
    FieldContext,
    QuadraticNumber,
    LaurentSeries,
    MiwaPolynomial,
    det,
    det_ring,
    vandermonde,
)
from .chain import (
    ChainParams,
    ParameterVector,
    PoleError,
    w_eval,
    lambda_eval,
    lambda_du,
    f2_eval,
    f_series,
    g_prefactor,
    kernel,
    slavnov,
)
from .schur import (
    cauchy_binet_coeffs,
    partitions_bounded,
    schur_miwa,
    schur_points,
    slavnov_schur_coeffs,
    tau_schur_poly,
)
from .tau import (
    baker_akhiezer,
    hirota_apply,
    hirota_kp_check,
    kp_operator,
    miwa_map,
    pluecker_residual,
    tau_det,
    tau_residue,
)
from .diagrams import count_closed, count_nested, enumerate_admissible
from .bethe import closed_form_single_roots, solve_bethe, solve_bethe_grid

__all__ = [
    "FieldContext",
    "QuadraticNumber",
    "LaurentSeries",
    "MiwaPolynomial",
    "det",
    "det_ring",
    "vandermonde",
    "ChainParams",
    "ParameterVector",
    "PoleError",
    "w_eval",
    "lambda_eval",
    "lambda_du",
    "f2_eval",
    "f_series",
    "g_prefactor",
    "kernel",
    "slavnov",
    "cauchy_binet_coeffs",
    "partitions_bounded",
    "schur_miwa",
    "schur_points",
    "slavnov_schur_coeffs",
    "tau_schur_poly",
    "baker_akhiezer",
    "hirota_apply",
    "hirota_kp_check",
    "kp_operator",
    "miwa_map",
    "pluecker_residual",
    "tau_det",
    "tau_residue",
    "count_closed",
    "count_nested",
    "enumerate_admissible",
    "closed_form_single_roots",
    "solve_bethe",
    "solve_bethe_grid",
    "__version__",
]
