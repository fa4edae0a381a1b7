"""Exact q-series characters of the neutral free fermion and the c = -21/4
Ramond superconformal algebra.

The package computes the odd-trace characters of these modules by two
independent routes (brute-force graded traces over monomial bases, and
closed-form q-expansions) and verifies that they agree: the fermion trace
reproduces the Dedekind eta function, and the c = -21/4 trace reproduces
eta^3/4, which together machine-check Jacobi's identity
eta^3 = q^(1/8) sum_n (4n+1) q^(n(2n+1)).
"""

from .qseries import FracPowerSeries, eta, euler_product, jacobi_rhs
from .superalgebras import (
    BasisElement,
    SpectrumEntry,
    bracket,
    g0_square_value,
    minimal_model_spectrum,
)
from .pbw import (
    GradedTraceReport,
    PBWMonomial,
    enumerate_fermion_monomials,
    enumerate_ns_monomials,
    fermion_odd_trace,
    signed_monomial_count,
    signed_monomial_counts,
)
from .characters import (
    VerificationReport,
    bgg_odd_trace,
    resolve_signs,
    verify_jacobi,
)
from .queer import Supermatrix, odd_trace, queer_mul, supertrace
from .modcheck import ModularResidual, TauPoint, check_S, check_T, eval_series

__version__ = "0.1.0"

__all__ = [
    "FracPowerSeries", "eta", "euler_product", "jacobi_rhs",
    "BasisElement", "SpectrumEntry", "bracket",
    "g0_square_value", "minimal_model_spectrum",
    "GradedTraceReport", "PBWMonomial", "enumerate_fermion_monomials",
    "enumerate_ns_monomials", "fermion_odd_trace", "signed_monomial_count",
    "signed_monomial_counts",
    "VerificationReport", "bgg_odd_trace", "resolve_signs", "verify_jacobi",
    "Supermatrix", "odd_trace", "queer_mul", "supertrace",
    "ModularResidual", "TauPoint", "check_S", "check_T", "eval_series",
    "__version__",
]
