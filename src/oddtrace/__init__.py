"""Exact q-series characters of the neutral free fermion and the c = -21/4
Ramond superconformal algebra.

The package computes the odd-trace characters of these modules by two
independent routes (brute-force graded traces over monomial bases, and
closed-form q-expansions) and verifies that they agree: the fermion trace
reproduces the Dedekind eta function, and the c = -21/4 trace reproduces
eta^3/4, which together machine-check Jacobi's identity
eta^3 = q^(1/8) sum_n (4n+1) q^(n(2n+1)).
"""

__version__ = "0.1.0"

__all__ = ["FracPowerSeries", "__version__"]


def __getattr__(name):
    # FracPowerSeries is imported on first use, so that importing the
    # package compiles no submodule.
    if name == "FracPowerSeries":
        from .qseries import FracPowerSeries
        return FracPowerSeries
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
