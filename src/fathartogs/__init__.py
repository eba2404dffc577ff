"""Numerical toolkit for the Bergman projection on fat Hartogs triangles.

The domain family is Omega_k = {|z1|^k < |z2| < 1} in C^2.  The package
evaluates the Bergman kernel in closed form and as a basis series,
integrates singular densities over the domain and the unit disc, applies
the Bergman projection exactly on monomials and numerically on general
inputs, and runs the verification experiments for the sharp L^p
boundedness window of the projection.
"""

from .geometry import (
    DomainSpec,
    Point2,
    OutsideDomainError,
    NonIntegerExponentError,
    aux_h,
    boundary_ladder,
    contains,
    sample_uniform,
    volume,
)
from .kernel import (
    MultiIndex,
    NearSingularError,
    SeriesDivergenceError,
    SeriesSpec,
    kernel_bound,
    kernel_closed,
    kernel_series,
    poly_p,
    poly_q,
)
from .projection import (
    MonomialInput,
    NonIntegrableInputError,
    ProjectedMonomial,
    project_monomial,
    project_numeric,
    project_numeric_monomial,
)
from .quadrature import (
    DivergentIntegralError,
    QuadratureSpec,
    integrate,
    radial_moment,
)
from .analysis import (
    RangeReport,
    SchurConfig,
    VerificationReport,
    critical_range,
    divergence_scan,
    norm_ratio_probe,
    schur_range,
    verify_calculus1,
    verify_disc_log,
    verify_schur,
)

__version__ = "0.1.0"
