"""Spectral theory of hyperbolic weighted composition semigroups on Bergman
spaces: exact spectral regions from boundary invariants, plus independent
numerical cross-checks (Taylor-block membership, orbit-integral resolvents,
a Galerkin truncation oracle) and deterministic JSON/SVG reporting.
"""

from .errors import (BergspecError, ConfigError, CoverageError,
                     EvaluationError, ExprSyntaxError, InversionError,
                     ModelInconsistencyError, OrbitIntegralError,
                     OutsideOmegaError, PetalExitError, WindingError)
from .expr import AnalyticExpr, parse_expr
from .numerics import (MembershipVerdict, ResolventCertificate, ap_norm_rings,
                       coboundary_growth_exponent, eigen_identity_residual,
                       eigenfunction, nonsurjectivity_witness,
                       orbit_integral_K, residual_check, resolvent_apply)
from .regions import (NEG_INF, Component, GammaProfile, SpectralRegion,
                      essential_spectrum, gammas_from,
                      generator_point_spectrum, generator_spectrum,
                      operator_point_spectrum, operator_radius,
                      operator_spectrum)
from .scenario import (FixedPointDatum, Scenario, beta_at, cocycle, eval_h,
                       eval_h_inverse, flow, generator_g, make_builtin,
                       parse_complex, parse_scenario)
from .svgplot import Viewport, render_svg
from .truncation import (TruncationMatrix, build_matrix, eigen_cloud,
                         gelfand_radius, resolution_horizon)

__version__ = "0.1.0"
