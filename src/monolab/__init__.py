"""Numerical lab for curvature inequalities on periodic 4-manifolds.

Finite-difference geometry on 4-torus charts: curvature of arbitrary
smooth periodic metrics, Hodge theory of self-dual 2-forms, spin
structures with a U(1) twist on flat charts, a spectral quotient for
circle-valued angle fields, perturbed monopole residuals, and the
curvature inequalities that tie them together.
"""

from .curvature import (
    CurvatureBundle,
    MetricField,
    build_metric,
    curvature_stack,
)
from .functionals import (
    CATALOG,
    BoundReport,
    CatalogSurface,
    InequalityReport,
    MonopoleConfig,
    PerturbationSpec,
    PswResidual,
    catalog_delta_sweep,
    catalog_linear,
    catalog_quadratic,
    check_curvature_bound,
    check_phi_l4_bound,
    constant_config,
    gauge_trick_config,
    general_psw_residual,
    key_inequality_check,
    lebrun_linear,
    lebrun_quadratic,
    psw_residual,
    reducible_config,
    reduction_spec,
    rotating_config,
)
from .grid import GridSpec, ScalarField, integrate
from .io import load_fields, save_fields
from .presets import (
    PresetError,
    metric_from_preset,
    random_smooth_scalar,
    scalar_from_expression,
    theta_from_preset,
)
from .rayleigh import (
    KField,
    LambdaOptions,
    LambdaResult,
    ThetaField,
    assemble_K,
    beta,
    minimize_lambda,
    rayleigh_quotient,
    theta_from_angle,
    theta_from_sc,
)
from .selfdual import (
    HarmonicSolveError,
    SelfDualField,
    TwoFormField,
    covariant_derivative,
    embed,
    harmonic_selfdual_basis,
    hodge_rayleigh,
    integral_identity_check_c,
    integral_identity_check_s,
    project,
    sd_l2_norm,
    wedge_integral,
    weitzenboeck_residual,
)
from .spinc import (
    CliffordModel,
    SpinorField,
    U1Connection,
    dirac,
    dirac_weitzenboeck_check,
    gauge_transform,
    log_kato_check,
    nabla_a,
    sigma_map,
)

__version__ = "0.1.0"
