"""trigsmooth: smoothness-class functionals for cosine series.

Moduli of smoothness and best trigonometric approximation on the circle, the
combined integral/series/coefficient/best-approximation forms of the associated
smoothness-class functional, majorant membership tests, and brute-force
verification of the discrete weighted-sum inequalities those equivalences rest on.
"""

from .approximation import (
    ApproxResult,
    ModulusBracket,
    best_approx,
    dyadic_best_approx_curve,
    l2_tail_sq,
    lacunary_E_bounds,
    modulus_bounds_monotone,
    zygmund_norm_bounds,
)
from .core import (
    ClassParams,
    CosineSeries,
    FunctionalCurve,
    GridFunction,
    MajorantPhi,
    PowerLawTail,
    lacunary_geometric_series,
    lacunary_series,
    phi_eval,
    phi_property_check,
    power_law_series,
    random_bandlimited_series,
    validate_params,
)
from .errors import (
    AliasError,
    ConfigError,
    ConfigNotFound,
    ConstraintViolation,
    DivideByZeroError,
    DomainError,
    PreconditionError,
    SmoothnessError,
    TagError,
    TruncationBudgetError,
)
from .function_model import (
    ModulusRequest,
    difference,
    lp_norm,
    modulus,
    modulus_p2_exact,
    synthesize,
)
from .functionals import (
    MembershipReport,
    ModulusTable,
    dyadic_approx_form,
    integral_form,
    lacunary_coefficient_form,
    lacunary_log_power_profile,
    membership_of_values,
    membership_test,
    monotone_coefficient_form,
    series_form,
)
from .inequalities import (
    IneqCase,
    IneqVerdict,
    canonical_copson_sweep,
    check_hardy_lower,
    check_hardy_upper,
    check_jensen,
    check_reverse_copson,
    check_two_sided_asymp,
)

__version__ = "0.1.0"
