"""Sampling discretization of integral norms and sample recovery.

The toolkit builds finite-dimensional function spaces, generates and
certifies point sets that discretize their L_p norms, and runs weighted
least-squares-type recovery with verified error bounds.
"""

__version__ = "0.1.0"

from .spaces import (  # noqa: F401
    CoefficientVector,
    DiscreteSpace,
    FiniteDomain,
    Spectrum,
    Subspace,
    TorusDomain,
    TrigSpace,
    evaluate,
    gram_matrix,
    make_lacunary_space,
    make_trig_space,
    restrict,
    space_to_dict,
    tensor_product,
)
from .norms import (  # noqa: F401
    NikolskiiEstimate,
    SampleVector,
    best_approx,
    christoffel_sup,
    discrete_norm,
    nikolskii_constant,
    norm_p,
    norm_sup,
    sample_function,
)
from .discretization import (  # noqa: F401
    Certificate,
    CurvePoint,
    MinimalMResult,
    PointSet,
    TwoStageBudget,
    brute_force_certificate,
    certify,
    extract_factor,
    generate_points,
    minimal_m_search,
    success_curve_csv,
    two_stage_subsample,
)
from .recovery import (  # noqa: F401
    LpwRegressor,
    RecoveryBoundReport,
    RecoveryResult,
    lpw_recover,
    recovery_bound,
    verify_recovery,
)
from . import errors  # noqa: F401
