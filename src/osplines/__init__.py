"""Model-based smoothing with integrated Wiener process priors.

Overlapping-spline finite elements approximate the process of any order,
keep derivative inference exact by construction, and reduce the weight
prior to a diagonal precision.
"""

import logging

from .basis import (
    DesignBlock,
    KnotSet,
    OSplineBasis,
    basis_eval,
    build_equal_knots,
    design_matrix,
    polynomial_design,
    test_function_eval,
    weight_precision,
)
from .errors import (
    DataError,
    InvalidArgumentError,
    IterationError,
    NumericError,
    OsplineError,
)
from .exact import (
    GPFitResult,
    IWPKernel,
    OSplineKernel,
    exact_gp_fit,
    exact_hierarchical_fit,
    integrate_cov_oracle,
    sup_cov_error,
)
from .inference import (
    GaussianApprox,
    LatentModel,
    PosteriorCurve,
    PosteriorFit,
    aghq_fit,
    build_model,
    condition_number,
    laplace_log_marginal,
    log_joint,
    max_condition_number,
    newton_mode,
    posterior_function,
    posterior_moments,
    sum_coded_design,
)
from .prior import (
    ExponentialPrior,
    PSDSpec,
    prior_from_psd,
    psd_conditional_check,
    psd_to_sigma,
    sigma_to_psd,
)

__version__ = "0.1.0"

# the library logs through "osplines" and leaves output to the application
logging.getLogger("osplines").addHandler(logging.NullHandler())
