"""Distribution similarity measures with dimension reduction.

The package computes overlap-based distances (the coefficient
``sum sqrt(p q)`` and its negative log) between discrete distributions,
normals, truncated normals, and empirical data groups, with closed forms
cross-checked against quadrature. Dimension reduction comes in two
flavors (seeded Gaussian random projection, PCA with an
increment-rounding retention rule), plus a normal log-normal mixture
density, moment-matched discrete approximations, and numerical
verification of generalized covariance identities and pricing routes.
"""

from .core import (
    DiscreteDist,
    DistanceMatrix,
    GaussianMulti,
    GaussianUni,
    MvnOverlapParams,
    OverlapParams,
    QuadResult,
    SampleMatrix,
    TruncGaussianMulti,
    TruncGaussianUni,
    from_json,
    to_json,
    validate,
)
from .divergence import (
    DivergenceValue,
    bc_coefficient_continuous,
    bc_coefficient_discrete,
    chi_squared_discrete,
    hellinger_discrete,
    kl_discrete,
    modified_metric,
    multi_population_coefficient,
    sample_coefficient,
)
from .errors import *  # noqa: F401,F403 - re-export the error hierarchy
from .gaussian import (
    InequalityCheck,
    bc_mvn,
    bc_normal_uni,
    bc_truncated_mvn,
    bc_truncated_uni,
    mvn_overlap_params,
    overlap_params,
    truncation_inequality_holds_mvn,
    truncation_inequality_holds_uni,
)
from .approx import (
    DiscreteApprox,
    GridDensity,
    NLNComponent,
    moment_match,
    nln_density,
    nln_sum_density,
)
from .pipeline import (
    ComparisonResult,
    GroupDataset,
    RunConfig,
    compare_groups,
    estimate_mvn,
    estimate_truncated_uni,
    load_group,
)
from .quadrature import (
    QuadConfig,
    integrate_1d,
    integrate_2d_mc,
    mvn_rect_prob,
)
from .reduce import (
    DistortionReport,
    JLConfig,
    jl_distortion_report,
    jl_min_dimension,
    jl_project,
    pca_reduce,
)
from .stein import (
    IdentityReport,
    JointDensitySpec,
    PriceReport,
    g_from_joint,
    price_asset,
    verify_distance_covariance,
    verify_stein,
)

__version__ = "0.1.0"
