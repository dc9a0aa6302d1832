"""Simulation and verification lab for set-indexed fractional Brownian motion
over origin-anchored rectangles, with exact Gaussian sampling, flow
projections, measure recovery, and a discretized moving-average
representation."""

__version__ = "0.1.0"

# numpy >= 2 loads these submodules on first attribute access.  The package
# uses both (np.random for every random stream; np.unique reads np.ma), so
# they load with the package rather than inside the first command run.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .gaussian import (
    HurstParam,
    SampleEnsemble,
    additive_extend,
    build_cov_matrix,
    cholesky,
    covariance,
    sample_ensemble,
)
from .flows import (
    ElementaryFlow,
    SimpleFlow,
    TimeChange,
    flows_through,
    make_elementary_flow,
    project,
    time_change,
)
from .intrep import (
    GridSpec,
    RepConfig,
    half_case_simulate,
    mvn_kernel,
    normalization_const,
    simulate_via_integral,
)
from .recovery import (
    CharacterizationReport,
    CoverFamily,
    PreMeasureTable,
    Thresholds,
    characterize,
    check_additivity,
    estimate_psi,
    measurability_check,
    outer_continuity_check,
    outer_measure,
    psi_on_C,
    tiling_cover,
    verify_extension,
)
from .rects import (
    EMPTY,
    LeftNeighborhood,
    Rect,
    RectUnion,
    left_nbhd_measure,
    rect,
    rect_intersection,
    rect_measure,
    symdiff_measure,
    union_measure,
)
from .stats import gaussianity_check, hurst_estimate, variance_profile
