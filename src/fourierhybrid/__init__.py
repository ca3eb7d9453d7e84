"""Reconstruction of piecewise-smooth functions from non-uniform Fourier
samples: an HDAF-filtered admissible-frame approximation away from jumps,
stitched to stable Chebyshev least-squares extrapolation inside buffer
zones around them.
"""

from .chebfit import (
    ChebyshevFit,
    chebyshev_fit,
    evaluate_fit,
    extrapolation_params_practical,
    extrapolation_params_theoretical,
)
from .experiments import choose_n
from .filters import (
    FilterConfig,
    adaptive_param_arrays,
    filter_sigma,
    tail_bound_l2,
)
from .frame import (
    FilterReconstruction,
    FrameOperator,
    assemble_omega,
    filter_reconstruct,
)
from .hybrid import (
    HybridReconstruction,
    delta_objective,
    hybrid_reconstruct,
    optimize_delta,
)
from .piecewise import (
    PiecewiseFunction,
    SmoothPiece,
    builtin_f1,
    builtin_f2,
    builtin_function,
    distance_to_set,
    evaluate,
    parse_expression,
    piecewise_from_expressions,
)
from .sampling import (
    FourierSamples,
    FrequencySet,
    QuadratureError,
    fourier_samples,
    jittered_frequencies,
    log_frequencies,
    uniform_frequencies,
)

__version__ = "0.1.0"
