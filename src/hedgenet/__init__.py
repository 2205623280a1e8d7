"""Discrete-time delta-hedging error laboratory.

Simulates the L2 error of discretely rebalanced hedges of European options
under d-dimensional diffusions and measures how the convergence rate in the
number of rebalancing dates depends on the time-net family (equidistant vs
nets concentrating knots near maturity).
"""

__version__ = "0.1.0"

from .timenets import (
    TimeNet,
    eta_net,
    equidistant_net,
    refine,
    lemma_net_functional,
)
from .models import (
    DiffusionSpec,
    gbm_diagonal,
    bm_constant,
    a_matrix,
    path_states,
)
from .rng import ArgumentError, SeedSpec
from .pricing import (
    Factor1D,
    ProductPricing,
    SumDigital2D,
    BMQuadratic,
    make_pricing,
)
from .hedging import (
    HedgeErrorEstimate,
    ErrorCurvePoint,
    path_error,
    estimate_l2_error,
    estimate_sweep,
    error_curve,
)
from .analysis import (
    ThetaFit,
    H2Curve,
    RateFit,
    estimate_theta,
    estimate_h2,
    choose_eta,
    fit_rate,
)
