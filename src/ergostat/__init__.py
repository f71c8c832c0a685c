"""ergostat: numerical statistical laws of piecewise expanding interval maps.

Modules by concern: `maps` (dynamics, observables, orbits), `transfer`
(Ulam operator, pressure, rate functions, Green-Kubo variance),
`measures` (log-weighted empirical measures and Kantorovich distance),
`asclt` (almost-sure CLT experiments for sums and running maxima),
`erdos_renyi` (moving-average maxima, rate-function estimation,
large-deviation Monte Carlo), `entropy` (cylinders, return times,
entropy CLTs), and `config`/`cli` (experiment orchestration).
"""

__version__ = "0.1.0"

from .maps import (  # noqa: F401
    Branch,
    Observable,
    Orbit,
    PiecewiseMap,
    coboundary,
    coin,
    log_derivative,
    make_map,
    make_observable,
    orbit,
    sawtooth,
)
from .measures import (  # noqa: F401
    GaussianLaw,
    HalfGaussianLaw,
    WeightedEmpiricalMeasure,
    build_empirical,
    kantorovich,
    kantorovich_ladder,
)
from .transfer import (  # noqa: F401
    PressureCurve,
    RateFunction,
    UlamOperator,
    center_observable,
    green_kubo_sigma2,
    invariant_density,
    legendre,
    pressure_curve,
    ulam_matrix,
)
from .asclt import asclt_run, maxima_run  # noqa: F401
from .erdos_renyi import (  # noqa: F401
    er_law_check,
    decoupling_check,
    ld_probability_mc,
    rate_estimator,
)
from .entropy import (  # noqa: F401
    EntropyConstants,
    entropy_constants,
    ow_run,
    rokhlin_entropy,
    smb_run,
)
