"""densfar: functional autoregression for time series of probability densities.

The library discretizes densities on a shared uniform grid with trapezoid
quadrature, estimates a first-order functional autoregression for the
demeaned densities, and provides interpretation (leading features, impulse
responses, variance decompositions), forecasting with asymptotic feature
intervals, residual bootstrap bands, rolling backtests, and a Monte Carlo
study harness. The `densfar` command exposes the same pipelines on files.
"""

from .analysis import (
    DecompositionReport,
    LeadingFeatures,
    MomentBasis,
    RSquared,
    impulse_response,
    leading_features,
    moment_basis,
    moment_functional,
    r_squared,
    tail_indicator,
    variance_decomposition,
)
from .bootstrap import (
    BandResult,
    irf_statistic,
    r_squared_statistic,
    residual_bootstrap,
    vardecomp_statistic,
)
from .errors import DensfarError
from .estimation import FarModel, fit, mean_density
from .forecast import (
    BacktestReport,
    ErrorReport,
    ForecastResult,
    error_metrics,
    feature_interval,
    forecast_h_steps,
    forecast_one_step,
    make_forecast,
    predictor_ave,
    predictor_last,
    rolling_backtest,
    select_K_cv,
    to_density,
)
from .grid import (
    EigenSystem,
    GridFunction,
    GridSpec,
    OperatorRep,
    adjoint,
    apply_operator,
    cdf_from_density,
    compose,
    eigh_operator,
    inner,
    make_grid,
    norm,
    outer,
    project_zero_integral,
    quadratic_form,
    quantile,
)
from .io import (
    load_grid_function,
    load_model,
    read_observations,
    save_grid_function,
    save_model,
)
from .kde import (
    DensityPanel,
    RawPanel,
    bandwidth,
    estimate_panel,
    kde,
    select_support,
)
from .simulate import (
    FarGenerator,
    StudyConfig,
    StudyResult,
    acceptance_sample,
    make_cosine_generator,
    run_study,
    simulate_far,
)

__version__ = "0.1.0"
