"""Density forecasting, error measures, K selection, and rolling backtests.

The one-step forecast applies the fitted operator to the last demeaned
density, adds back the mean, clips negatives and rescales to unit mass.
Six deviation measures score it and the benchmarks AVE (historical mean)
and LAST (previous period). K is chosen by rolling cross-validation, whose
folds, shared with the backtest, forecast and score each prefix once.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist, median

import numpy as np

from .errors import (
    DegenerateForecast,
    NoFeasibleK,
    RankDeficient,
    TooFewPeriods,
    ZeroVariance,
)
from .estimation import (
    FarModel,
    _lagged_scores,
    _snapshots,
    fit,  # unused here; perfbench/traced.py lists forecast as a site of fit
    mean_density,
    usable_rank,
)
from .grid import (
    GridFunction,
    apply_operator,
    cdf_from_density,
    inner,
    project_zero_integral,
    quadratic_form,
    snapshot_spectrum,
    _check_density_values,
    _require_same_grid,
)
from .kde import DensityPanel

__all__ = [
    "ForecastResult",
    "ErrorReport",
    "MEASURES",
    "PREDICTORS",
    "forecast_one_step",
    "forecast_h_steps",
    "make_forecast",
    "to_density",
    "feature_interval",
    "select_K_cv",
    "predictor_ave",
    "predictor_last",
    "error_metrics",
    "rolling_backtest",
    "BacktestReport",
]

MEASURES = ("d2", "d1", "dks", "dcm", "dm", "dv")
PREDICTORS = ("FAR", "AVE", "LAST")


@dataclass(frozen=True, eq=False)
class ForecastResult:
    """A forecast at one horizon: demeaned scale and normalized density."""

    horizon: int
    w_forecast: GridFunction
    f_forecast: GridFunction
    model_ref: str


@dataclass(frozen=True)
class ErrorReport:
    """Six deviation measures between a forecast density and the truth.

    d2/d1 compare densities in L2/L1, dks/dcm compare distribution
    functions (sup-distance and squared distance integrated against the
    true law), dm/dv compare means and variances.
    """

    d2: float
    d1: float
    dks: float
    dcm: float
    dm: float
    dv: float

    def as_dict(self) -> dict:
        return {m: getattr(self, m) for m in MEASURES}


def forecast_one_step(model: FarModel, w_T: GridFunction) -> GridFunction:
    """One-step forecast of the demeaned density: A applied to w_T."""
    return project_zero_integral(apply_operator(model.A_hat, w_T))


def forecast_h_steps(model: FarModel, w_T: GridFunction, h: int) -> list:
    """Iterated forecasts for horizons 1..h on the demeaned scale.

    No clipping happens inside the recursion; densities are produced only
    when converting individual steps with :func:`to_density`.
    """
    if h < 1:
        raise ValueError(f"need h >= 1, got {h}")
    out = []
    w = w_T
    for _ in range(h):
        w = forecast_one_step(model, w)
        out.append(w)
    return out


def make_forecast(model: FarModel, w_T: GridFunction, horizon: int = 1) -> list:
    """Forecasts for horizons 1..horizon, each bundled with its density.

    Convenience wrapper over :func:`forecast_h_steps` and :func:`to_density`.
    """
    steps = forecast_h_steps(model, w_T, horizon)
    ref = f"far(K={model.K}, T={model.sample_size})"
    return [
        ForecastResult(
            horizon=j,
            w_forecast=w,
            f_forecast=to_density(w, model.mean_density),
            model_ref=ref,
        )
        for j, w in enumerate(steps, start=1)
    ]


def to_density(w_forecast: GridFunction, f_bar: GridFunction) -> GridFunction:
    """Convert a demeaned forecast to a density.

    Adds the mean density, sets negative values to zero, and rescales so the
    result integrates to one.

    Raises
    ------
    DegenerateForecast
        If the clipped function carries (almost) no mass.
    """
    grid = _require_same_grid(w_forecast, f_bar)
    return GridFunction._wrap(grid, _to_densities(w_forecast.values, f_bar,
                                                  DegenerateForecast))


def _to_densities(states: np.ndarray, f_bar: GridFunction, error, out=None) -> np.ndarray:
    """The rows of f_bar + states with negatives set to zero, each rescaled to
    unit mass, in `out` when given (it may be `states`); raises `error` when a
    clipped row carries (almost) no mass."""
    raw = np.add(f_bar.values, states, out=out)
    np.clip(raw, 0.0, None, out=raw)
    masses = raw @ f_bar.grid.weights
    if float(masses.min()) <= 1e-12:
        raise error(f"clipped state integrates to {masses.min():.3e}, not a positive mass")
    raw /= masses[..., None]
    return raw


def feature_interval(
    model: FarModel,
    v: GridFunction,
    w_forecast: GridFunction,
    alpha: float = 0.05,
) -> tuple:
    """Asymptotic interval for the functional <v, w_{T+1}>.

    Centered at <v, w_forecast> with half-width
    z_{alpha/2} * sqrt((1 + K/T) <v, Sigma v>), where z is the standard
    normal quantile and Sigma the fitted noise covariance.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    # the normal quantile is taken at 1 - alpha/2, which must differ from 1
    if not 1.0 - alpha / 2.0 < 1.0:
        raise ValueError(f"alpha is too small for 1 - alpha/2 < 1, got {alpha}")
    center = inner(v, w_forecast)
    qf = quadratic_form(model.Sigma_hat, v)
    if qf < 0.0:
        # symmetrization guard: the PSD quadratic form can only go negative
        # by roundoff; anything materially below zero is an error
        scale = float(np.max(np.abs(model.Sigma_hat.kernel))) * inner(v, v)
        if qf < -1e-10 * max(scale, 1e-300):
            raise ZeroVariance(f"noise quadratic form is negative: {qf:.3e}")
        qf = 0.0
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    half = z * np.sqrt((1.0 + model.K / model.sample_size) * qf)
    return center - half, center + half


def predictor_ave(panel: DensityPanel) -> GridFunction:
    """Benchmark predictor: the time average of the panel densities."""
    return mean_density(panel)


def predictor_last(panel: DensityPanel) -> GridFunction:
    """Benchmark predictor: the density of the last period."""
    return GridFunction._wrap(panel.grid, panel.values[-1])


def _l2_distance(weights: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
    """The d2 measure: the quadrature L2 distance between grid values f and g."""
    diff = f - g
    return float(np.sqrt(np.dot(weights, diff * diff)))


def error_metrics(f_hat: GridFunction, f_true: GridFunction) -> ErrorReport:
    """Compute the six deviation measures between two densities."""
    grid = _require_same_grid(f_hat, f_true)
    _check_density_values(f_hat)
    _check_density_values(f_true)
    w = grid.weights
    x = grid.points
    diff = f_hat.values - f_true.values
    d2 = _l2_distance(w, f_hat.values, f_true.values)
    d1 = float(np.dot(w, np.abs(diff)))
    F_hat = cdf_from_density(f_hat).values
    F_true = cdf_from_density(f_true).values
    dks = float(np.max(np.abs(F_hat - F_true)))
    dcm = float(np.dot(w, (F_hat - F_true) ** 2 * f_true.values))
    mean_hat = float(np.dot(w, x * f_hat.values))
    mean_true = float(np.dot(w, x * f_true.values))
    var_hat = float(np.dot(w, (x - mean_hat) ** 2 * f_hat.values))
    var_true = float(np.dot(w, (x - mean_true) ** 2 * f_true.values))
    return ErrorReport(
        d2=d2,
        d1=d1,
        dks=dks,
        dcm=dcm,
        dm=abs(mean_hat - mean_true),
        dv=abs(var_hat - var_true),
    )


def _truncated_forecasts(train: DensityPanel, kmax: int) -> tuple:
    """A prefix's one forecast: mean density and demeaned steps, K = 1..kmax.

    Row K-1 equals forecast_one_step(fit(train, K), w_last) up to roundoff:
    A_K w_last = (1/T) sum_{k<=K} W_1^T c_k <v_k, w_last> / lambda_k is a
    partial sum over one spectrum. kmax is cut to the usable rank.
    """
    grid = train.grid
    T = len(train)
    f_bar, W = _snapshots(train)
    eigen = snapshot_spectrum(grid, W, kmax)
    kmax = min(kmax, usable_rank(eigen))
    V, C = _lagged_scores(W, eigen, kmax)
    z = V @ (grid.weights * W[-1])
    steps = np.cumsum(W[1:].T @ (C * (z / eigen.eigenvalues[:kmax])) / T, axis=1).T
    levels = steps @ grid.weights / (grid.b - grid.a)
    return f_bar, steps - levels[:, None]


def _folds(panel: DensityPanel, candidates, n_validation: int, first: int) -> tuple:
    """Sorted candidates; per period s = first..T-1, a fold mapping each K within
    the s-period prefix's usable rank to (forecast density, d2), None if massless."""
    candidates = sorted(set(int(k) for k in candidates))
    if not candidates or candidates[0] < 1:
        raise ValueError("candidates must be a nonempty set of integers >= 1")
    T = len(panel)
    if n_validation < 1:
        raise ValueError(f"need n_validation >= 1, got {n_validation}")
    if T <= n_validation + 5:
        raise TooFewPeriods(
            f"K selection needs T > n_validation + 5, got T={T}, "
            f"n_validation={n_validation}"
        )
    folds = []
    for s in range(first, T):
        f_bar, steps = _truncated_forecasts(panel.head(s), candidates[-1])
        fold = {}
        for K in [K for K in candidates if K <= len(steps)]:
            try:
                f_fc = _to_densities(steps[K - 1], f_bar, DegenerateForecast)
            except DegenerateForecast:
                fold[K] = None
            else:
                fold[K] = (f_fc, _l2_distance(panel.grid.weights, f_fc, panel.values[s]))
        folds.append(fold)
    return candidates, folds


def _choose_K(candidates: list, folds: list) -> int:
    """The K that every fold scored with the least mean d2, the smaller on ties."""
    scored = [K for K in candidates if all(fold.get(K) is not None for fold in folds)]
    if not scored:
        raise NoFeasibleK(f"all candidates {candidates} were rank deficient or degenerate")
    return min(scored, key=lambda K: float(np.mean([fold[K][1] for fold in folds])))


def select_K_cv(panel: DensityPanel, candidates, n_validation: int = 5) -> int:
    """Choose the truncation level by rolling cross-validation.

    For each candidate K, the periods before each of the last n_validation
    periods forecast that period; the score is the mean L2 density error.
    The smallest-scoring candidate wins, ties broken toward smaller K. One
    spectrum per training prefix forecasts every K, each scored once.
    Candidates that exceed the usable rank, or whose forecast clips to a
    density without mass (DegenerateForecast), in any fold are skipped.

    Raises
    ------
    TooFewPeriods
        If T <= n_validation + 5.
    NoFeasibleK
        If every candidate was skipped.
    """
    return _choose_K(*_folds(panel, candidates, n_validation, len(panel) - n_validation))


@dataclass(frozen=True, eq=False)
class BacktestReport:
    """Aggregated rolling out-of-sample forecast errors.

    records maps (predictor, label) to the period's ErrorReport; aggregates
    maps (predictor, measure) to (mean, median) over test periods.
    """

    n_test: int
    labels: tuple
    selected_K: tuple
    records: dict
    aggregates: dict

    def to_rows(self) -> list:
        """Aggregate table rows: predictor, measure, mean, median."""
        rows = []
        for predictor in PREDICTORS:
            for measure in MEASURES:
                mean_val, median_val = self.aggregates[(predictor, measure)]
                rows.append(
                    {
                        "predictor": predictor,
                        "measure": measure,
                        "mean": mean_val,
                        "median": median_val,
                    }
                )
        return rows


def rolling_backtest(
    panel: DensityPanel,
    n_test: int,
    K_candidates,
    n_validation: int = 5,
) -> BacktestReport:
    """Rolling out-of-sample forecast comparison of FAR, AVE, and LAST.

    For each of the last n_test periods: K is re-selected by
    cross-validation on the data before the period, and the normalized
    forecast at K, read from the period's own CV fold (a refit's within
    roundoff), scored against the realized density. Aggregates report the
    mean and median of every measure per predictor. Each prefix has one fold.
    """
    if n_test < 1:
        raise ValueError(f"need n_test >= 1, got {n_test}")
    T = len(panel)
    if T <= n_test + n_validation + 10:
        raise TooFewPeriods(
            f"backtest needs T > n_test + n_validation + 10, got T={T}"
        )
    records = {}
    selected = []
    labels = panel.labels[T - n_test :]
    candidates, folds = _folds(panel, K_candidates, n_validation, T - n_test - n_validation)
    for i, s in enumerate(range(T - n_test, T)):
        train = panel.head(s)
        truth = GridFunction._wrap(panel.grid, panel.values[s])
        label = panel.labels[s]
        K = _choose_K(candidates, folds[i : i + n_validation])
        selected.append(K)
        fold = folds[i + n_validation]
        if K not in fold:
            raise RankDeficient(f"K={K} exceeds the usable rank of the first {s} periods")
        if fold[K] is None:
            raise DegenerateForecast(f"the K={K} forecast of period {label} has no mass")
        f_far = GridFunction._wrap(panel.grid, fold[K][0])
        records[("FAR", label)] = error_metrics(f_far, truth)
        records[("AVE", label)] = error_metrics(predictor_ave(train), truth)
        records[("LAST", label)] = error_metrics(predictor_last(train), truth)
    aggregates = {}
    for predictor in PREDICTORS:
        for measure in MEASURES:
            vals = [records[(predictor, lab)].as_dict()[measure] for lab in labels]
            aggregates[(predictor, measure)] = (float(np.mean(vals)), float(median(vals)))
    return BacktestReport(
        n_test=n_test,
        labels=tuple(labels),
        selected_K=tuple(selected),
        records=records,
        aggregates=aggregates,
    )
