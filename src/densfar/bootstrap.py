"""Residual bootstrap confidence bands for model statistics.

Fitted residuals are centered and resampled with replacement; a synthetic
panel is regenerated through the fitted operator from the observed first
period and the model refitted at the same truncation level. Every named
statistic is re-evaluated on that one refit, and pointwise percentiles across
replications form its band. A replication whose panel has no mass or whose
refit fails is dropped for every statistic; a statistic that raises a
DensfarError (ZeroVariance, DegenerateMetric) drops it for itself only, so
each band equals that of a call naming that statistic alone. Every
replication draws from its own (seed, index) random stream, so parallel and
serial runs agree bit for bit.

Regeneration runs on the factors the fit keeps for A_hat, A_hat diag(weights)
= L R with L = B / T (n x K) and R = V_K diag(weights) (K x n): each
replication steps its K-dim scores s_t = R w*_{t+1} with the stepper that
`simulate_far` uses, and its states w*_{t+1} = L s_t + e*_t take one product
before its refit. A replication depends on its index alone, and all B go to
the pool in one map. An A_hat held only as a kernel (e.g. one swapped in
with `dataclasses.replace`) raises ValueError.

Each refit is warm-started from the original panel's K + p leading
eigenfunctions (times sqrt(weights)), computed once per call and shared
read-only by every replication: it solves only the K leading eigenpairs of
its smaller Gram matrix by block subspace iteration, at about a third of the
cost of a full `eigh`, and falls back to the full `eigh` when those do not
converge within a few sweeps (see :func:`~densfar.estimation.fit_demeaned`).
Each worker process regenerates and refits into its copy of one set of
buffers, made once per call, because the allocator returns freed
panel-sized arrays to the system and fresh ones are paged in again on every
replication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._threads import parallel_map
from .analysis import impulse_response, moment_basis, r_squared, variance_decomposition
from .errors import DegenerateForecast, DensfarError, TooFewResiduals, TooManyDropped
from .estimation import FarModel, fit
from .forecast import _to_densities
from .grid import _SUBSPACE_EXTRA, GridFunction, _weighted_factors, snapshot_spectrum
from .kde import DensityPanel, period_labels
from .simulate import _score_stepper

__all__ = [
    "BandResult",
    "residual_bootstrap",
    "irf_statistic",
    "r_squared_statistic",
    "vardecomp_statistic",
]

# Fraction of failed replications tolerated before the bootstrap aborts.
_DROP_CEILING = 0.05


@dataclass(frozen=True, eq=False)
class BandResult:
    """Pointwise percentile band for one statistic.

    point is the statistic of the original model; lower/upper are the
    empirical alpha/2 and 1-alpha/2 percentiles across replications.
    """

    statistic: str
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    B: int
    n_dropped: int
    seed: int


def irf_statistic(v: GridFunction):
    """Statistic factory: impulse-response curve of the functional v."""

    def stat(model: FarModel) -> np.ndarray:
        return impulse_response(model.A_hat, v).values

    return stat


def r_squared_statistic(v: GridFunction):
    """Statistic factory: clipped predictable-variance share of v."""

    def stat(model: FarModel) -> float:
        return r_squared(v, model.Q_hat, model.Sigma_hat).value

    return stat


def vardecomp_statistic(v: GridFunction, kmax: int):
    """Statistic factory: variance-decomposition shares of v up to kmax."""

    def stat(model: FarModel) -> np.ndarray:
        basis = moment_basis(model.Q_hat, model.grid, kmax)
        return variance_decomposition(v, model.A_hat, model.Q_hat, basis).pi

    return stat


def residual_bootstrap(model: FarModel, statistics: dict, B: int, alpha: float,
                       seed: int) -> dict:
    """Percentile bootstrap bands, a dict name -> BandResult in mapping order.

    Parameters
    ----------
    statistics : dict
        Maps a name to a callable from a fitted model to a float or a 1-d
        array (a curve or a bar vector); each is evaluated once on `model`
        for the point estimate and once on each replication's refit (same K).
        A refit's arrays (its panel, `demeaned`, `resid` and the operator
        factors built on them) are valid only during the statistic call:
        each worker's refits reuse one set of buffers. The returned value
        is copied, so it may be a view into the refit; a statistic must not
        keep the refit itself.
    B : int
        Number of replications, >= 100.
    alpha : float
        Band level: the band spans the alpha/2 and 1-alpha/2 percentiles.

    Raises
    ------
    TooFewResiduals
        Model has fewer than 10 residuals.
    TooManyDropped
        More than 5% of replications failed for a statistic (e.g. rank
        deficiency); statistics are checked in order.
    ValueError
        No statistic, B < 100, alpha outside (0, 1), a negative seed, or an
        A_hat held only as a kernel (e.g. swapped in with dataclasses.replace).
    """
    if not statistics:
        raise ValueError("need at least one statistic")
    if B < 100:
        raise ValueError(f"need B >= 100 replications, got {B}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    if len(model.resid) < 10:
        raise TooFewResiduals(f"bootstrap needs >= 10 residuals, got {len(model.resid)}")
    L, R = _weighted_factors(model.A_hat)
    pool = model.resid - model.resid.mean(axis=0)
    points = {k: np.array(f(model), dtype=np.float64, ndmin=1) for k, f in statistics.items()}
    grid, T, w_first = model.grid, model.sample_size, model.demeaned[0]
    advance, noise = _score_stepper(R @ L), pool @ R.T
    # the original panel's K + p leading eigenvectors of X^T X warm-start every
    # refit's truncated spectrum; read-only, so pooled refits share it
    start = (snapshot_spectrum(grid, model.demeaned, model.K + _SUBSPACE_EXTRA).vectors
             * np.sqrt(grid.weights))
    start.setflags(write=False)
    labels = period_labels(T)
    S, W, X, E = (np.empty((rows, grid.n)) for rows in (T, T, T, T - 1))
    scores = np.empty((T - 1, model.K))
    scores[0] = R @ w_first

    def replicate(b: int):
        # w*_1 is the observed first demeaned period and w*_{t+1} = L s_t + e*_t,
        # with s_0 = R w*_1, set once, and s_{t+1} = (R L) s_t + R e*_t stepped
        # from the pool's scores R e; None when no statistic keeps the replication
        idx = np.random.default_rng((seed, b)).integers(0, len(pool), size=T - 1)
        np.take(noise, idx[:-1], axis=0, out=scores[1:], mode="clip")
        advance(scores)
        S[0] = w_first
        np.matmul(scores, L.T, out=S[1:])
        # the pool rows e*_t, gathered into E before it takes the residuals;
        # the indices are in range, and mode="raise" would buffer the output
        np.take(pool, idx, axis=0, out=E, mode="clip")
        S[1:] += E
        try:
            _to_densities(S, model.mean_density, DegenerateForecast, out=S)
            # the panel, the refit's demeaned panel and its residuals are
            # made read-only, so they get views and the buffers stay writeable
            refit = fit(DensityPanel._wrap(grid, S[:], labels), model.K, start,
                        out=(W[:], X, E[:]))
        except DensfarError:
            return None
        values = {}
        for name, stat in statistics.items():
            try:
                values[name] = np.array(stat(refit), dtype=np.float64, ndmin=1)
            except DensfarError:
                pass
        return values or None

    outcomes = parallel_map(replicate, range(B))
    bands = {}
    for name, point in points.items():
        kept = [o[name] for o in outcomes if o is not None and name in o]
        n_dropped = B - len(kept)
        if n_dropped > _DROP_CEILING * B:
            raise TooManyDropped(f"{n_dropped}/{B} bootstrap replications failed")
        stack = np.stack(kept)
        lower = np.percentile(stack, 100.0 * alpha / 2.0, axis=0)
        upper = np.percentile(stack, 100.0 * (1.0 - alpha / 2.0), axis=0)
        bands[name] = BandResult(name, point, lower, upper, float(alpha), int(B), n_dropped,
                                 int(seed))
    return bands
