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
= L R with L = B / T (n x K) and R = V_K diag(weights) (K x n): the K-dim
scores s_t = R w*_{t+1} of a block of replications step together, and each
replication's states w*_{t+1} = L s_t + e*_t take one product before its
refit. An A_hat held only as a kernel (e.g. one swapped in with
`dataclasses.replace`) raises ValueError.

Each refit is warm-started from the original panel's K + p leading
eigenfunctions (times sqrt(weights)), computed once per call and shared
read-only by every replication: it solves only the K leading eigenpairs of
its T-by-T Gram matrix by block subspace iteration, at about a third of the
cost of a full `eigh`, and falls back to the full `eigh` when those do not
converge within a few sweeps (see :func:`~densfar.estimation.fit_demeaned`).
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

__all__ = [
    "BandResult",
    "residual_bootstrap",
    "irf_statistic",
    "r_squared_statistic",
    "vardecomp_statistic",
]

# Fraction of failed replications tolerated before the bootstrap aborts.
_DROP_CEILING = 0.05

# Replications whose score paths are stepped together; at T = 212 and K = 8 a
# block holds 1.7 MB of scores, where all of B = 2,000 would hold 27 MB.
_BLOCK = 128


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


def _score_paths(step, s_first, noise, idx: np.ndarray) -> np.ndarray:
    # (b, T-1, K) scores s_0..s_{T-2} of b replications in lockstep:
    # s_0 = R w_1 and s_{t+1} = (R L) s_t + R e*_t, with step = (R L)^T and
    # noise = the pool's scores R e
    scores = np.empty(idx.shape + s_first.shape)
    scores[:, 0] = s_first
    for t in range(idx.shape[1] - 1):
        np.matmul(scores[:, t], step, out=scores[:, t + 1])
        scores[:, t + 1] += noise[idx[:, t]]
    return scores


def residual_bootstrap(model: FarModel, statistics: dict, B: int, alpha: float,
                       seed: int) -> dict:
    """Percentile bootstrap bands, a dict name -> BandResult in mapping order.

    Parameters
    ----------
    statistics : dict
        Maps a name to a callable from a fitted model to a float or a 1-d
        array (a curve or a bar vector); each is evaluated once on `model`
        for the point estimate and once on each replication's refit (same K).
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
    step, s_first, noise = (R @ L).T, R @ w_first, pool @ R.T
    # the original panel's K + p leading eigenvectors of X^T X warm-start every
    # refit's truncated spectrum; read-only, so pooled refits share it
    start = (snapshot_spectrum(grid, model.demeaned, model.K + _SUBSPACE_EXTRA).vectors
             * np.sqrt(grid.weights))
    start.setflags(write=False)
    labels = period_labels(T)
    outcomes = []
    for lo in range(0, B, _BLOCK):
        idx = np.stack([np.random.default_rng((seed, b)).integers(0, len(pool), size=T - 1)
                        for b in range(lo, min(lo + _BLOCK, B))])
        scores = _score_paths(step, s_first, noise, idx)

        def replicate(j: int):
            # w*_1 is the observed first demeaned period, w*_{t+1} = L s_t + e*_t;
            # None when no statistic keeps the replication
            states = np.empty((T, grid.n))
            states[0] = w_first
            np.matmul(scores[j], L.T, out=states[1:])
            states[1:] += pool[idx[j]]
            try:
                raw = _to_densities(states, model.mean_density, DegenerateForecast)
                refit = fit(DensityPanel._wrap(grid, raw, labels), model.K, start)
            except DensfarError:
                return None
            values = {}
            for name, stat in statistics.items():
                try:
                    values[name] = np.array(stat(refit), dtype=np.float64, ndmin=1)
                except DensfarError:
                    pass
            return values or None

        outcomes += parallel_map(replicate, range(len(idx)))
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
