"""Residual bootstrap confidence bands for model statistics.

Fitted residuals are centered and resampled with replacement; a synthetic
panel is regenerated through the fitted operator from the observed first
period, the model refitted at the same truncation level, and the statistic
re-evaluated. Pointwise percentile bands across replications form the
confidence band. Every replication draws from its own (seed, index) random
stream, so parallel and serial runs agree bit for bit.

Regeneration steps the state through the fitted operator's rank-K factor
A_hat diag(weights) = L R, with R = V_K diag(weights) (K x n) and L (n x K),
at O(nK) per period instead of an n-by-n product. The factor is built once
per call and must reproduce the kernel to 1e-12 (relative); an A_hat that
does not factor, e.g. one swapped in with `dataclasses.replace`, raises
ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._threads import parallel_map
from .analysis import impulse_response, moment_basis, r_squared, variance_decomposition
from .errors import DegenerateForecast, DensfarError, TooFewResiduals, TooManyDropped
from .estimation import FarModel, fit
from .grid import GridFunction
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

    stat.__name__ = "impulse_response"
    return stat


def r_squared_statistic(v: GridFunction):
    """Statistic factory: clipped predictable-variance share of v."""

    def stat(model: FarModel) -> float:
        return r_squared(v, model.Q_hat, model.Sigma_hat).value

    stat.__name__ = "r_squared"
    return stat


def vardecomp_statistic(v: GridFunction, kmax: int):
    """Statistic factory: variance-decomposition shares of v up to kmax."""

    def stat(model: FarModel) -> np.ndarray:
        basis = moment_basis(model.Q_hat, model.grid, kmax)
        return variance_decomposition(v, model.A_hat, model.Q_hat, basis).pi

    stat.__name__ = "variance_decomposition"
    return stat


def _operator_factor(model: FarModel) -> tuple:
    # a_w = A_hat diag(w) = (B / T) V_K diag(w) = L R. L is solved for, not
    # taken as A_hat R^T, which assumes V_K orthonormal: eigenfunctions from
    # the Gram matrix are so only to about eps * lambda_1 / lambda_K
    weights = model.grid.weights
    R = model.eigen.vectors[: model.K] * weights
    a_w = model.A_hat.kernel * weights
    L = np.linalg.solve(R @ R.T, R @ a_w.T).T
    if np.max(np.abs(L @ R - a_w)) > 1e-12 * np.max(np.abs(a_w)):
        raise ValueError(f"A_hat does not factor through the {model.K} leading "
                         "eigenfunctions")
    return L, R


def _regenerate_panel(model: FarModel, factor: tuple, pool: np.ndarray,
                      rng) -> DensityPanel:
    # w*_1 is the observed first demeaned period; later periods follow the
    # fitted recursion w*_{t+1} = L (R w*_t) + e*_t, with residuals resampled
    # from the centered pool
    grid = model.grid
    T = model.sample_size
    L, R = factor
    idx = rng.integers(0, len(pool), size=T - 1)
    states = np.empty((T, grid.n))
    states[0] = model.demeaned[0]
    for t in range(T - 1):
        states[t + 1] = L @ (R @ states[t]) + pool[idx[t]]
    # same clip-and-rescale conversion as to_density, vectorized over periods
    raw = np.clip(model.mean_density.values[None, :] + states, 0.0, None)
    masses = raw @ grid.weights
    if float(masses.min()) <= 1e-12:
        raise DegenerateForecast("regenerated state lost all density mass")
    raw /= masses[:, None]
    return DensityPanel._wrap(grid, raw, period_labels(T))


def residual_bootstrap(
    model: FarModel,
    statistic,
    B: int,
    alpha: float,
    seed: int,
    statistic_name: str | None = None,
) -> BandResult:
    """Percentile bootstrap band for `statistic(model)`.

    Parameters
    ----------
    statistic : callable
        Maps a fitted model to a float or a 1-d array (a curve or a bar
        vector); evaluated once on `model` for the point estimate and once
        per replication on the refitted model (same K).
    B : int
        Number of replications, >= 100.
    alpha : float
        Band level: the band spans the alpha/2 and 1-alpha/2 percentiles.

    Raises
    ------
    TooFewResiduals
        Model has fewer than 10 residuals.
    TooManyDropped
        More than 5% of replications failed (e.g. rank deficiency).
    ValueError
        B < 100, alpha outside (0, 1), a negative seed, or an A_hat that is
        not the model's rank-K fit (e.g. swapped in with dataclasses.replace).
    """
    if B < 100:
        raise ValueError(f"need B >= 100 replications, got {B}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got {seed}")
    if len(model.resid) < 10:
        raise TooFewResiduals(f"bootstrap needs >= 10 residuals, got {len(model.resid)}")
    factor = _operator_factor(model)
    pool = model.resid - model.resid.mean(axis=0)
    point = np.atleast_1d(np.asarray(statistic(model), dtype=np.float64))

    def replicate(b: int):
        rng = np.random.default_rng((seed, b))
        try:
            refit = fit(_regenerate_panel(model, factor, pool, rng), model.K)
            return np.atleast_1d(np.asarray(statistic(refit), dtype=np.float64))
        except DensfarError:
            return None

    outcomes = parallel_map(replicate, range(B))
    kept = [o for o in outcomes if o is not None]
    n_dropped = B - len(kept)
    if n_dropped > _DROP_CEILING * B:
        raise TooManyDropped(f"{n_dropped}/{B} bootstrap replications failed")
    stack = np.stack(kept)
    lower = np.percentile(stack, 100.0 * alpha / 2.0, axis=0)
    upper = np.percentile(stack, 100.0 * (1.0 - alpha / 2.0), axis=0)
    return BandResult(
        statistic=statistic_name or getattr(statistic, "__name__", "statistic"),
        point=point,
        lower=lower,
        upper=upper,
        alpha=float(alpha),
        B=int(B),
        n_dropped=n_dropped,
        seed=int(seed),
    )
