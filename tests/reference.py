"""Dense reference implementations the tests hold the package to.

Each function here builds and decomposes an n-by-n kernel in the most direct
way: the estimator one step at a time (mean, demeaning, covariance and lag-1
cross-covariance operators, spectrum, regularized inverse, operator estimate,
residuals, noise covariance) and the singular system of an operator from the
dense SVD of W^{1/2} kernel W^{1/2}. `model_P_hat` and `model_residuals` read
a fitted model's lag-1 cross-covariance and residual functions, which no
package code needs. The package computes the same objects
from the T-by-n panel and the operators' factors; agreement tests compare the
two. `principal_components`, `estimate_operator` and `residuals` are the
package's own (the benchmark's tracer needs `densfar.estimation` to bind the
grid functions they call) and are re-exported so that every test imports the
oracle from here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from densfar.errors import DensfarError, TooFewPeriods
from densfar.estimation import (
    _check_rank,
    _deviations,
    estimate_operator,
    principal_components,
    residuals,
)
from densfar.grid import (
    EigenSystem,
    GridFunction,
    OperatorRep,
    _orientation,
    _readonly,
    _require_same_grid,
)
from densfar.kde import DensityPanel

__all__ = [
    "EmptyResiduals",
    "SingularSystem",
    "covariance_operator",
    "demean",
    "estimate_operator",
    "lag1_cross_covariance",
    "model_P_hat",
    "model_residuals",
    "noise_covariance",
    "principal_components",
    "regularized_inverse",
    "residuals",
    "svd_operator",
]


class EmptyResiduals(DensfarError):
    """Residual sequence is empty."""


class SingularSystem(NamedTuple):
    """Top singular triplets of an operator under the quadrature geometry."""

    values: np.ndarray
    left: tuple
    right: tuple


def svd_operator(K: OperatorRep, m: int) -> SingularSystem:
    """Top-m singular triplets of the operator in the quadrature geometry.

    Computed from the dense SVD of W^{1/2} kernel W^{1/2}; left and right
    singular functions are mapped back through W^{-1/2} and carry the same
    deterministic sign convention as eigenfunctions (each right function's
    largest-magnitude entry is positive, the left function flipped along
    with it so that kernel reconstruction is preserved).
    """
    grid = K.grid
    if not 1 <= m <= grid.n:
        raise ValueError(f"need 1 <= m <= n={grid.n}, got m={m}")
    sqrt_w = np.sqrt(grid.weights)
    sym = sqrt_w[:, None] * K.kernel * sqrt_w[None, :]
    u_mat, s, vt = np.linalg.svd(sym)
    right = vt[:m] / sqrt_w
    sign = _orientation(right)
    left, right = (u_mat[:, :m].T / sqrt_w) * sign, right * sign
    return SingularSystem(values=_readonly(s[:m]),
                          left=tuple(GridFunction._wrap(grid, row) for row in left),
                          right=tuple(GridFunction._wrap(grid, row) for row in right))


def demean(panel: DensityPanel, f_bar: GridFunction) -> list:
    """Subtract the mean density from every period, projected onto the
    zero-integral subspace; the rows :func:`densfar.estimation.fit` works from."""
    return [GridFunction._wrap(panel.grid, w) for w in _deviations(panel, f_bar)]


def covariance_operator(w, divisor: int | None = None) -> OperatorRep:
    """Sample covariance operator (1/T) sum_t w_t (x) w_t.

    Parameters
    ----------
    divisor : int, optional
        Normalization; defaults to the number of terms.
    """
    w = list(w)
    if len(w) < 2:
        raise TooFewPeriods(f"covariance needs >= 2 periods, got {len(w)}")
    grid = _require_same_grid(*w)
    mat = np.stack([f.values for f in w])
    d = len(w) if divisor is None else int(divisor)
    return OperatorRep(grid, mat.T @ mat / d)


def lag1_cross_covariance(w) -> OperatorRep:
    """Lag-1 cross-covariance (1/T) sum over consecutive pairs w_t (x) w_{t-1}.

    The divisor is the number of periods T although only T-1 pairs exist.
    """
    w = list(w)
    if len(w) < 2:
        raise TooFewPeriods(f"cross-covariance needs >= 2 periods, got {len(w)}")
    grid = _require_same_grid(*w)
    mat = np.stack([f.values for f in w])
    return OperatorRep(grid, mat[1:].T @ mat[:-1] / len(w))


def regularized_inverse(eigen: EigenSystem, K: int) -> OperatorRep:
    """Rank-K inverse sum_{k<=K} lambda_k^{-1} v_k (x) v_k.

    Raises
    ------
    RankDeficient
        If K exceeds the usable rank (lambda_K <= 1e-10 * lambda_1), meaning
        the requested truncation cannot be inverted stably on this sample.
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    _check_rank(eigen, K)
    grid = eigen.grid
    kernel = np.zeros((grid.n, grid.n))
    for k in range(K):
        v = eigen.vectors[k]
        kernel += np.outer(v, v) / eigen.eigenvalues[k]
    return OperatorRep(grid, kernel)


def noise_covariance(resid, divisor: int | None = None) -> OperatorRep:
    """Noise covariance (1/T) sum_t e_t (x) e_t from the fitted residuals.

    The default divisor is len(resid) + 1: the residuals of a fit on T
    periods number T-1, and the normalization keeps the divisor at T.
    """
    resid = list(resid)
    if not resid:
        raise EmptyResiduals("noise covariance needs at least one residual")
    grid = _require_same_grid(*resid)
    d = len(resid) + 1 if divisor is None else int(divisor)
    mat = np.stack([r.values for r in resid])
    return OperatorRep(grid, mat.T @ mat / d)


def model_P_hat(model) -> OperatorRep:
    """A fitted model's lag-1 cross-covariance (1/T) sum_t w_t (x) w_{t-1},
    factored as (W_1^T, W_0, T) from its demeaned panel."""
    W = model.demeaned
    return OperatorRep._factored(model.grid, W[1:].T, W[:-1], len(W))


def model_residuals(model) -> tuple:
    """GridFunction views of the rows of a fitted model's `resid`."""
    return tuple(GridFunction._wrap(model.grid, row) for row in model.resid)
