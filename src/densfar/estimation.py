"""Estimation of the first-order functional autoregression for densities.

Given a panel of densities f_1..f_T the pipeline is:

    mean        f_bar = (1/T) sum_t f_t
    demean      w_t   = f_t - f_bar            (zero-integral functions)
    covariance  Q     = (1/T) sum_t w_t (x) w_t
    lag-1 cross P     = (1/T) sum_t w_t (x) w_{t-1}
    spectrum    (lambda_k, v_k) of Q
    inverse     Qplus = sum_{k<=K} lambda_k^{-1} v_k (x) v_k
    operator    A     = P Qplus
    residuals   e_t   = w_t - A w_{t-1}
    noise cov   Sigma = (1/T) sum_t e_t (x) e_t

The rank-K truncation regularizes the otherwise ill-posed inversion of Q;
K must stay within the numerically usable rank of the estimated covariance.
P and Sigma keep the divisor T even though only T-1 terms exist.

:func:`fit` never decomposes or inverts an n-by-n kernel when T <= n: with
the demeaned panel stacked as a (T, n) array W, the spectrum of Q comes from
the T-by-T Gram matrix of X = W diag(sqrt(weights)) (the method of
snapshots, :func:`~densfar.grid.snapshot_spectrum`; for T > n the smaller
matrix is the n-by-n X^T X), and A and the residuals follow from the
(T-1)-by-K scores C_K = W_0 diag(weights) V_K of the lagged periods:

    A = (1/T) W_1^T C_K Lambda_K^{-1} V_K^T,   e = W_1 - (1/T) C_K Lambda_K^{-1} C_K^T W_1

where W_0 and W_1 drop the last and the first period. :func:`fit_demeaned`
does this from (grid, mean density, W, K), the state a model file stores, so
fitting and loading share one code path. The fitted operators keep these
factors, all views of arrays the model holds: A = (B, V_K^T, T) with
B = W_1^T C_K Lambda_K^{-1}, Sigma = (e^T, e, T), Q = (W^T, W, T) and
P = (W_1^T, W_0, T); no n-by-n kernel exists until a caller reads one.

A refit reads only the K leading eigenpairs. Given a warm start, such as
the leading K + p eigenfunctions of a nearby panel (a bootstrap refit gets
those of the original panel), :func:`fit` solves just those K pairs of the
T-by-T Gram matrix by block subspace iteration instead of a full `eigh`,
and falls back to the full spectrum when that does not converge in a few
sweeps.

The dense building blocks above are the agreement reference the tests hold
:func:`fit` to. Three of them stay here because the benchmark's tracer needs
this module to bind `eigh_operator`, `compose` and `apply_operator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyPanel,
    EmptyResiduals,
    RankDeficient,
    TooFewPeriods,
)
from .grid import (
    EigenSystem,
    GridFunction,
    GridSpec,
    OperatorRep,
    apply_operator,
    compose,
    eigh_operator,
    snapshot_spectrum,
    _readonly,
    _require_same_grid,
)
from .kde import DensityPanel

__all__ = [
    "FarModel",
    "RANK_CUTOFF_REL",
    "mean_density",
    "demean",
    "covariance_operator",
    "lag1_cross_covariance",
    "principal_components",
    "regularized_inverse",
    "estimate_operator",
    "residuals",
    "noise_covariance",
    "fit",
    "fit_demeaned",
]

# An eigenvalue below this fraction of the largest one counts as numerically
# zero: inverting past it would amplify noise without bound.
RANK_CUTOFF_REL = 1e-10


@dataclass(frozen=True, eq=False)
class FarModel:
    """Fitted density autoregression.

    `grid`, `mean_density`, `demeaned` and `K` are what the fit is computed
    from; :func:`fit_demeaned` derives the rest from them, so a model file
    stores only those four. The derived fit stays in fields so that
    `dataclasses.replace` can swap an operator for a what-if model.

    Attributes
    ----------
    grid : GridSpec
    mean_density : GridFunction
        Sample average of the panel densities.
    demeaned : ndarray, shape (T, n)
        Demeaned densities w_1..w_T, read-only.
    K : int
        Truncation level of the regularized inverse.
    eigen : EigenSystem
        The min(T, n) leading eigenvalues of the covariance operator Q_hat,
        and the eigenfunctions of the leading K of them. A warm-started fit
        (a bootstrap refit) holds only the K leading eigenvalues, unless its
        truncated solve fell back to the full spectrum.
    A_hat, Sigma_hat : OperatorRep
        Autoregressive operator and residual noise covariance.
    resid : ndarray, shape (T-1, n)
        Fitted residuals e_2..e_T, read-only.
    residuals : tuple of GridFunction
        GridFunction views of the rows of `resid`, built on first access.
    """

    grid: GridSpec
    mean_density: GridFunction
    demeaned: np.ndarray
    K: int
    eigen: EigenSystem
    A_hat: OperatorRep
    Sigma_hat: OperatorRep
    resid: np.ndarray

    def __post_init__(self):
        for name in ("demeaned", "resid"):
            if getattr(self, name).flags.writeable:
                object.__setattr__(self, name, _readonly(getattr(self, name)))

    @cached_property
    def residuals(self) -> tuple:
        return tuple(GridFunction._wrap(self.grid, row) for row in self.resid)

    @cached_property
    def Q_hat(self) -> OperatorRep:
        """Covariance operator (1/T) sum_t w_t (x) w_t."""
        W = self.demeaned
        return OperatorRep._factored(self.grid, W.T, W, len(W))

    @cached_property
    def P_hat(self) -> OperatorRep:
        """Lag-1 cross-covariance (1/T) sum_t w_t (x) w_{t-1}."""
        W = self.demeaned
        return OperatorRep._factored(self.grid, W[1:].T, W[:-1], len(W))

    @property
    def sample_size(self) -> int:
        """Number of panel periods T used in the fit."""
        return len(self.demeaned)

    @property
    def w_initial(self) -> GridFunction:
        """First demeaned density, where bootstrap regeneration starts."""
        return GridFunction._wrap(self.grid, self.demeaned[0])

    @property
    def w_last(self) -> GridFunction:
        """Last demeaned density, where forecasts start."""
        return GridFunction._wrap(self.grid, self.demeaned[-1])


def mean_density(panel: DensityPanel) -> GridFunction:
    """Pointwise average of the panel densities."""
    if len(panel) == 0:
        raise EmptyPanel("cannot average an empty panel")
    return GridFunction(panel.grid, panel.values.mean(axis=0))


def _deviations(panel: DensityPanel, f_bar: GridFunction) -> np.ndarray:
    # rows f_t - f_bar, projected onto zero integral to remove quadrature roundoff
    grid = _require_same_grid(panel, f_bar)
    dev = panel.values - f_bar.values
    dev -= (dev @ grid.weights / (grid.b - grid.a))[:, None]
    return dev


def demean(panel: DensityPanel, f_bar: GridFunction) -> list:
    """Subtract the mean density from every period, projected onto the
    zero-integral subspace; the rows :func:`fit` works from."""
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


def principal_components(Q_hat: OperatorRep) -> EigenSystem:
    """Eigenpairs of the covariance operator, in descending order."""
    return eigh_operator(Q_hat)


def usable_rank(eigen: EigenSystem) -> int:
    """Largest K with lambda_K above the relative rank cutoff."""
    vals = eigen.eigenvalues
    if len(vals) == 0 or vals[0] <= 0.0:
        return 0
    return int(np.sum(vals > RANK_CUTOFF_REL * vals[0]))


def _check_rank(eigen: EigenSystem, K: int) -> None:
    if K > usable_rank(eigen):
        raise RankDeficient(
            f"K={K} exceeds the usable rank {usable_rank(eigen)} of the covariance"
        )


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


def estimate_operator(P_hat: OperatorRep, Q_K_plus: OperatorRep) -> OperatorRep:
    """Plug-in autoregressive operator: the composition P Qplus."""
    return compose(P_hat, Q_K_plus)


def residuals(w, A_hat: OperatorRep) -> list:
    """Fitted residuals e_t = w_t - A w_{t-1}, for t = 2..T."""
    w = list(w)
    if len(w) < 2:
        raise TooFewPeriods(f"residuals need >= 2 periods, got {len(w)}")
    return [w[t] - apply_operator(A_hat, w[t - 1]) for t in range(1, len(w))]


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


def _snapshots(panel: DensityPanel) -> tuple:
    """Mean density and the demeaned (T, n) panel, read-only: the rows of
    :func:`mean_density` followed by :func:`demean`, bit for bit."""
    f_bar = mean_density(panel)
    W = _deviations(panel, f_bar)
    W.setflags(write=False)
    return f_bar, W


def _lagged_scores(W: np.ndarray, eigen: EigenSystem, K: int) -> tuple:
    """Leading K eigenfunctions as a (K, n) array, and the (T-1, K) scores
    <v_k, w_t> of the lagged periods w_1..w_{T-1}."""
    V = eigen.vectors[:K]
    return V, (W[:-1] * eigen.grid.weights) @ V.T


def fit(panel: DensityPanel, K: int, start: np.ndarray | None = None) -> FarModel:
    """Fit the full autoregression on a density panel with truncation K.

    `start` warm-starts the spectrum as in :func:`fit_demeaned`.

    Raises
    ------
    TooFewPeriods
        Fewer than 5 periods.
    RankDeficient
        K exceeds the usable rank of the estimated covariance.
    """
    f_bar, W = _snapshots(panel)
    return fit_demeaned(panel.grid, f_bar, W, K, start)


def fit_demeaned(grid: GridSpec, mean_density: GridFunction, W: np.ndarray,
                 K: int, start: np.ndarray | None = None) -> FarModel:
    """Fit at truncation K from the read-only demeaned (T, n) panel W.

    Every :class:`FarModel` is built here: :func:`fit` comes with the
    snapshots of a density panel, a model loader with the stored ones.
    `start`, a (b, n) array with b >= K such as a nearby panel's leading
    eigenfunctions times sqrt(weights), warm-starts a truncated spectrum
    (:func:`~densfar.grid.snapshot_spectrum`): the model's `eigen` then
    holds only the K leading eigenvalues, unless the solve falls back.

    Raises
    ------
    TooFewPeriods
        Fewer than 5 periods.
    RankDeficient
        K exceeds the usable rank of the estimated covariance.
    """
    T = len(W)
    if T < 5:
        raise TooFewPeriods(f"fit needs >= 5 periods, got {T}")
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    eigen = snapshot_spectrum(grid, W, K, start)
    _check_rank(eigen, K)
    V, C = _lagged_scores(W, eigen, K)
    B = W[1:].T @ (C / eigen.eigenvalues[:K])
    # e = W_1 - (C B^T) / T, in one buffer
    resid = np.matmul(C, B.T)
    np.divide(resid, T, out=resid)
    np.subtract(W[1:], resid, out=resid)
    B.setflags(write=False)
    resid.setflags(write=False)
    return FarModel(
        grid=grid,
        mean_density=mean_density,
        demeaned=W,
        K=int(K),
        eigen=eigen,
        A_hat=OperatorRep._factored(grid, B, V, T),
        Sigma_hat=OperatorRep._factored(grid, resid.T, resid, T),
        resid=resid,
    )
