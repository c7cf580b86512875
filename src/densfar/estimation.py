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

:func:`fit` never inverts an n-by-n kernel: with the demeaned panel stacked
as a (T, n) array W, the spectrum of Q comes from the smaller Gram matrix of
X = W diag(sqrt(weights)), X X^T when T <= n (the method of snapshots,
:func:`~densfar.grid.snapshot_spectrum`) and X^T X when T > n. A and the
residuals follow from the (T-1)-by-K scores C_K = W_0 diag(weights) V_K of
the lagged periods:

    A = (1/T) W_1^T C_K Lambda_K^{-1} V_K^T,   e = W_1 - (1/T) C_K Lambda_K^{-1} C_K^T W_1

where W_0 and W_1 drop the last and the first period. :func:`fit_demeaned`
does this from (mean density, W, K), the state a model file stores, so
fitting and loading share one code path. The fitted operators keep these
factors, all views of arrays the model holds: A = (B, V_K^T, T) with
B = W_1^T C_K Lambda_K^{-1}, Sigma = (e^T, e, T) and Q = (W^T, W, T); no
n-by-n kernel exists until a caller reads one.

A refit reads only the K leading eigenpairs. Given a warm start, such as
the leading K + p eigenfunctions of a nearby panel (a bootstrap refit gets
those of the original panel), :func:`fit` solves just those K pairs of the
smaller Gram matrix by block subspace iteration instead of a full `eigh`,
and falls back to the full spectrum when that does not converge in a few
sweeps.

The dense form of these steps, each operator an n-by-n kernel, is the
tests' agreement oracle for :func:`fit`, in ``tests/reference.py``. It
re-exports :func:`principal_components`, :func:`estimate_operator` and
:func:`residuals`, kept here because the benchmark's tracer needs this
module to bind `eigh_operator`, `compose` and `apply_operator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RankDeficient, TooFewPeriods
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
    "principal_components",
    "estimate_operator",
    "residuals",
    "fit",
    "fit_demeaned",
]

# An eigenvalue below this fraction of the largest one counts as numerically
# zero: inverting past it would amplify noise without bound.
RANK_CUTOFF_REL = 1e-10


@dataclass(frozen=True, eq=False)
class FarModel:
    """Fitted density autoregression.

    `mean_density` (on the model's `grid`), `demeaned` and `K` are what the
    fit is computed from; :func:`fit_demeaned` derives the rest from them, so
    a model file stores only those three and the `kernel`. The derived fit
    stays in fields so that `dataclasses.replace` can swap an operator for a
    what-if model.

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
        (a bootstrap refit), whether T <= n or T > n, holds only the K leading
        eigenvalues, unless its truncated solve fell back to the full spectrum.
    A_hat, Sigma_hat : OperatorRep
        Autoregressive operator and residual noise covariance.
    resid : ndarray, shape (T-1, n)
        Fitted residuals e_2..e_T, read-only.
    kernel : str
        KDE kernel of the panel densities, from which a forecast estimates
        its start state the same way.
    """

    mean_density: GridFunction
    demeaned: np.ndarray
    K: int
    eigen: EigenSystem
    A_hat: OperatorRep
    Sigma_hat: OperatorRep
    resid: np.ndarray
    kernel: str

    def __post_init__(self):
        for name in ("demeaned", "resid"):
            if getattr(self, name).flags.writeable:
                object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def grid(self) -> GridSpec:
        return self.mean_density.grid

    @cached_property
    def Q_hat(self) -> OperatorRep:
        """Covariance operator (1/T) sum_t w_t (x) w_t."""
        W = self.demeaned
        return OperatorRep._factored(self.grid, W.T, W, len(W))

    @property
    def sample_size(self) -> int:
        """Number of panel periods T used in the fit."""
        return len(self.demeaned)

    @property
    def w_last(self) -> GridFunction:
        """Last demeaned density, where forecasts start."""
        return GridFunction._wrap(self.grid, self.demeaned[-1])


def mean_density(panel: DensityPanel) -> GridFunction:
    """Pointwise average of the panel densities."""
    return GridFunction(panel.grid, panel.values.mean(axis=0))


def _deviations(panel: DensityPanel, f_bar: GridFunction, out=None) -> np.ndarray:
    # rows f_t - f_bar, projected onto zero integral to remove quadrature roundoff;
    # written into `out` when given
    grid = _require_same_grid(panel, f_bar)
    dev = np.subtract(panel.values, f_bar.values, out=out)
    dev -= (dev @ grid.weights / (grid.b - grid.a))[:, None]
    return dev


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


def estimate_operator(P_hat: OperatorRep, Q_K_plus: OperatorRep) -> OperatorRep:
    """Plug-in autoregressive operator: the composition P Qplus."""
    return compose(P_hat, Q_K_plus)


def residuals(w, A_hat: OperatorRep) -> list:
    """Fitted residuals e_t = w_t - A w_{t-1}, for t = 2..T."""
    w = list(w)
    if len(w) < 2:
        raise TooFewPeriods(f"residuals need >= 2 periods, got {len(w)}")
    return [w[t] - apply_operator(A_hat, w[t - 1]) for t in range(1, len(w))]


def _snapshots(panel: DensityPanel, out=None) -> tuple:
    """Mean density and the demeaned (T, n) panel, read-only: each row is
    f_t - f_bar projected onto zero integral. The panel is written into `out`
    when given, which is then made read-only too."""
    f_bar = mean_density(panel)
    W = _deviations(panel, f_bar, out)
    W.setflags(write=False)
    return f_bar, W


def _lagged_scores(W: np.ndarray, eigen: EigenSystem, K: int, out=None) -> tuple:
    """Leading K eigenfunctions as a (K, n) array, and the (T-1, K) scores
    <v_k, w_t> of the lagged periods w_1..w_{T-1}; the weighted periods go to
    the leading T-1 rows of `out` when given."""
    V = eigen.vectors[:K]
    lagged = np.multiply(W[:-1], eigen.grid.weights, out=None if out is None else out[:-1])
    return V, lagged @ V.T


def fit(panel: DensityPanel, K: int, start: np.ndarray | None = None, *,
        out: tuple | None = None, kernel: str = "epanechnikov") -> FarModel:
    """Fit the full autoregression on a density panel with truncation K.

    `start` warm-starts the spectrum as in :func:`fit_demeaned`. `out`, for
    loops that refit many panels of one shape, is a (W, X, E) triple of
    buffers shaped (T, n), (T, n) and (T-1, n): the demeaned panel goes to W
    and the rest as in :func:`fit_demeaned`. W and E become the model's
    read-only `demeaned` and `resid`, so pass views of buffers that are to
    be reused. The panel's values are only read. `kernel` names the KDE
    kernel the panel was estimated with, which the model records.

    Raises
    ------
    TooFewPeriods
        Fewer than 5 periods.
    RankDeficient
        K exceeds the usable rank of the estimated covariance.
    """
    f_bar, W = _snapshots(panel, None if out is None else out[0])
    return fit_demeaned(f_bar, W, K, start, out=None if out is None else out[1:],
                        kernel=kernel)


def fit_demeaned(mean_density: GridFunction, W: np.ndarray, K: int,
                 start: np.ndarray | None = None, *,
                 out: tuple | None = None, kernel: str = "epanechnikov") -> FarModel:
    """Fit at truncation K from the read-only demeaned (T, n) panel W on the
    grid of `mean_density`.

    Every :class:`FarModel` is built here: :func:`fit` comes with the
    snapshots of a density panel, a model loader with the stored ones.
    `start`, a (b, n) array with b >= K such as a nearby panel's leading
    eigenfunctions times sqrt(weights), warm-starts a truncated solve of the
    smaller Gram matrix (:func:`~densfar.grid.snapshot_spectrum`): the model's
    `eigen` then holds only the K leading eigenvalues, unless it falls back.

    `out`, an (X, E) pair of (T, n) and (T-1, n) buffers, takes the
    fit's panel-sized temporaries: X the weighted panel, E the residuals,
    which become the model's read-only `resid`.

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
    grid = mean_density.grid
    X, E = (None, None) if out is None else out
    eigen = snapshot_spectrum(grid, W, K, start, out=X)
    _check_rank(eigen, K)
    V, C = _lagged_scores(W, eigen, K, out=X)
    B = W[1:].T @ (C / eigen.eigenvalues[:K])
    # e = W_1 - (C B^T) / T, in one buffer
    resid = np.matmul(C, B.T, out=E)
    np.divide(resid, T, out=resid)
    np.subtract(W[1:], resid, out=resid)
    B.setflags(write=False)
    resid.setflags(write=False)
    return FarModel(
        mean_density=mean_density,
        demeaned=W,
        K=int(K),
        eigen=eigen,
        A_hat=OperatorRep._factored(grid, B, V, T),
        Sigma_hat=OperatorRep._factored(grid, resid.T, resid, T),
        resid=resid,
        kernel=kernel,
    )
