"""Interpretation tools for a fitted density autoregression.

Covers the singular directions of the autoregressive operator (which parts
of yesterday's distribution drive today's, and which parts of today's are
driven), point-impulse response curves for arbitrary linear functionals,
moment and tail functionals, the covariance-orthonormal polynomial basis,
the predictable-variance share R^2, and the decomposition of a functional's
variance over the moments of the lagged distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateMetric, ThresholdOutOfSupport, ZeroVariance
from .grid import (
    GridFunction,
    GridSpec,
    OperatorRep,
    adjoint,
    apply_operator,
    inner,
    quadratic_form,
    svd_operator,
    _require_same_grid,
    _weighted_trace,
)

__all__ = [
    "MomentBasis",
    "DecompositionReport",
    "LeadingFeatures",
    "RSquared",
    "leading_features",
    "impulse_response",
    "moment_functional",
    "tail_indicator",
    "moment_basis",
    "r_squared",
    "variance_decomposition",
]

DEFAULT_KMAX = 10

# A candidate whose Q-form falls below this fraction of the first moment's
# counts as degenerate: Q carries no variance in that polynomial direction.
_DEGENERATE_REL = 1e-10


class LeadingFeatures(NamedTuple):
    """Singular structure of the autoregressive operator.

    progressive : directions of the lagged state that affect the future most
    regressive  : directions of the current state most affected by the past
    strengths   : matching singular values, non-increasing
    """

    progressive: tuple
    regressive: tuple
    strengths: np.ndarray


class RSquared(NamedTuple):
    """Predictable-variance share, clipped to [0, 1], with the raw value."""

    value: float
    unclipped: float


@dataclass(frozen=True, eq=False)
class MomentBasis:
    """Polynomials u_1..u_kmax, zero-integral and orthonormal under <., Q.>.

    u_k has exact degree k; <u_p, Q u_q> = delta_pq. The basis indexes the
    variance decomposition: the k-th coordinate of the lagged state in this
    basis is its normalized k-th moment.
    """

    grid: GridSpec
    functions: tuple
    kmax: int
    gram_operator: OperatorRep

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    """Variance decomposition of one probed functional.

    pi[k-1] is the share of the functional's variance explained by the k-th
    moment of the lagged distribution. r_squared and residual_share are
    present when a noise covariance was supplied.
    """

    functional: GridFunction
    pi: np.ndarray
    r_squared: float | None = None
    r_squared_unclipped: float | None = None
    residual_share: float | None = None


def leading_features(A_hat: OperatorRep, m: int) -> LeadingFeatures:
    """Top-m singular triplets of the autoregressive operator.

    The right singular functions are the progressive features and the left
    singular functions the regressive ones.
    """
    values, left, right = svd_operator(A_hat, m)
    return LeadingFeatures(progressive=right, regressive=left, strengths=values)


def impulse_response(A_hat: OperatorRep, v: GridFunction) -> GridFunction:
    """Response curve of the functional <v, .> to point impulses.

    The value at x is the change in <v, w_t> per unit point mass added to
    w_{t-1} at x; on the grid this is the adjoint operator applied to v.
    """
    return apply_operator(adjoint(A_hat), v)


def moment_functional(p: int, grid: GridSpec) -> GridFunction:
    """The monomial x^p on the grid; <x^p, w> is the p-th integral moment."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    return GridFunction(grid, grid.points ** p)


def _cell_overlap(grid: GridSpec, lo: float, hi: float) -> np.ndarray:
    # Fraction of each quadrature cell [x_i - h/2, x_i + h/2] (clipped to
    # [a, b]) covered by [lo, hi]; makes <indicator, f> a midpoint-rule
    # approximation of the integral of f over [lo, hi].
    h = grid.h
    cell_lo = np.maximum(grid.points - h / 2.0, grid.a)
    cell_hi = np.minimum(grid.points + h / 2.0, grid.b)
    covered = np.minimum(cell_hi, hi) - np.maximum(cell_lo, lo)
    return np.clip(covered, 0.0, None) / (cell_hi - cell_lo)


def tail_indicator(
    grid: GridSpec,
    side: str,
    tau: float | None = None,
    tau_lo: float | None = None,
    tau_hi: float | None = None,
) -> GridFunction:
    """Indicator of a tail region, with fractionally weighted boundary cells.

    side = "left" gives [a, tau], "right" gives [tau, b], and "two_sided"
    gives [a, tau_lo] union [tau_hi, b]. Cells straddling a threshold get
    the covered fraction as their value, so <indicator, f> approximates the
    tail probability of the density f at second order in the grid spacing.

    Raises
    ------
    ThresholdOutOfSupport
        Any threshold outside [a, b].
    """
    def check(t: float) -> float:
        t = float(t)
        if not grid.a <= t <= grid.b:
            raise ThresholdOutOfSupport(
                f"threshold {t} outside support [{grid.a}, {grid.b}]"
            )
        return t

    if side == "left":
        if tau is None:
            raise ValueError("left tail needs tau")
        values = _cell_overlap(grid, grid.a, check(tau))
    elif side == "right":
        if tau is None:
            raise ValueError("right tail needs tau")
        values = _cell_overlap(grid, check(tau), grid.b)
    elif side == "two_sided":
        if tau_lo is None or tau_hi is None:
            raise ValueError("two-sided tail needs tau_lo and tau_hi")
        lo, hi = check(tau_lo), check(tau_hi)
        if lo > hi:
            raise ValueError(f"need tau_lo <= tau_hi, got {lo} > {hi}")
        values = _cell_overlap(grid, grid.a, lo) + _cell_overlap(grid, hi, grid.b)
    else:
        raise ValueError(f"unknown side {side!r}; expected left/right/two_sided")
    return GridFunction(grid, values)


def moment_basis(Q: OperatorRep, grid: GridSpec, kmax: int = DEFAULT_KMAX) -> MomentBasis:
    """Build the moment basis by Householder QR under the bilinear form <., Q.>.

    The columns of M are x^1..x^kmax, centered to zero integral and scaled to
    unit L2 norm. With kernel = F^T F / d and W = diag(weights), the QR
    factorization F W M / sqrt(d) = Z R with diag(R) > 0 gives U = M R^{-1}:
    <u_p, Q u_q> = delta_pq, u_1 is a positive multiple of x - (a+b)/2, and
    u_k has exact degree k. R_kk^2 is the Q-form of x^k less its Q-projection
    onto the lower degrees. As the reorthogonalization pass of Gram-Schmidt
    does, a Cholesky factor of U's Q-Gram then removes the roundoff that the
    conditioning of M leaves in U.

    Raises
    ------
    DegenerateMetric
        When some R_kk^2 drops below 1e-10 of R_11^2, signalling that Q is
        too low-rank to support kmax moments.
    """
    if not 1 <= kmax <= DEFAULT_KMAX:
        raise ValueError(f"need 1 <= kmax <= {DEFAULT_KMAX}, got {kmax}")
    _require_same_grid(Q, grid.constant(0.0))
    powers = np.vander(grid.points, kmax + 1, increasing=True)[:, 1:]
    M = powers - grid.weights @ powers / (grid.b - grid.a)
    M /= np.sqrt(grid.weights @ M**2)
    if Q._factors is not None:  # a covariance the library builds as (X^T, X, d)
        _, F, d = Q._factors
    else:  # factored once through the eigenpairs of W^{1/2} kernel W^{1/2}
        sqrt_w = np.sqrt(grid.weights)
        vals, vecs = np.linalg.eigh(sqrt_w[:, None] * Q.kernel * sqrt_w)
        F, d = np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.T / sqrt_w, 1
    scale = grid.weights[:, None] / np.sqrt(d)
    R = np.linalg.qr(F @ (scale * M), mode="r")
    R *= np.where(np.diagonal(R) < 0.0, -1.0, 1.0)[:, None]
    # a factor of rank r < kmax leaves no variance past degree r
    q_form = np.zeros(kmax)
    q_form[: len(R)] = np.diagonal(R) ** 2
    bad = np.flatnonzero((q_form <= _DEGENERATE_REL * q_form[0]) | (q_form <= 0.0))
    if bad.size:
        raise DegenerateMetric(
            f"covariance carries no variance in the degree-{bad[0] + 1} direction "
            f"(Q-form {q_form[bad[0]]:.3e}); reduce kmax"
        )
    U = M @ np.linalg.inv(R)
    G = F @ (scale * U)
    U = (U @ np.linalg.inv(np.linalg.cholesky(G.T @ G).T)).T.copy()
    return MomentBasis(grid=grid, functions=tuple(GridFunction._wrap(grid, u) for u in U),
                       kmax=kmax, gram_operator=Q)


def _guarded_q_form(Q: OperatorRep, v: GridFunction) -> float:
    qv = quadratic_form(Q, v)
    trace = _weighted_trace(Q)
    floor = 1e-14 * max(inner(v, v) * max(trace, 0.0), 0.0)
    if qv <= floor:
        raise ZeroVariance(
            f"functional has (near-)zero variance: <v, Qv> = {qv:.3e}"
        )
    return qv


def r_squared(v: GridFunction, Q: OperatorRep, Sigma: OperatorRep) -> RSquared:
    """Predictable-variance share 1 - <v, Sigma v> / <v, Q v>.

    Finite-sample plug-ins can leave [0, 1]; the clipped value is returned
    together with the raw one.

    Raises
    ------
    ZeroVariance
        If <v, Qv> is zero at the working precision.
    """
    qv = _guarded_q_form(Q, v)
    raw = 1.0 - quadratic_form(Sigma, v) / qv
    return RSquared(value=float(np.clip(raw, 0.0, 1.0)), unclipped=float(raw))


def variance_decomposition(
    v: GridFunction,
    A: OperatorRep,
    Q: OperatorRep,
    basis: MomentBasis,
    Sigma: OperatorRep | None = None,
) -> DecompositionReport:
    """Split the variance of <v, w_t> over the moments of the lagged state.

    The share attributed to the k-th moment is <v, A Q u_k>^2 / <v, Q v>,
    computed for every k at once as <Q A* v, u_k>^2 / <v, Q v>. When a noise
    covariance is supplied the report also carries R^2 and the unexplained
    share 1 - R^2.
    """
    qv = _guarded_q_form(Q, v)
    loading = apply_operator(Q, apply_operator(adjoint(A), v))
    U = np.stack([u.values for u in basis.functions])
    pi = (U @ (v.grid.weights * loading.values)) ** 2 / qv
    r2 = raw = share = None
    if Sigma is not None:
        r2, raw = r_squared(v, Q, Sigma)
        share = 1.0 - r2
    return DecompositionReport(
        functional=v,
        pi=pi,
        r_squared=r2,
        r_squared_unclipped=raw,
        residual_share=share,
    )
