"""Discretized L2([a, b]) numerics on a shared uniform grid.

Every function in the pipeline (densities, demeaned densities, features,
eigenfunctions) is a vector of values on one :class:`GridSpec`, the grid
defined by (a, b, n); every integral operator has an n-by-n kernel matrix
acting through trapezoid quadrature:

    (K g)(x_i) = sum_j weights[j] * kernel[i, j] * g(x_j)

A fitted operator keeps its factors, kernel = left @ right / d with left
(n, r) and right (r, n), acts through them at O(n r) and multiplies the
kernel out only when it is read. Inner products, adjoints and
eigendecompositions are all taken with respect to the quadrature geometry,
so eigenfunctions come out orthonormal in L2, not in the Euclidean sense.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    GridMismatch,
    GridTooLarge,
    GridTooSmall,
    InvalidSupport,
    NegativeDensity,
    NonPSD,
    NotSymmetric,
)

__all__ = [
    "GridSpec",
    "GridFunction",
    "OperatorRep",
    "EigenSystem",
    "make_grid",
    "inner",
    "norm",
    "project_zero_integral",
    "outer",
    "apply_operator",
    "adjoint",
    "compose",
    "quadratic_form",
    "eigh_operator",
    "snapshot_spectrum",
    "cdf_from_density",
    "quantile",
]

MIN_GRID_SIZE = 16
# 8x the default grid of 512, so an n x n operator stays within 128 MiB.
MAX_GRID_SIZE = 4096

# Relative window inside which tiny negative eigenvalues of a PSD operator
# are treated as roundoff and clipped to zero.
_PSD_CLIP_REL = 1e-12

# Block subspace iteration for the leading Gram eigenpairs: the columns it
# carries past the wanted pairs, the sweeps it may take before the caller falls
# back to a full eigh, and its residual bound relative to the largest eigenvalue.
_SUBSPACE_EXTRA = 6
_SUBSPACE_SWEEPS = 6
_SUBSPACE_TOL = 1e-13


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over a compact support [a, b] with trapezoid weights.

    A grid is (a, b, n): equality and hashing use those three, and the
    read-only `points` and `weights` are derived from them once. End weights
    are h/2, interior weights h, with h = (b - a)/(n - 1).

    Attributes
    ----------
    a, b : float
        Support bounds, a < b.
    n : int
        Number of grid points (16 <= n <= 4096).
    points : ndarray, shape (n,)
        Strictly increasing abscissae with points[0] = a, points[-1] = b.
    weights : ndarray, shape (n,)
        Nonnegative quadrature weights summing to b - a.

    Raises
    ------
    TypeError
        If a or b is not a real number (a string or bool is not), or n is
        not an integer.
    InvalidSupport
        If a >= b, or a, b or b - a is not finite.
    GridTooSmall
        If n < 16.
    GridTooLarge
        If n > 4096.
    """

    a: float
    b: float
    n: int
    points: np.ndarray = field(init=False, compare=False)
    weights: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        for bound in (self.a, self.b):
            if not isinstance(bound, numbers.Real) or isinstance(bound, bool):
                raise TypeError(f"grid bounds must be real numbers, got {bound!r}")
        try:
            n = operator.index(self.n)
        except TypeError:
            raise TypeError(f"grid size must be an integer, got {self.n!r}") from None
        a, b = float(self.a), float(self.b)
        if not (a < b):
            raise InvalidSupport(f"need a < b, got a={a}, b={b}")
        if not np.isfinite(b - a):
            raise InvalidSupport(f"need finite a, b and b - a, got a={a}, b={b}")
        if n < MIN_GRID_SIZE:
            raise GridTooSmall(f"need n >= {MIN_GRID_SIZE}, got n={n}")
        if n > MAX_GRID_SIZE:
            raise GridTooLarge(f"need n <= {MAX_GRID_SIZE}, got n={n}")
        points = np.linspace(a, b, n)
        h = (b - a) / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
        points.setflags(write=False)
        weights.setflags(write=False)
        self.__dict__.update(a=a, b=b, n=n, points=points, weights=weights)

    @property
    def h(self) -> float:
        """Grid spacing (b - a) / (n - 1)."""
        return (self.b - self.a) / (self.n - 1)

    def function(self, values) -> "GridFunction":
        """Wrap raw values as a GridFunction on this grid."""
        return GridFunction(self, values)

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.n))

    def constant(self, c: float) -> "GridFunction":
        return GridFunction(self, np.full(self.n, float(c)))


def make_grid(a: float, b: float, n: int) -> GridSpec:
    """Build the uniform grid on [a, b] with n points: `GridSpec(a, b, n)`."""
    return GridSpec(a, b, n)


def _require_same_grid(*objs) -> GridSpec:
    grid = objs[0].grid
    for other in objs[1:]:
        if other.grid is not grid and other.grid != grid:
            raise GridMismatch(
                f"operands live on different grids: "
                f"[{grid.a}, {grid.b}] n={grid.n} vs "
                f"[{other.grid.a}, {other.grid.b}] n={other.grid.n}"
            )
    return grid


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real-valued function represented by its values on a GridSpec."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", _readonly(values))

    @classmethod
    def _wrap(cls, grid: GridSpec, values: np.ndarray) -> "GridFunction":
        # fast path for freshly computed arrays the library owns: linear
        # combinations of validated inputs stay finite, so skip the checks
        obj = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(obj, "grid", grid)
        object.__setattr__(obj, "values", values)
        return obj

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self, other)
        return GridFunction._wrap(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _require_same_grid(self, other)
        return GridFunction._wrap(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction._wrap(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction._wrap(self.grid, -self.values)


class OperatorRep:
    """Integral operator on the grid, with its kernel matrix.

    kernel[i, j] = k(points[i], points[j]); the action on g is the weighted
    matrix-vector product (K g)(x_i) = sum_j weights[j] kernel[i, j] g(x_j).
    `OperatorRep(grid, kernel)` validates and copies the kernel. An operator
    built by the library from factors acts through them, and its read-only
    `kernel` = left @ right / d is computed on first access.
    """

    def __init__(self, grid: GridSpec, kernel):
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.shape != (grid.n, grid.n):
            raise ValueError(f"expected {grid.n}x{grid.n} kernel, got shape {kernel.shape}")
        if not np.all(np.isfinite(kernel)):
            raise ValueError("operator kernel must be finite")
        # an instance attribute, found before the cached property below
        self.grid, self._factors, self.kernel = grid, None, _readonly(kernel)

    @classmethod
    def _factored(cls, grid: GridSpec, left, right, d: int) -> "OperatorRep":
        # library-only: finite (n, r) and (r, n) arrays the caller keeps unchanged
        op = object.__new__(cls)
        op.grid, op._factors = grid, (left, right, d)
        return op

    @cached_property
    def kernel(self) -> np.ndarray:
        left, right, d = self._factors
        out = left @ right / d
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues (descending) and quadrature-orthonormal eigenfunctions, stored
    once as the read-only (m, n) array `vectors` (row k pairs with eigenvalues[k]);
    `functions` is a tuple of GridFunction views of its rows, built on first access.
    `vectors` may hold only the leading eigenfunctions: m <= len(eigenvalues)."""

    grid: GridSpec
    eigenvalues: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))
        if self.vectors.flags.writeable:
            object.__setattr__(self, "vectors", _readonly(self.vectors))

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def functions(self) -> tuple:
        return tuple(GridFunction._wrap(self.grid, row) for row in self.vectors)


def inner(f: GridFunction, g: GridFunction) -> float:
    """Quadrature inner product sum_i w_i f_i g_i, approximating the L2 one."""
    grid = _require_same_grid(f, g)
    return float(np.dot(grid.weights * f.values, g.values))


def norm(f: GridFunction) -> float:
    """Quadrature L2 norm of f."""
    return float(np.sqrt(max(inner(f, f), 0.0)))


def project_zero_integral(f: GridFunction) -> GridFunction:
    """Project f onto the subspace of zero-integral functions.

    Returns f - (<1, f> / (b - a)) * 1, whose quadrature integral vanishes.
    Idempotent: functions already integrating to zero pass through unchanged.
    """
    grid = f.grid
    mean_level = float(np.dot(grid.weights, f.values)) / (grid.b - grid.a)
    return GridFunction._wrap(grid, f.values - mean_level)


def outer(u: GridFunction, v: GridFunction) -> OperatorRep:
    """Tensor product operator u (x) v with kernel u_i * v_j.

    Its action is (u (x) v) g = <v, g> u.
    """
    grid = _require_same_grid(u, v)
    return OperatorRep(grid, np.outer(u.values, v.values))


def apply_operator(K: OperatorRep, g: GridFunction) -> GridFunction:
    """Apply the integral operator to g via trapezoid quadrature."""
    grid = _require_same_grid(K, g)
    wg = grid.weights * g.values
    if K._factors is None:
        return GridFunction._wrap(grid, K.kernel @ wg)
    left, right, d = K._factors
    return GridFunction._wrap(grid, left @ (right @ wg) / d)


def adjoint(K: OperatorRep) -> OperatorRep:
    """Adjoint under the quadrature inner product: the transposed kernel."""
    if K._factors is None:
        return OperatorRep(K.grid, K.kernel.T)
    left, right, d = K._factors
    return OperatorRep._factored(K.grid, right.T, left.T, d)


def compose(K1: OperatorRep, K2: OperatorRep) -> OperatorRep:
    """Operator composition K1 after K2 under quadrature.

    Kernel is kernel1 @ diag(weights) @ kernel2, so that
    apply(compose(K1, K2), g) == apply(K1, apply(K2, g)).
    """
    grid = _require_same_grid(K1, K2)
    return OperatorRep(grid, K1.kernel @ (grid.weights[:, None] * K2.kernel))


def quadratic_form(K: OperatorRep, v: GridFunction) -> float:
    """<v, K v> under the quadrature inner product."""
    grid = _require_same_grid(K, v)
    wv = grid.weights * v.values
    if K._factors is None:
        return float(wv @ K.kernel @ wv)
    left, right, d = K._factors
    return float((wv @ left) @ (right @ wv) / d)


def _weighted_trace(K: OperatorRep) -> float:
    """Trace sum_i weights[i] kernel[i, i] of the operator."""
    if K._factors is None:
        return float(np.dot(K.grid.weights, np.diag(K.kernel)))
    left, right, d = K._factors
    return float(np.einsum("ij,ji->i", left, right) @ K.grid.weights / d)


def _weighted_factors(K: OperatorRep) -> tuple:
    """(L, R) with kernel diag(weights) = L R, from the operator's factors."""
    if K._factors is None:
        raise ValueError("operator is held only as a kernel, not as factors")
    left, right, d = K._factors
    return left / d, right * K.grid.weights


def _orientation(vectors: np.ndarray) -> np.ndarray:
    # deterministic orientation: signs (a column) that make each row's peak positive
    peak = np.argmax(np.abs(vectors), axis=1)
    return np.where(vectors[np.arange(len(vectors)), peak] < 0, -1.0, 1.0)[:, None]


def _eigenfunctions(vecs: np.ndarray, sqrt_w: np.ndarray) -> np.ndarray:
    # rows of vecs (symmetrized eigenvectors) mapped back through W^{-1/2} into
    # one oriented, read-only C-ordered array that EigenSystem need not copy
    out = np.divide(vecs, sqrt_w, order="C")
    out *= _orientation(out)
    out.setflags(write=False)
    return out


def _symmetric_kernel(K: OperatorRep) -> np.ndarray:
    """The operator's kernel, checked symmetric within 1e-10 (relative)."""
    kernel = K.kernel
    scale = float(np.max(np.abs(kernel))) if kernel.size else 0.0
    if float(np.max(np.abs(kernel - kernel.T))) > 1e-10 * (1.0 + scale):
        raise NotSymmetric("kernel is not symmetric within tolerance")
    return kernel


def eigh_operator(K: OperatorRep) -> EigenSystem:
    """Spectral decomposition of a symmetric PSD operator.

    Solves the weighted eigenproblem by symmetrizing with W^{1/2}
    (W = diag(weights)): eigenvectors of W^{1/2} kernel W^{1/2} mapped back
    through W^{-1/2} are orthonormal under the quadrature inner product.
    Eigenvalues are returned in descending order; negatives inside the
    relative roundoff window are clipped to zero.

    Raises
    ------
    NotSymmetric
        If the kernel is not symmetric within 1e-10 (relative).
    NonPSD
        If an eigenvalue falls below -1e-12 relative to the largest magnitude.
    """
    grid = K.grid
    kernel = _symmetric_kernel(K)
    sqrt_w = np.sqrt(grid.weights)
    sym = sqrt_w[:, None] * kernel * sqrt_w[None, :]
    sym = 0.5 * (sym + sym.T)
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    vmax = float(np.max(np.abs(vals))) if vals.size else 0.0
    tol = _PSD_CLIP_REL * vmax
    if vals.size and float(vals.min()) < -tol:
        raise NonPSD(
            f"eigenvalue {vals.min():.3e} below the PSD window of {-tol:.3e}"
        )
    return EigenSystem(grid=grid, eigenvalues=np.clip(vals, 0.0, None),
                       vectors=_eigenfunctions(vecs.T, sqrt_w))


def _leading_gram_pairs(G: np.ndarray, start: np.ndarray, m: int):
    """Leading m eigenpairs (theta descending, V with orthonormal columns) of
    the symmetric PSD matrix G, or None if they are not certified in time.

    Block subspace iteration on G^2 from the (T, b) block `start`, b >= m,
    with a Rayleigh-Ritz step per sweep (Halko, Martinsson & Tropp 2011; Saad
    2011, ch. 5), gives Ritz pairs (theta_j, v_j) with residuals
    r_j = G v_j - theta_j v_j. It stops once every ||r_j||, j <= m, is at most
    tol = _SUBSPACE_TOL * theta_1 and no other eigenvalue of G can exceed
    theta_m + tol, and gives up after _SUBSPACE_SWEEPS sweeps. The second test
    is needed because small residuals do not tell the leading pairs from
    others: a start orthogonal to the leading space stays orthogonal to it.
    In the orthonormal basis of the m pairs, the b - m others and their
    complement, Weyl's inequality and the norm bound of a 2x2 PSD block
    matrix give

        lambda_{m+1} <= (a + d) / 2 + hypot((a - d) / 2, beta) + ||r_{1..m}||_F

    with a = theta_{m+1}, beta = ||r_{m+1..b}||_F and d^2 = ||G||_F^2 -
    sum_j theta_j^2 - 2 ||r_{1..b}||_F^2 (the complement block's squared
    Frobenius norm) plus a roundoff slack.
    """
    GQ = G @ start
    norm2 = float(np.vdot(G, G))
    slack = len(G) * np.finfo(float).eps * norm2
    for _ in range(_SUBSPACE_SWEEPS):
        Q = np.linalg.qr(G @ GQ)[0]
        GQ = G @ Q
        theta, Z = np.linalg.eigh(Q.T @ GQ)
        theta, Z = theta[::-1], Z[:, ::-1]
        V = Q @ Z
        R = GQ @ Z - V * theta
        r2 = np.einsum("ij,ij->j", R, R)
        tol = _SUBSPACE_TOL * theta[0]
        if np.all(r2[:m] <= tol * tol):
            a = np.max(theta[m:], initial=0.0)
            d = np.sqrt(max(norm2 - theta @ theta - 2.0 * r2.sum(), 0.0) + slack)
            bound = (0.5 * (a + d) + np.hypot(0.5 * (a - d), np.sqrt(r2[m:].sum()))
                     + np.sqrt(r2[:m].sum()))
            if bound <= theta[m - 1] + tol:
                return theta[:m], V[:, :m]
    return None


def snapshot_spectrum(grid: GridSpec, stack: np.ndarray, m: int | None = None,
                      start: np.ndarray | None = None, *, out=None) -> EigenSystem:
    """Spectrum of the covariance (1/T) sum_t w_t (x) w_t of a stack of functions.

    `stack` holds the values of w_1..w_T as a (T, n) array. The eigenpairs
    come from `eigh` of the smaller Gram matrix of X = stack diag(sqrt(w)).
    When T <= n that is the T-by-T matrix X X^T (the method of snapshots):
    its eigenvalues mu_k give lambda_k = mu_k / T, and the normalized columns
    of X^T U are the eigenvectors of X^T X. When T > n it is X^T X itself.
    Eigenvectors mapped back through W^{-1/2} are the quadrature-orthonormal
    eigenfunctions, oriented as in :func:`eigh_operator`. The result holds
    all min(T, n) eigenvalues in descending order (every other eigenvalue of
    the covariance is zero) and the eigenfunctions of the leading m of them,
    or of all when m is None. Pairs below the rank cutoff are not accurate,
    only finite and of unit norm.

    `start`, a (b, n) array with b >= m, warm-starts a truncated solve: its
    rows span a guess of the leading eigenvectors of X^T X, such as a nearby
    stack's leading eigenfunctions times sqrt(weights). The leading m pairs
    then come from a block subspace iteration from X start^T (T <= n) or
    start^T (T > n), and the result holds only those m eigenvalues. If those
    are not certified within a few sweeps, the result is the unstarted one.

    `out`, a buffer shaped like `stack`, takes X instead of a new array.
    """
    sqrt_w = np.sqrt(grid.weights)
    X = np.multiply(stack, sqrt_w, out=out)
    T, n = X.shape
    if start is not None and (m is None or len(start) < m):
        raise ValueError(f"a start needs m <= {len(start)} rows, got m={m}")
    G = X @ X.T if T <= n else X.T @ X
    pairs = None if start is None else _leading_gram_pairs(
        G, X @ start.T if T <= n else start.T, m)
    if pairs is None:
        mu, U = np.linalg.eigh(G)
        mu, U = mu[::-1], U[:, ::-1][:, :m]
    else:
        mu, U = pairs
    vecs = U
    if T <= n:
        vecs = X.T @ U
        norms = np.linalg.norm(vecs, axis=0)
        # an exact null direction of X maps to zero; any unit vector will do
        vecs[:, norms == 0.0] = 1.0
        vecs /= np.where(norms == 0.0, np.sqrt(n), norms)
    return EigenSystem(grid=grid, eigenvalues=np.clip(mu, 0.0, None) / T,
                       vectors=_eigenfunctions(vecs.T, sqrt_w))


def _check_density_values(f: GridFunction) -> np.ndarray:
    values = f.values
    floor = -1e-12 * max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    if float(values.min()) < floor:
        raise NegativeDensity(
            f"density has negative values down to {values.min():.3e}"
        )
    return np.clip(values, 0.0, None)


def cdf_from_density(f: GridFunction) -> GridFunction:
    """Cumulative trapezoid integral of a nonnegative density.

    F(a) = 0, F is nondecreasing, and F(b) equals the quadrature integral
    of f (so 1 for a unit-mass density). Roundoff-level negatives in f are
    clipped before integrating.
    """
    values = _check_density_values(f)
    steps = np.diff(f.grid.points) * (values[1:] + values[:-1]) / 2.0
    return GridFunction(f.grid, np.concatenate(([0.0], np.cumsum(steps))))


def quantile(f: GridFunction, p: float) -> float:
    """Quantile of a density: smallest x with F(x) >= p, linearly interpolated.

    Requires 0 < p < 1 and a nonnegative f.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got p={p}")
    cdf = cdf_from_density(f).values
    points = f.grid.points
    if p <= cdf[0]:
        return float(points[0])
    if p >= cdf[-1]:
        return float(points[-1])
    i = int(np.searchsorted(cdf, p, side="left"))
    # cdf[i-1] < p <= cdf[i]; interpolate inside the bracketing cell
    rise = cdf[i] - cdf[i - 1]
    if rise <= 0.0:
        return float(points[i])
    frac = (p - cdf[i - 1]) / rise
    return float(points[i - 1] + frac * (points[i] - points[i - 1]))
