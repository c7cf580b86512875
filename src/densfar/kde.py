"""Kernel density estimation for panels of repeated observations.

Raw data come as blocks of observations per period. Each block is turned
into a density on the shared grid with an Epanechnikov or normal kernel and
a rule-of-thumb bandwidth, then renormalized so every estimated density
integrates to one over the support (mass beyond the support is redistributed
proportionally rather than reflected). The Epanechnikov sum visits only the
observations within one bandwidth of each grid point, at a cost of
O(N log N + sum of window sizes) instead of O(N n) for N observations and n
grid points. The normal kernel has no compact support, so every grid point
sums over every observation, in one reused buffer of blocked terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BandwidthNonpositive,
    DegenerateSample,
    TooFewObservations,
)
from .grid import GridFunction, GridSpec

__all__ = [
    "RawPanel",
    "DensityPanel",
    "KERNELS",
    "natural_sort_key",
    "select_support",
    "bandwidth",
    "kde",
    "estimate_panel",
]

KERNELS = ("epanechnikov", "normal")

# Rule-of-thumb bandwidth constants, h = C * sigma * n^(-1/5).
_BANDWIDTH_CONSTANT = {"epanechnikov": 2.3449, "normal": 1.06}

_NUM_RE = re.compile(r"(\d+)")


def natural_sort_key(label: str):
    """Sort key ordering strings lexicographically with numeric awareness.

    Digit runs (the odd pieces of the split) compare as integers, so "2"
    sorts before "10".
    """
    parts = _NUM_RE.split(str(label))
    return tuple(int(p) if i % 2 else p for i, p in enumerate(parts))


def _check_kernel(kernel: str) -> str:
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


@dataclass(frozen=True, eq=False)
class RawPanel:
    """Ordered panel of raw observation blocks, one block per period."""

    labels: tuple
    blocks: tuple

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        blocks = tuple(
            np.array(b, dtype=np.float64, copy=True) for b in self.blocks
        )
        if len(labels) != len(blocks):
            raise ValueError("labels and blocks must have equal length")
        if not labels:
            raise ValueError("panel must contain at least one period")
        keys = [natural_sort_key(lab) for lab in labels]
        if any(k2 <= k1 for k1, k2 in zip(keys, keys[1:])):
            raise ValueError("period labels must be strictly increasing")
        for lab, block in zip(labels, blocks):
            if block.ndim != 1 or block.size == 0:
                raise ValueError(f"period {lab!r}: block must be a nonempty 1-d array")
            if not np.all(np.isfinite(block)):
                raise ValueError(f"period {lab!r}: observations must be finite")
            block.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "blocks", blocks)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def counts(self) -> np.ndarray:
        return np.array([b.size for b in self.blocks])

    def pooled(self) -> np.ndarray:
        """All observations concatenated in period order."""
        return np.concatenate(self.blocks)


@dataclass(frozen=True, eq=False, init=False)
class DensityPanel:
    """Time series of densities on a shared grid, stored once as the read-only
    (T, n) array `values` (row t is period labels[t]); `densities` is a tuple
    of GridFunction views of its rows, built on first access."""

    grid: GridSpec
    values: np.ndarray
    labels: tuple

    def __init__(self, grid: GridSpec, densities, labels):
        densities = tuple(densities)
        labels = tuple(str(x) for x in labels)
        if len(densities) != len(labels):
            raise ValueError("densities and labels must have equal length")
        if not densities:
            raise ValueError("panel must contain at least one period")
        for lab, f in zip(labels, densities):
            if f.grid != grid:
                raise ValueError(f"period {lab!r}: density is on a different grid")
            floor = -1e-12 * max(1.0, float(np.max(np.abs(f.values))))
            if float(f.values.min()) < floor:
                raise ValueError(f"period {lab!r}: density has negative values")
            mass = float(np.dot(grid.weights, f.values))
            if abs(mass - 1.0) > 1e-8:
                raise ValueError(
                    f"period {lab!r}: density integrates to {mass!r}, not 1"
                )
        self._set(grid, np.stack([f.values for f in densities]), labels)

    @classmethod
    def _wrap(cls, grid: GridSpec, values: np.ndarray, labels) -> "DensityPanel":
        # fast path for a (T, n) array of densities valid by construction
        # (clipped and renormalized on the grid); skips the per-period checks
        obj = object.__new__(cls)
        obj._set(grid, values, tuple(labels))
        return obj

    def _set(self, grid: GridSpec, values: np.ndarray, labels: tuple) -> None:
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @cached_property
    def densities(self) -> tuple:
        return tuple(GridFunction._wrap(self.grid, row) for row in self.values)

    def __len__(self) -> int:
        return len(self.values)

    def head(self, t: int) -> "DensityPanel":
        """Sub-panel of the first t periods, sharing this panel's array."""
        if not 1 <= t <= len(self):
            raise ValueError(f"need 1 <= t <= {len(self)}, got {t}")
        return DensityPanel._wrap(self.grid, self.values[:t], self.labels[:t])


def period_labels(m: int) -> list:
    """Labels "1".."m", zero-padded to a common width so they sort as text."""
    width = len(str(m))
    return [str(i + 1).zfill(width) for i in range(m)]


def select_support(panel: RawPanel, coverage: float = 0.999) -> tuple:
    """Choose a support [a, b] for the density grid from pooled observations.

    Takes the symmetric-in-probability empirical quantile interval of the
    pooled sample at levels (1-coverage)/2 and 1-(1-coverage)/2, then expands
    it outward by one rule-of-thumb (Epanechnikov) bandwidth of the pooled
    sample on each side so kernel mass near the endpoints is not clipped.

    Raises
    ------
    TooFewObservations
        Fewer than 100 pooled observations.
    DegenerateSample
        Pooled sample has zero variance.
    """
    if not 0.5 < coverage < 1.0:
        raise ValueError(f"need 0.5 < coverage < 1, got {coverage}")
    pooled = panel.pooled()
    if pooled.size < 100:
        raise TooFewObservations(
            f"support selection needs >= 100 pooled observations, got {pooled.size}"
        )
    sigma = float(np.std(pooled, ddof=1))
    if sigma <= 0.0:
        raise DegenerateSample("pooled sample has zero variance")
    tail = (1.0 - coverage) / 2.0
    lo, hi = np.quantile(pooled, [tail, 1.0 - tail])
    pad = bandwidth(sigma, pooled.size, "epanechnikov")
    return float(lo - pad), float(hi + pad)


def bandwidth(sigma_hat: float, n: int, kernel: str = "epanechnikov") -> float:
    """Rule-of-thumb bandwidth C * sigma * n^(-1/5).

    C = 2.3449 for the Epanechnikov kernel and 1.06 (Silverman) for the
    normal kernel.
    """
    _check_kernel(kernel)
    if n < 2:
        raise TooFewObservations(f"bandwidth needs n >= 2 observations, got {n}")
    if sigma_hat <= 0.0:
        raise DegenerateSample(f"need sigma_hat > 0, got {sigma_hat}")
    return _BANDWIDTH_CONSTANT[kernel] * float(sigma_hat) * float(n) ** (-0.2)


# Evaluate at most this many kernel terms at once (grid points x observations).
_KDE_BLOCK = 1 << 22


def _epanechnikov_sums(obs: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    """Sum 0.75 (1 - u^2)+, u = (x - X_j) / h, at every grid point x.

    Each point visits only its window [x - h, x + h] with rounded ends: an
    observation outside lies at least h from x, so its rounded |u| >= 1 and
    its term is zero. Whole rows go in blocks of at most ``_KDE_BLOCK`` terms
    (or one longer row), so the sums do not depend on the block size.
    """
    xs = np.sort(obs)
    lo = np.searchsorted(xs, points - h, side="left")
    sizes = np.searchsorted(xs, points + h, side="right") - lo
    ends = np.cumsum(sizes)
    firsts = ends - sizes
    raw = np.zeros(points.size)
    start = 0
    while start < points.size:
        # as many whole rows as fit in one block, and at least one
        stop = int(np.searchsorted(ends, firsts[start] + _KDE_BLOCK, side="right"))
        stop = max(stop, start + 1)
        counts = sizes[start:stop]
        rows = np.repeat(np.arange(stop - start), counts)
        # a term's observation index is its row's window start plus its offset
        shift = np.repeat(lo[start:stop] - firsts[start:stop], counts)
        idx = np.arange(firsts[start], ends[stop - 1]) + shift
        u = (points[start:stop][rows] - xs[idx]) / h
        terms = np.clip(1.0 - u * u, 0.0, None)
        raw[start:stop] = 0.75 * np.bincount(rows, terms, minlength=stop - start)
        start = stop
    return raw


def _normal_sums(obs: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    """Sum exp(-u^2 / 2) / sqrt(2 pi), u = (x - X_j) / h, at every grid point x,
    in one (n, block) buffer of at most ``_KDE_BLOCK`` terms filled in place."""
    step = max(1, _KDE_BLOCK // points.size)
    buf = np.empty((points.size, min(step, obs.size)))
    # scale before squaring: 0.5 / h**2 overflows for h below about 1e-154
    scale = np.sqrt(0.5) / h
    raw = np.zeros(points.size)
    for start in range(0, obs.size, step):
        terms = buf[:, : min(step, obs.size - start)]
        np.subtract.outer(points, obs[start : start + step], out=terms)
        terms *= scale
        np.square(terms, out=terms)
        np.negative(terms, out=terms)
        np.exp(terms, out=terms)
        raw += terms.sum(axis=1)
    return raw / np.sqrt(2.0 * np.pi)


def kde(
    observations,
    grid: GridSpec,
    kernel: str = "epanechnikov",
    h: float | None = None,
) -> GridFunction:
    """Kernel density estimate on the grid, renormalized to unit mass.

    f(x_i) = (1/(N h)) sum_j k((x_i - X_j) / h) with k the Epanechnikov
    kernel 0.75(1-u^2)+ or the standard normal pdf, then divided by its
    quadrature integral so <1, f> = 1 exactly.

    The Epanechnikov sum holds exactly the nonzero terms of the sum over all
    N n pairs, found per grid point by binary search in the sorted sample.
    The normal kernel is positive everywhere, so its sum takes all N n
    terms, computed block by block in place in one reused buffer.

    Parameters
    ----------
    h : float, optional
        Bandwidth. Defaults to the rule-of-thumb value from the sample
        standard deviation.
    """
    _check_kernel(kernel)
    obs = np.asarray(observations, dtype=np.float64).ravel()
    if obs.size < 2:
        raise TooFewObservations(f"kde needs >= 2 observations, got {obs.size}")
    if not np.all(np.isfinite(obs)):
        raise ValueError("observations must be finite")
    if h is None:
        h = bandwidth(float(np.std(obs, ddof=1)), obs.size, kernel)
    h = float(h)
    if h <= 0.0:
        raise BandwidthNonpositive(f"need h > 0, got {h}")

    sums = _epanechnikov_sums if kernel == "epanechnikov" else _normal_sums
    raw = sums(obs, grid.points, h) / (obs.size * h)

    mass = float(np.dot(grid.weights, raw))
    if mass <= 1e-12:
        raise DegenerateSample(
            "estimated density carries no mass inside the support; "
            "observations lie outside [a, b]"
        )
    return GridFunction(grid, raw / mass)


def estimate_panel(
    panel: RawPanel, grid: GridSpec, kernel: str = "epanechnikov"
) -> DensityPanel:
    """Estimate one density per period with per-period bandwidths.

    Each period uses its own unbiased sample standard deviation and count in
    the rule-of-thumb bandwidth. Errors from individual periods are re-raised
    with the period label attached.
    """
    _check_kernel(kernel)
    values = np.empty((len(panel), grid.n))
    for t, (label, block) in enumerate(zip(panel.labels, panel.blocks)):
        try:
            sigma = float(np.std(block, ddof=1)) if block.size > 1 else 0.0
            h = bandwidth(sigma, block.size, kernel)
            values[t] = kde(block, grid, kernel, h).values
        except (TooFewObservations, DegenerateSample, BandwidthNonpositive) as exc:
            raise type(exc)(f"period {label!r}: {exc}") from exc
    return DensityPanel._wrap(grid, values, panel.labels)
