"""Kernel density estimation for panels of repeated observations.

A raw panel holds its observations in one array, in period order. Each
period is turned into a density on the shared grid with an Epanechnikov or
normal kernel and a rule-of-thumb bandwidth, then renormalized so every
estimated density integrates to one over the support (mass beyond the
support is redistributed proportionally rather than reflected).

The Epanechnikov sum at a grid point x covers its window, the run of sorted
observations whose rounded term 1 - u^2 is positive; an empty window sums to
exactly 0. With one anchor c per sample, d = (x - c) / h and y = (X - c) / h,
a window of m observations sums to 0.75 [m (1 - d^2) + 2 d S1 - S2], where S1
and S2 are its sums of y and y^2, read off long-double prefix sums over the
sorted sample: O(N log N + n log N) work for N observations and n grid
points, instead of one term per pair. An a-posteriori roundoff bound per
grid point guards the cancellation in that combination; a sample whose
largest bound exceeds 1e-13 of its largest sum, or every sample where long
double is a plain double, is summed term by term over the same windows.

The normal kernel has no compact support, so every grid point takes every
observation. On the uniform grid the term at c + r * step factors into
exp(-d^2) exp(-2 d e)^r exp(-(r e)^2), with d and e the distance from
anchor c to the observation and the step in units of h sqrt(2). With an
anchor every Bs <= 32 grid points, where Bs e <= 3, a row costs 2 n / Bs exp
calls per observation instead of n, and one multiply and one add per term;
on the study's grid-128 panels Bs = 32, 16 times fewer exp calls, and
`estimate_panel` takes about a third of the term-by-term time. Its sums stay
within 1e-12 of the largest term-by-term sum (about 1e-15 measured on those
panels). A step above 1.5 h sqrt(2), or a support so far from zero that the
stored grid points depart from uniform spacing, is summed term by term.
`estimate_panel` sums consecutive periods together (for the normal kernel,
runs of equal-size periods), each row equal to `kde` of its period.
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


@dataclass(frozen=True, eq=False, init=False)
class RawPanel:
    """Raw observations of T periods, stored once as the read-only 1-d array
    `values`: period t (labels[t]) is values[offsets[t]:offsets[t + 1]]."""

    labels: tuple
    values: np.ndarray
    offsets: np.ndarray

    def __init__(self, labels, blocks):
        labels = tuple(str(x) for x in labels)
        blocks = tuple(np.asarray(b, dtype=np.float64) for b in blocks)
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
        offsets = np.cumsum([0] + [b.size for b in blocks])
        self._set(labels, np.concatenate(blocks), offsets)

    @classmethod
    def _wrap(cls, labels: tuple, values: np.ndarray, offsets: np.ndarray) -> "RawPanel":
        # fast path for arrays the program reads or draws itself: finite 1-d
        # float64 values, nonempty periods under string labels in natural
        # order, kept without a copy or the per-period checks
        obj = object.__new__(cls)
        obj._set(labels, values, offsets)
        return obj

    def _set(self, labels: tuple, values: np.ndarray, offsets: np.ndarray) -> None:
        values.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "offsets", offsets)

    @cached_property
    def blocks(self) -> tuple:
        """Read-only views of the periods' observations, built on first access."""
        bounds = self.offsets.tolist()
        return tuple(self.values[a:b] for a, b in zip(bounds, bounds[1:]))

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)


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
    """Choose a support [a, b] for the density grid from the panel's `values`.

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
    pooled = panel.values
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

# The separable normal sum (see _normal_sums) holds two work arrays of at most
# this many (rows x anchors x observations) elements, 128 KB each
_SEPARABLE_BLOCK = 1 << 14
# Its widest anchor spacing, in grid steps, and its farthest reach from an
# anchor in kernel units: Bs e <= 3 keeps exp(-(d + r e)^2) = A B^r C_r within
# range wherever the term is above roundoff
_MAX_SPACING = 32
_REACH = 3.0
# Largest departure of the grid from uniform spacing, in kernel units, for
# which evaluating at anchor + r * step stays within 1e-12 of the sum at the
# stored points: a term moves by at most 2 |u| times the departure, and
# |u| < 27.3 for every term that does not underflow
_DEPARTURE = 1e-14
# A term whose anchor factor A = exp(-d^2) is subnormal or zero is lost, and
# each such term is below about 1e-240: a row whose sums all lie below this
# times its count may consist of them, so it is summed term by term
_TINY = 1e-200
# exp(-2 d e) is capped here; a factor that large only multiplies an A = 0
_EXP_CAP = 700.0
# Observations per estimate_panel call into the sums, counting the padding
# of periods shorter than the longest, so that the stacked rows stay small:
# with these two blocks a study iteration at T=100, N=500 and grid 128
# allocates most in simulate_far, not here, and the two Epanechnikov prefix
# sums of a call of several periods take at most 1 MB
_PANEL_BLOCK = 1 << 15
# The Epanechnikov moment sums (see _moment_sums) run in long double when it
# has at least a 64-bit mantissa (x86-64 Linux); a row whose roundoff bound
# exceeds _GUARD of its largest sum is summed term by term instead
_LONG_MOMENTS = np.finfo(np.longdouble).nmant >= 63
_EPS = np.finfo(np.float64).eps / 2
_EPS_LONG = float(np.finfo(np.longdouble).eps) / 2
_GUARD = 1e-13


def _epanechnikov_rows(samples, points: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Epanechnikov sums (P, n) of P samples of any sizes with bandwidths h (P,).

    Each grid point's window is the run of sorted observations whose rounded
    term 1 - u^2 is positive, the terms of the sum over all pairs; an empty
    window sums to exactly 0. The sum over a window is read off prefix sums
    of moments (``_moment_sums``). A row whose roundoff bound is too large
    for them, or every row where long double is a plain double, is summed
    term by term (``_gathered_sums``). A row's sums do not depend on the rows
    summed with it.
    """
    sizes = np.array([len(s) for s in samples])
    # the samples sorted side by side, each padded with +inf to the longest
    xs = np.full((sizes.size, int(sizes.max())), np.inf)
    for row, s in zip(xs, samples):
        row[: len(s)] = s
    xs.sort(axis=1)
    lo, hi = _windows(xs, sizes, points, h)
    if _LONG_MOMENTS:
        raw, fits = _moment_sums(xs, sizes, points, h, lo, hi)
    else:
        raw, fits = np.empty((sizes.size, points.size)), np.zeros(sizes.size, dtype=bool)
    for i in np.flatnonzero(~fits).tolist():
        raw[i] = _gathered_sums(xs[i, : sizes[i]], points, h[i], lo[i], hi[i])
    return raw


def _windows(xs: np.ndarray, sizes: np.ndarray, points: np.ndarray, h: np.ndarray) -> tuple:
    # per row and grid point x, the first and one past the last index of the
    # sorted observations with a positive rounded term. An observation
    # outside [x - h, x + h] with rounded ends lies at least h from x, so its
    # rounded |u| >= 1; inside, u falls as X rises and the rounded u^2 grows
    # with |u|, so the terms that round to <= 0 sit at the ends and are cut
    # off there, by bisection where there are any
    n, width = points.size, xs.shape[1]
    lo = np.empty((sizes.size, n), dtype=np.intp)
    hi = np.empty_like(lo)
    for i, (size, b) in enumerate(zip(sizes.tolist(), h.tolist())):
        lo[i] = np.searchsorted(xs[i, :size], points - b, side="left")
        hi[i] = np.searchsorted(xs[i, :size], points + b, side="right")
    flat = xs.ravel()

    def zero(pair, idx, side):
        # the rounded term of pair (row, point) = divmod(pair, n) at
        # observation idx of the row is <= 0, with the observation below
        # the point (side 1) or above it (side -1)
        row = pair // n
        u = (points[pair - row * n] - flat[row * width + idx]) / h[row]
        return (1.0 - u * u <= 0.0) & (u * side > 0.0)

    lo_, hi_ = lo.ravel(), hi.ravel()
    pairs = np.flatnonzero(lo_ < hi_)
    cut = pairs[zero(pairs, lo_[pairs], 1.0)]
    lo_[cut] = _first(lambda p, i: ~zero(p, i, 1.0), cut, lo_[cut] + 1, hi_[cut])
    pairs = pairs[lo_[pairs] < hi_[pairs]]
    cut = pairs[zero(pairs, hi_[pairs] - 1, -1.0)]
    hi_[cut] = _first(lambda p, i: zero(p, i, -1.0), cut, lo_[cut], hi_[cut] - 1)
    return lo, hi


def _first(pred, pairs, start, stop):
    # per pair, the first index in [start, stop) at which the monotone
    # pred(pairs, index) holds, or stop, by bisection
    while True:
        open_ = np.flatnonzero(start < stop)
        if not open_.size:
            return start
        mid = (start[open_] + stop[open_]) // 2
        hit = pred(pairs[open_], mid)
        stop[open_[hit]] = mid[hit]
        start[open_[~hit]] = mid[~hit] + 1


def _moment_sums(xs, sizes, points, h, lo, hi) -> tuple:
    # With an anchor c, d = (x - c) / h and y = (X - c) / h, a window's terms
    # sum to m (1 - d^2) + 2 d S1 - S2 for its count m and its sums S1, S2 of
    # y and y^2, differences of long-double prefix sums C1, C2 along the row.
    # Returns the sums and whether each row's roundoff bound is within
    # _GUARD of its largest sum
    rows = np.arange(sizes.size)
    # the observations that some window holds, and their median as anchor:
    # y <= 0 before it and y >= 0 after it, so the prefix sums C1 of y are
    # largest in size at the anchor or at the end
    a, b = lo.min(axis=1), hi.max(axis=1)
    mid = np.minimum(a + (b - a) // 2, sizes - 1)
    c = xs[rows, mid][:, None]
    held = np.arange(xs.shape[1]) - a[:, None]
    held = (held >= 0) & (held < (b - a)[:, None])
    m = hi - lo
    at = rows[:, None]
    # a row whose y or d overflows (h far below the spread of its window
    # ends) gets an infinite or NaN bound, which fails the guard
    with np.errstate(over="ignore", invalid="ignore"):
        y = ((np.where(held, xs, c) - c) / h[:, None]).astype(np.longdouble)
        c1 = np.zeros((sizes.size, xs.shape[1] + 1), dtype=np.longdouble)
        c2 = np.zeros_like(c1)
        np.cumsum(y, axis=1, out=c1[:, 1:])
        np.cumsum(y * y, axis=1, out=c2[:, 1:])
        d = (points.astype(np.longdouble) - c) / h[:, None]
        sums = m * (1.0 - d * d) + (d + d) * (c1[at, hi] - c1[at, lo]) - (c2[at, hi] - c2[at, lo])
        sums = np.maximum(sums.astype(np.float64), 0.0)
        # a posteriori bound on the error against the exact sum: the float64
        # rounding of y (2 eps |y|) moves a term by at most 4 eps |y| <=
        # 4 eps (|d| + 1), about as much as the term-by-term sum's own
        # rounding of u moves it, so rows whose terms are all that small go
        # to the gather. A difference of prefix sums carries only the
        # roundings of the m additions between its ends, each at most eps_ld
        # times a partial sum; with the combination's own roundings the
        # long-double part stays below
        # (m + 10) eps_ld (m (1 + d^2) + 2 |d| max|C1| + C2[N])
        dd = np.abs(d.astype(np.float64))
        c1_max = np.maximum(-c1[rows, mid], np.abs(c1[:, -1])).astype(np.float64)[:, None]
        bound = 4.0 * _EPS * m * (dd + 1.0) + (m + 10.0) * _EPS_LONG * (
            m * (1.0 + dd * dd) + 2.0 * c1_max * dd + c2[:, -1:].astype(np.float64))
    bound[m == 0] = 0.0
    return 0.75 * sums, bound.max(axis=1) <= _GUARD * sums.max(axis=1)


def _gathered_sums(xs, points, h, lo, hi):
    # the windows' terms gathered and summed one by one; whole rows go in
    # blocks of at most _KDE_BLOCK terms (or one longer row), so the sums do
    # not depend on the block size
    sizes = hi - lo
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


def _anchor_spacings(points: np.ndarray, scale: np.ndarray) -> tuple:
    """Anchor spacing Bs per row of the separable normal sum, and the grid step.

    Bs is the largest power of two up to ``_MAX_SPACING`` with Bs e <= _REACH,
    where e is the step in kernel units, and at which the stored grid points
    depart from anchor + r * step by at most ``_DEPARTURE`` in kernel units
    (they depart more on a support far from zero); Bs = 1 where none is.
    """
    step = (points[-1] - points[0]) / (points.size - 1)
    e = step * scale
    spacing = np.ones(scale.size, dtype=np.intp)
    bs = _MAX_SPACING
    while bs > 1:
        rows = (spacing == 1) & (bs * e <= _REACH)
        if rows.any():
            offset = np.arange(points.size) % bs
            departure = np.abs(points - points[np.arange(points.size) - offset] - offset * step).max()
            spacing[rows & (departure * scale <= _DEPARTURE)] = bs
        bs //= 2
    return spacing, step


def _pair_sums(obs: np.ndarray, points: np.ndarray, scale) -> np.ndarray:
    # sum of exp(-((x - X_j) scale)^2) at every grid point x, term by term, in
    # one (n, block) buffer of at most _KDE_BLOCK terms filled in place
    step = max(1, _KDE_BLOCK // points.size)
    buf = np.empty((points.size, min(step, obs.size)))
    raw = np.zeros(points.size)
    for start in range(0, obs.size, step):
        terms = buf[:, : min(step, obs.size - start)]
        np.subtract.outer(points, obs[start : start + step], out=terms)
        terms *= scale
        np.square(terms, out=terms)
        np.negative(terms, out=terms)
        np.exp(terms, out=terms)
        raw += terms.sum(axis=1)
    return raw


def _separable_sums(obs: np.ndarray, points: np.ndarray, scale: np.ndarray,
                    bs: int, step: float) -> np.ndarray:
    # the sums of _pair_sums for rows obs (p, N), evaluated at c + r * step
    # for the anchors c = points[::bs] and offsets r < bs. With d = (c - X)
    # scale and e = step * scale, exp(-(d + r e)^2) = A B^r C_r for
    # A = exp(-d^2), B = exp(-2 d e) and C_r = exp(-(r e)^2): V starts at A
    # and is multiplied by B once per offset, and its sum over X after each
    # step, times C_r, is the sum at offset r
    anchors = points[::bs]
    e = step * scale
    # rows come in chunks of at most _SEPARABLE_BLOCK elements, or one at a
    # time with pieces of its observations, so a row's pieces and the order
    # of its sums do not depend on the rows beside it
    piece = max(1, _SEPARABLE_BLOCK // (len(obs) * anchors.size))
    sums = np.zeros((bs, len(obs), anchors.size))
    part = np.empty_like(sums)
    for start in range(0, obs.shape[1], piece):
        v = np.subtract(anchors[:, None], obs[:, None, start : start + piece])
        v *= scale[:, None, None]
        b = v * (-2.0 * e)[:, None, None]
        np.square(v, out=v)
        np.negative(v, out=v)
        np.exp(v, out=v)
        # an overflowing B only meets an underflowed A: cap it, and V stays 0
        np.minimum(b, _EXP_CAP, out=b)
        np.exp(b, out=b)
        np.add.reduce(v, axis=2, out=part[0])
        for r in range(1, bs):
            v *= b
            np.add.reduce(v, axis=2, out=part[r])
        sums += part
    sums *= np.exp(-np.square(np.arange(bs)[:, None] * e))[:, :, None]
    return sums.transpose(1, 2, 0).reshape(len(obs), -1)[:, : points.size]


def _normal_sums(obs: np.ndarray, points: np.ndarray, h) -> np.ndarray:
    """Sum exp(-u^2 / 2) / sqrt(2 pi), u = (x - X_j) / h, at every grid point x.

    ``obs`` is one sample (N,) with a float ``h``, or rows (P, N) of samples
    with bandwidths ``h`` (P,), and the sums have shape (n,) or (P, n). Each
    row is summed in separable form with its own anchor spacing Bs (see
    ``_anchor_spacings``), at 2 n / Bs exp calls per observation instead of n,
    or term by term where Bs = 1. A row's sums do not depend on the rows
    summed with it.
    """
    rows = np.atleast_2d(obs)
    # scale before squaring: 0.5 / h**2 overflows for h below about 1e-154
    scale = np.sqrt(0.5) / np.atleast_1d(np.asarray(h, dtype=np.float64))
    spacing, step = _anchor_spacings(points, scale)
    raw = np.empty((len(rows), points.size))
    for bs in sorted(set(spacing.tolist())):
        members = np.flatnonzero(spacing == bs)
        if bs > 1:
            per_chunk = max(1, _SEPARABLE_BLOCK // (-(-points.size // bs) * rows.shape[1]))
            for lo in range(0, members.size, per_chunk):
                chunk = members[lo : lo + per_chunk]
                raw[chunk] = _separable_sums(rows[chunk], points, scale[chunk], bs, step)
            members = members[raw[members].max(axis=1) < _TINY * rows.shape[1]]
        for i in members.tolist():
            raw[i] = _pair_sums(rows[i], points, scale[i])
    raw /= np.sqrt(2.0 * np.pi)
    return raw if np.ndim(obs) > 1 else raw[0]


def _densities(samples, grid: GridSpec, kernel: str, h: np.ndarray,
               labels=None) -> np.ndarray:
    """Unit-mass estimates (P, n) from P samples with bandwidths h (P,): the
    rows of a (P, N) array for the normal kernel, of any sizes for the
    Epanechnikov kernel.

    Raises DegenerateSample at the first row that carries no mass inside the
    support, naming its period when ``labels`` are given.
    """
    if kernel == "normal":
        raw = _normal_sums(samples, grid.points, h)
    else:
        raw = _epanechnikov_rows(samples, grid.points, h)
    raw /= (np.array([len(s) for s in samples]) * h)[:, None]
    for i, row in enumerate(raw):
        mass = float(np.dot(grid.weights, row))
        if mass <= 1e-12:
            period = "" if labels is None else f"period {labels[i]!r}: "
            raise DegenerateSample(
                f"{period}estimated density carries no mass inside the support; "
                "observations lie outside [a, b]"
            )
        row /= mass
    return raw


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
    N n pairs, found per grid point by binary search in the sorted sample,
    and is read off long-double prefix sums of the window's moments; where
    their roundoff bound exceeds 1e-13 of the largest sum it is summed term
    by term (see ``_epanechnikov_rows``). The normal kernel is positive
    everywhere, so its sum takes all N n terms; around anchors every Bs <= 32
    grid points they factor into 2 n / Bs exponentials per observation (see
    ``_normal_sums``).

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
    return GridFunction(grid, _densities(obs[None], grid, kernel, np.array([h]))[0])


def estimate_panel(
    panel: RawPanel, grid: GridSpec, kernel: str = "epanechnikov"
) -> DensityPanel:
    """Estimate one density per period with per-period bandwidths.

    Each period uses its own unbiased sample standard deviation and count in
    the rule-of-thumb bandwidth. Consecutive periods are estimated together
    (for the normal kernel, runs of equal-size periods), each row equal to
    ``kde`` of its period. Errors from individual periods are re-raised with
    the period label attached, for the first failing period.
    """
    _check_kernel(kernel)
    values = np.empty((len(panel), grid.n))
    sizes = panel.counts.tolist()
    start = 0
    while start < len(panel):
        # the next periods, at most _PANEL_BLOCK observations when padded to
        # the longest; for the normal kernel a run of equal-size periods
        stop, width = start + 1, sizes[start]
        while stop < len(panel) and (kernel == "epanechnikov" or sizes[stop] == width) and (
                (stop + 1 - start) * max(width, sizes[stop]) <= _PANEL_BLOCK):
            width = max(width, sizes[stop])
            stop += 1
        labels = panel.labels[start:stop]
        if kernel == "normal":
            obs = panel.values[panel.offsets[start] : panel.offsets[stop]].reshape(-1, width)
            sigma = np.std(obs, axis=1, ddof=1) if width > 1 else np.zeros(len(obs))
        else:
            obs = panel.blocks[start:stop]
            sigma = np.array([np.std(b, ddof=1) if b.size > 1 else 0.0 for b in obs])
        h = np.empty(len(obs))
        for i, s in enumerate(sigma.tolist()):
            try:
                h[i] = bandwidth(s, sizes[start + i], kernel)
                if h[i] <= 0.0:
                    raise BandwidthNonpositive(f"need h > 0, got {h[i]}")
            except (TooFewObservations, DegenerateSample, BandwidthNonpositive) as exc:
                # an earlier period of the run that fails fails first
                if i:
                    _densities(obs[:i], grid, kernel, h[:i], labels)
                raise type(exc)(f"period {labels[i]!r}: {exc}") from exc
        values[start:stop] = _densities(obs, grid, kernel, h, labels)
        start = stop
    return DensityPanel._wrap(grid, values, panel.labels)
