"""Simulation machinery: sampling from grid densities, generating density
panels from a known autoregression, and the Monte Carlo study harness.

A generator holds a transition operator, a mean density, and a noise source
(a pool of residual functions resampled with replacement, or a Gaussian law
with a given covariance operator). Panels are simulated by iterating the
autoregression from zero through a burn-in, then converting the kept states
to densities. The study harness re-estimates densities from finite samples
drawn by rejection sampling and compares the autoregressive forecast with
the AVE/LAST benchmarks against the true simulated density.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from statistics import median

import numpy as np

from ._threads import parallel_map
from .errors import (
    DegenerateDensity,
    DensfarError,
    TooManyDropped,
    UnstableGenerator,
)
from .estimation import FarModel, fit
from .forecast import (
    MEASURES,
    PREDICTORS,
    error_metrics,
    forecast_one_step,
    predictor_ave,
    predictor_last,
    to_density,
    _to_densities,
)
from .grid import (
    GridFunction,
    GridSpec,
    OperatorRep,
    eigh_operator,
    norm,
    _check_density_values,
    _readonly,
    _require_same_grid,
    _weighted_factors,
)
from .kde import DensityPanel, RawPanel, _check_kernel, estimate_panel, period_labels

__all__ = [
    "FarGenerator",
    "StudyConfig",
    "StudyResult",
    "make_cosine_generator",
    "acceptance_sample",
    "simulate_far",
    "run_study",
]

# Total simulated length when no burn-in is given: the kept T+1 periods are
# the tail of a 1000-period run.
DEFAULT_TOTAL_PERIODS = 1000

# Study sizes beyond these end as a config error rather than as an allocation
# failure: a panel holds (burn_in + T + 1) grid rows of states and T x N draws
MAX_BURN_IN = 10_000
MAX_STUDY_T = 10_000
MAX_STUDY_N = 1_000_000
MAX_STUDY_DRAWS = 100_000_000
MAX_ITERATIONS = 100_000

_STABILITY_FACTOR = 1e6

# Rows per block when simulate_far turns scores into states, so that the build
# needs 64 KB at n = 128 and not a second (m, n) array
_STATE_BLOCK = 64

# Scores step by a doubling scan below this rank and one period at a time from
# it, where the scan's (rows, r) products cost more than the per-period loop
_LOOP_RANK = 25


@dataclass(frozen=True, eq=False)
class FarGenerator:
    """Data-generating process for density panels.

    Its `grid` is the transition's, which the mean and the noise share. Noise
    comes from `residual_pool`, a read-only (size, n) array of residuals drawn
    i.i.d. with replacement after centering, when present, otherwise from a
    mean-zero Gaussian with covariance `noise_covariance`.
    """

    transition: OperatorRep
    mean_density: GridFunction
    residual_pool: np.ndarray | None = None
    noise_covariance: OperatorRep | None = None

    def __post_init__(self):
        grid = _require_same_grid(self.transition, self.mean_density)
        if self.residual_pool is None and self.noise_covariance is None:
            raise ValueError("generator needs a residual pool or a noise covariance")
        if self.residual_pool is not None:
            pool = np.asarray(self.residual_pool, dtype=np.float64)
            if (pool.ndim != 2 or pool.shape[1] != grid.n or not len(pool)
                    or not np.all(np.isfinite(pool))):
                raise ValueError(f"residual pool must be a nonempty, finite (size, "
                                 f"{grid.n}) array, got shape {pool.shape}")
            object.__setattr__(self, "residual_pool",
                               _readonly(pool) if pool.flags.writeable else pool)
        if self.noise_covariance is not None:
            _require_same_grid(self.transition, self.noise_covariance)

    @property
    def grid(self) -> GridSpec:
        return self.transition.grid

    @classmethod
    def from_model(cls, model: FarModel) -> "FarGenerator":
        """Generator that mimics a fitted model: its operator, mean, and
        residual pool."""
        return cls(
            transition=model.A_hat,
            mean_density=model.mean_density,
            residual_pool=model.resid,
        )

    def noise_sampler(self):
        """Return draw(rng, m) -> (m, n) array of m noise rows, all from one
        rng call and equal to m successive single-row draws."""
        if self.residual_pool is not None:
            pool = self._centred_pool

            def draw(rng, m):
                return pool[rng.integers(0, len(pool), size=m)]

            return draw
        factor = self._noise_factor

        def draw(rng, m):
            # one mat-vec per row: a single z @ factor.T rounds differently,
            # and it measured about 0.3 MB more peak RSS on the perfbench study
            z = rng.standard_normal((m, factor.shape[1]))
            return np.matmul(factor, z[:, :, None])[:, :, 0]

        return draw

    @cached_property
    def _centred_pool(self) -> np.ndarray:
        pool = self.residual_pool - self.residual_pool.mean(axis=0)
        pool.setflags(write=False)
        return pool

    @cached_property
    def _noise_factor(self) -> np.ndarray:
        # (n, r) factor F with F F^T = noise covariance. A covariance held as
        # left @ right / d with left = right^T, as fit holds Sigma_hat = resid^T
        # resid / T, gives F = left / sqrt(d) exactly; any other covariance
        # keeps the r eigenpairs above roundoff, and r = 0 draws zeros
        factors = self.noise_covariance._factors
        if factors is not None and np.array_equal(factors[0], factors[1].T):
            return factors[0] / np.sqrt(factors[2])
        eigen = eigh_operator(self.noise_covariance)
        lam = eigen.eigenvalues
        keep = lam > 1e-14 * (lam[0] if len(lam) else 0.0)
        return eigen.vectors[keep].T * np.sqrt(lam[keep])


def default_mean_density(grid: GridSpec) -> GridFunction:
    """Smooth unimodal density bounded away from zero on the support.

    A bell curve centered on the support mixed with a 15% uniform floor,
    normalized on the grid; the floor keeps moderate fluctuations of the
    simulated state from clipping at zero.
    """
    mid = 0.5 * (grid.a + grid.b)
    width = (grid.b - grid.a) / 6.0
    bell = np.exp(-0.5 * ((grid.points - mid) / width) ** 2)
    bell /= float(np.dot(grid.weights, bell))
    uniform = 1.0 / (grid.b - grid.a)
    raw = 0.85 * bell + 0.15 * uniform
    return GridFunction(grid, raw / float(np.dot(grid.weights, raw)))


def cosine_modes(grid: GridSpec, m: int) -> list:
    """First m zero-integral cosine harmonics, quadrature-orthonormalized."""
    out = []
    s = (grid.points - grid.a) / (grid.b - grid.a)
    for k in range(1, m + 1):
        vals = np.cos(k * np.pi * s)
        # already orthogonal under trapezoid weights; clean roundoff anyway
        for u in out:
            vals = vals - float(np.dot(grid.weights * u.values, vals)) * u.values
        vals = vals - float(np.dot(grid.weights, vals)) / (grid.b - grid.a)
        f = GridFunction(grid, vals)
        out.append(f * (1.0 / norm(f)))
    return out


def _reals(name: str, values) -> np.ndarray:
    # real numbers only, as GridSpec takes a and b: no str, bytes or bool
    values = list(values)
    for x in values:
        if not isinstance(x, numbers.Real) or isinstance(x, bool):
            raise TypeError(f"{name} must be real numbers, got {x!r}")
    return np.asarray(values, dtype=np.float64)


def make_cosine_generator(
    grid: GridSpec,
    strengths,
    noise_sds,
    mean: GridFunction | None = None,
) -> FarGenerator:
    """Synthetic generator with cosine-harmonic eigenstructure.

    The transition operator is sum_k strengths[k] phi_k (x) phi_k and the
    Gaussian noise covariance sum_k noise_sds[k]^2 phi_k (x) phi_k over the
    orthonormal cosine modes phi_k, so the process reduces to independent
    scalar AR(1) components with known coefficients.
    """
    strengths, noise_sds = _reals("strengths", strengths), _reals("noise_sds", noise_sds)
    if strengths.shape != noise_sds.shape:
        raise ValueError("strengths and noise_sds must have equal length")
    if not np.all(np.isfinite(strengths)):
        raise ValueError("strengths must be finite")
    modes = np.reshape([phi.values for phi in cosine_modes(grid, len(strengths))],
                       (len(strengths), grid.n))
    s_kernel = np.zeros((grid.n, grid.n))
    for sd, phi in zip(noise_sds, modes):
        s_kernel += sd * sd * np.outer(phi, phi)
    return FarGenerator(
        transition=OperatorRep._factored(grid, modes.T * strengths, modes, 1),
        mean_density=mean if mean is not None else default_mean_density(grid),
        noise_covariance=OperatorRep(grid, s_kernel),
    )


# Proposals tested in one vectorized pass: about 4k, so that its work arrays,
# about 0.3 MB, stay well below the 1 MB noise array of a 1000-period path
_SAMPLE_BLOCK = 1 << 12


def _grid_interpolator(grid: GridSpec, values: np.ndarray):
    """Return interp(x, row), equal bit for bit to
    np.interp(x, grid.points, values[row]) for all x at once; each row of
    `values` is a finite function on the grid, and `row` picks one per x."""
    points, n = grid.points, grid.n
    # numpy's slopes, (y[j+1] - y[j]) / (x[j+1] - x[j]), and 0 past the end
    slopes = np.zeros(values.shape)
    np.divide(np.diff(values, axis=1), np.diff(points), out=slopes[:, :-1])
    flat_values, flat_slopes = values.reshape(-1), slopes.reshape(-1)

    def interp(x, row):
        x = np.clip(x, points[0], points[-1])
        # the index a binary search finds: arithmetic on the uniform grid,
        # then one step up or down where rounding put x in the next cell
        j = ((x - points[0]) / grid.h).astype(np.intp)
        np.minimum(j, n - 2, out=j)
        j += points[j + 1] <= x
        j -= points[j] > x
        at = j + np.asarray(row) * n
        out = x - points[j]
        exact = np.flatnonzero(out == 0.0)
        out *= flat_slopes[at]
        out += flat_values[at]
        # at a grid point numpy returns the value itself
        out[exact] = flat_values[at[exact]]
        return out

    return interp


def _row_rng(seed) -> np.random.Generator:
    # a uint32 array gives the SeedSequence pool of the same integers as a
    # tuple, and hashes in about half the time
    words = seed if isinstance(seed, tuple) else (seed,)
    if all(isinstance(x, (int, np.integer)) and 0 <= x < 1 << 32 for x in words):
        seed = np.array(words, dtype=np.uint32)
    return np.random.default_rng(seed)


def _sample_rows(grid: GridSpec, values: np.ndarray, n: int, seeds) -> tuple:
    """Draw n points from each row of `values`, nonnegative densities on the
    grid, by rejection; row i draws from its own `default_rng(seeds[i])`.

    Each round, every row short of n draws a chunk of x, then of u, sized
    from its peak and its shortfall, and a proposal x survives when
    u <= f(x)/f_max. A round tests the chunks of a group of rows in one
    vectorized pass. Returns the (rows, n) draws and each row's proposal
    and acceptance counts.
    """
    f_max = values.max(axis=1)
    if not np.all(f_max > 0.0):
        raise DegenerateDensity("target density has no positive mass")
    # mass/(width*f_max) proposals are accepted on average
    rate = np.maximum(1.0 / ((grid.b - grid.a) * f_max), 1e-3)
    interp = _grid_interpolator(grid, values)
    draws = np.empty((len(values), n))
    filled = np.zeros(len(values), dtype=np.intp)
    proposed = np.zeros(len(values), dtype=np.intp)
    accepted = np.zeros(len(values), dtype=np.intp)

    def chunk_sizes(rows):
        return (np.ceil((n - filled[rows]) / rate[rows] * 1.2) + 16).astype(np.intp)

    # rows per group: as many as keep a first round within _SAMPLE_BLOCK
    per_group = max(1, _SAMPLE_BLOCK // int(chunk_sizes(slice(None)).max()))
    for start in range(0, len(values), per_group):
        members = range(start, min(start + per_group, len(values)))
        rngs = {i: _row_rng(seeds[i]) for i in members}
        while rngs:
            rows = np.fromiter(rngs, dtype=np.intp, count=len(rngs))
            chunk = chunk_sizes(rows)
            ends = np.cumsum(chunk).tolist()
            spans = list(zip(rows.tolist(), [0] + ends[:-1], ends))
            x, u = np.empty(ends[-1]), np.empty(ends[-1])
            for i, lo, hi in spans:
                x[lo:hi] = rngs[i].uniform(grid.a, grid.b, size=hi - lo)
                u[lo:hi] = rngs[i].uniform(0.0, 1.0, size=hi - lo)
            row = np.repeat(rows, chunk)
            keep = u <= interp(x, row) / f_max[row]
            for i, lo, hi in spans:
                kept = x[lo:hi][keep[lo:hi]]
                take = min(len(kept), n - filled[i])
                draws[i, filled[i] : filled[i] + take] = kept[:take]
                filled[i] += take
                proposed[i] += hi - lo
                accepted[i] += len(kept)
                if filled[i] == n:
                    del rngs[i]
    return draws, proposed, accepted


def acceptance_sample(f: GridFunction, n: int, seed) -> np.ndarray:
    """Draw n observations from a grid density by rejection sampling.

    Proposals are uniform on the support; a proposal x survives when
    u <= f(x)/f_max with f evaluated by linear interpolation between grid
    points and u uniform on [0, 1]. Deterministic for a given seed.

    Raises
    ------
    DegenerateDensity
        If the density has no positive values.
    ValueError
        If n < 1 or the seed (or an entry of a seed tuple) is negative.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if np.any(np.asarray(seed) < 0):
        raise ValueError(f"need a nonnegative seed, got {seed}")
    draws, _, _ = _sample_rows(f.grid, _check_density_values(f)[None], n, [seed])
    return draws[0]


# an exploding state overflows to inf or NaN quietly and fails the norm check
@np.errstate(over="ignore", invalid="ignore")
def simulate_far(
    generator: FarGenerator,
    T: int,
    seed,
    burn_in: int | None = None,
) -> DensityPanel:
    """Simulate T+1 periods of densities from the generator.

    The state starts at zero, runs through `burn_in` discarded periods
    (default: a total simulated length of 1000), and each kept state is
    converted to a density by adding the mean, clipping, and rescaling.
    Period labels are zero-padded integers starting at 1. The recursion
    runs on the r-dim scores R x_t of the transition's weighted factors,
    A diag(w) = L R, by a recursive-doubling scan of about log2(m) products
    when r <= 24 and one period at a time above, and x_t = L R x_{t-1} + e_t
    is built from them.

    Raises
    ------
    UnstableGenerator
        If the running state norm exceeds 1e6 times the mean density norm
        (or is not a number), indicating an unstable transition operator.
    """
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    if burn_in is None:
        burn_in = max(0, DEFAULT_TOTAL_PERIODS - (T + 1))
    if burn_in < 0:
        raise ValueError(f"need burn_in >= 0, got {burn_in}")
    grid = generator.grid
    m = burn_in + T + 1
    # row t holds the noise of period t + 1 and becomes its state in place
    states = generator.noise_sampler()(np.random.default_rng(seed), m)
    left, right = _transition_factors(generator.transition)
    # scores[t] = right @ (state of period t), from the zero state at t = 0:
    # s_t = (right left) s_{t-1} + right e_t
    scores = np.zeros((m, len(right)))
    np.matmul(states[:-1], right.T, out=scores[1:])
    _score_stepper(right @ left)(scores)
    # state of period t + 1 = left @ s_t + e_{t+1}, one mat-vec per row in
    # blocks of rows, with the squared weighted norm of each
    sqrt_w = np.sqrt(grid.weights)
    bound_sq = (_STABILITY_FACTOR * norm(generator.mean_density)) ** 2
    norm_sq = np.empty(m)
    for lo in range(0, m, _STATE_BLOCK):
        block = states[lo : lo + _STATE_BLOCK]
        lift = np.matmul(left, scores[lo : lo + len(block), :, None])[:, :, 0]
        block += lift
        np.multiply(block, sqrt_w, out=lift)
        norm_sq[lo : lo + len(block)] = np.einsum("ij,ij->i", lift, lift)
    bad = np.flatnonzero(~(norm_sq <= bound_sq))
    if bad.size:
        raise UnstableGenerator(
            f"state norm exceeded {_STABILITY_FACTOR:g} x mean norm at period {bad[0] + 1}"
        )
    raw = _to_densities(states[burn_in:], generator.mean_density, UnstableGenerator)
    return DensityPanel._wrap(grid, raw, period_labels(T + 1))


def _score_stepper(step: np.ndarray):
    # advance(scores) sets s_t = step s_{t-1} + c_t in place, rows t >= 1 of
    # scores holding c_t, one period at a time from _LOOP_RANK (as for a
    # kernel-only transition). Below it by recursive doubling (Kogge and Stone
    # 1973): the pass with M^k adds M^k times the rows k back, a fresh product,
    # so row t then sums M^j c_{t-j} over j < 2k. Row 0 is never written, and
    # M is squared only when another pass follows
    r = len(step)
    if r >= _LOOP_RANK:
        def advance(scores: np.ndarray) -> None:
            buf = np.empty(r)
            for prev, row in zip(scores, scores[1:]):
                np.dot(step, prev, out=buf)
                row += buf
        return advance

    def advance(scores: np.ndarray) -> None:
        power, k = step.T, 1
        while k < len(scores):
            scores[k:] += scores[:-k] @ power
            k *= 2
            if k < len(scores):
                power = power @ power
    return advance


def _transition_factors(op: OperatorRep) -> tuple:
    # (L, R) with kernel diag(weights) = L R; a kernel-only operator has
    # L = kernel diag(weights) and R = I, which makes the scores the states
    if op._factors is None:
        return op.kernel * op.grid.weights[None, :], np.eye(op.grid.n)
    return _weighted_factors(op)


def _integer(name: str, value) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """Configuration of a Monte Carlo forecast study.

    For every (T, N) pair and iteration: simulate T+1 true densities, draw
    N observations from each of the first T, re-estimate those densities by
    KDE, fit the autoregression with truncation K on them, and score the
    FAR/AVE/LAST forecasts of period T+1 against its true density.
    """

    generator: FarGenerator
    T_values: tuple
    N_values: tuple
    iterations: int
    seed: int
    burn_in: int | None = None
    K: int = 4
    kernel: str = "normal"

    def __post_init__(self):
        object.__setattr__(self, "T_values", tuple(_integer("T", t) for t in self.T_values))
        object.__setattr__(self, "N_values", tuple(_integer("N", n) for n in self.N_values))
        for name in ("iterations", "seed", "K"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.burn_in is not None:
            object.__setattr__(self, "burn_in", _integer("burn_in", self.burn_in))
        _check_kernel(self.kernel)
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(f"iterations must lie in 1..{MAX_ITERATIONS}, got {self.iterations}")
        if not self.T_values or not all(10 <= t <= MAX_STUDY_T for t in self.T_values):
            raise ValueError(f"every T must lie in 10..{MAX_STUDY_T}")
        if not self.N_values or not all(10 <= n <= MAX_STUDY_N for n in self.N_values):
            raise ValueError(f"every N must lie in 10..{MAX_STUDY_N}")
        if max(self.T_values) * max(self.N_values) > MAX_STUDY_DRAWS:
            raise ValueError(f"T x N must not exceed {MAX_STUDY_DRAWS} draws per panel")
        if self.burn_in is not None and not 0 <= self.burn_in <= MAX_BURN_IN:
            raise ValueError(f"burn_in must lie in 0..{MAX_BURN_IN}, got {self.burn_in}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        # a T-period demeaned panel has rank at most T - 1 and its zero-integral
        # rows at most n - 1, so every fit at a larger K is rank-deficient
        T_min, n = min(self.T_values), self.generator.grid.n
        if self.K >= min(T_min, n):
            raise ValueError(f"K must be below min(T_values) = {T_min} and the grid size "
                             f"{n}, got {self.K}")


@dataclass(frozen=True, eq=False)
class StudyResult:
    """Aggregated study table.

    cells maps (T, N, predictor, measure) to (mean, median); stderrs maps
    the same key to the Monte Carlo standard error of the mean; dropped
    maps (T, N) to the number of failed iterations.
    """

    T_values: tuple
    N_values: tuple
    iterations: int
    cells: dict
    stderrs: dict
    dropped: dict

    def to_rows(self) -> list:
        """Wide rows shaped like the study table: one row per (T, measure),
        one mean and one median column per (N, predictor)."""
        rows = []
        for T in self.T_values:
            for measure in MEASURES:
                row = {"T": T, "measure": measure}
                for N in self.N_values:
                    for predictor in PREDICTORS:
                        mean_val, med_val = self.cells[(T, N, predictor, measure)]
                        row[f"N{N}_{predictor}_mean"] = mean_val
                        row[f"N{N}_{predictor}_median"] = med_val
                rows.append(row)
        return rows


# Fraction of failed iterations tolerated per study cell.
_DROP_CEILING = 0.02


def _study_iteration(config: StudyConfig, T: int, N: int, it: int):
    panel_true = simulate_far(
        config.generator,
        T,
        seed=(config.seed, T, N, it, 0),
        burn_in=config.burn_in,
    )
    # only the first T periods are observed; simulate_far's rows are
    # nonnegative with unit mass, and the (T, N) draws are finite points of
    # the grid under labels in natural order, so the panel keeps them
    # unchecked and uncopied, N to a period
    draws, _, _ = _sample_rows(config.generator.grid, panel_true.values[:T], N,
                               [(config.seed, T, N, it, 1, t) for t in range(T)])
    raw = RawPanel._wrap(panel_true.labels[:T], draws.reshape(-1), np.arange(T + 1) * N)
    train = estimate_panel(raw, config.generator.grid, config.kernel)
    truth = GridFunction._wrap(panel_true.grid, panel_true.values[T])
    model = fit(train, config.K, kernel=config.kernel)
    f_far = to_density(forecast_one_step(model, model.w_last), model.mean_density)
    return {
        "FAR": error_metrics(f_far, truth),
        "AVE": error_metrics(predictor_ave(train), truth),
        "LAST": error_metrics(predictor_last(train), truth),
    }


def run_study(config: StudyConfig) -> StudyResult:
    """Run the Monte Carlo study over every (T, N) cell.

    Iterations are independent with random streams derived from the seed
    and the iteration index, so results do not depend on execution order;
    all of them go to the worker pool in one map. Failed iterations are
    dropped and counted; more than 2% failures in a cell aborts the study,
    naming the first such cell in order.
    """

    def run_one(item):
        try:
            return _study_iteration(config, *item)
        except DensfarError:
            return None

    work = product(config.T_values, config.N_values, range(config.iterations))
    outcomes = iter(parallel_map(run_one, work))
    cells, stderrs, dropped = {}, {}, {}
    for T in config.T_values:
        for N in config.N_values:
            good = [o for o in islice(outcomes, config.iterations) if o is not None]
            n_dropped = config.iterations - len(good)
            if n_dropped > _DROP_CEILING * config.iterations:
                raise TooManyDropped(
                    f"cell (T={T}, N={N}): {n_dropped}/{config.iterations} "
                    f"iterations failed"
                )
            dropped[(T, N)] = n_dropped
            for predictor in PREDICTORS:
                for measure in MEASURES:
                    vals = np.array([o[predictor].as_dict()[measure] for o in good])
                    cells[(T, N, predictor, measure)] = (
                        float(vals.mean()),
                        float(median(vals.tolist())),
                    )
                    stderrs[(T, N, predictor, measure)] = float(
                        vals.std(ddof=1) / np.sqrt(len(vals))
                    ) if len(vals) > 1 else 0.0
    return StudyResult(
        T_values=config.T_values,
        N_values=config.N_values,
        iterations=config.iterations,
        cells=cells,
        stderrs=stderrs,
        dropped=dropped,
    )
