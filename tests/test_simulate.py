"""Simulation machinery: rejection sampling, panel generation, study harness."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

from densfar.errors import DegenerateDensity, TooManyDropped, UnstableGenerator
from densfar.estimation import fit
from densfar.grid import GridFunction, OperatorRep, inner, make_grid, norm
import densfar.simulate as simulate_module
from densfar._threads import worker_count
from densfar.simulate import (
    FarGenerator,
    StudyConfig,
    _grid_interpolator,
    _sample_rows,
    _study_iteration,
    acceptance_sample,
    cosine_modes,
    make_cosine_generator,
    run_study,
    simulate_far,
)

from conftest import triangular_density, uniform_density
from reference import model_residuals


# -- acceptance sampling --------------------------------------------------------

def test_acceptance_sample_uniform_never_rejects():
    grid = make_grid(0.0, 1.0, 128)
    f = uniform_density(grid)
    (draws,), (proposed,), (accepted,) = _sample_rows(grid, f.values[None], 5000, [0])
    assert proposed == accepted
    assert kstest(draws, "uniform").statistic < 0.02


def test_acceptance_sample_triangular_ks():
    grid = make_grid(0.0, 1.0, 512)
    f = triangular_density(grid)

    def tri_cdf(x):
        x = np.asarray(x)
        return np.where(x <= 0.5, 2.0 * x**2, 1.0 - 2.0 * (1.0 - x) ** 2)

    draws = acceptance_sample(f, 10_000, seed=1)
    assert kstest(draws, tri_cdf).statistic < 0.02
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_acceptance_rate_matches_envelope():
    grid = make_grid(0.0, 1.0, 512)
    f = triangular_density(grid)
    _, (proposed,), (accepted,) = _sample_rows(grid, f.values[None], 50_000, [2])
    rate = accepted / proposed
    expect = 1.0 / ((grid.b - grid.a) * f.values.max())
    se = np.sqrt(expect * (1.0 - expect) / proposed)
    assert abs(rate - expect) <= 3.0 * se


def test_acceptance_sample_deterministic():
    grid = make_grid(-2.0, 2.0, 128)
    f = triangular_density(grid)
    d1 = acceptance_sample(f, 500, seed=42)
    d2 = acceptance_sample(f, 500, seed=42)
    assert np.array_equal(d1, d2)


def test_acceptance_sample_degenerate():
    grid = make_grid(0.0, 1.0, 64)
    with pytest.raises(DegenerateDensity):
        acceptance_sample(grid.constant(0.0), 10, seed=0)


@pytest.mark.parametrize("seed", [-3, (5, -1)])
def test_acceptance_sample_rejects_negative_seed(seed):
    grid = make_grid(0.0, 1.0, 64)
    with pytest.raises(ValueError, match="seed"):
        acceptance_sample(triangular_density(grid), 10, seed=seed)


def test_acceptance_sample_many_targets_ks():
    # several distinct targets, one KS check each at the 1% critical value
    grid = make_grid(0.0, 1.0, 512)
    x = grid.points
    shapes = [
        np.ones_like(x),
        np.clip(1.0 - np.abs(x - 0.5) * 2.0, 0.0, None),
        np.exp(-0.5 * ((x - 0.3) / 0.15) ** 2),
        np.exp(-3.0 * x),
        1.0 + 0.8 * np.sin(2.0 * np.pi * x) ** 2,
    ]
    n = 20_000
    crit = 1.628 / np.sqrt(n)  # KS critical value at level 0.01
    from scipy.integrate import cumulative_trapezoid

    for i, shape in enumerate(shapes):
        vals = shape / float(np.dot(grid.weights, shape))
        f = GridFunction(grid, vals)
        cdf_grid = cumulative_trapezoid(vals, x, initial=0.0)
        cdf_grid /= cdf_grid[-1]
        draws = acceptance_sample(f, n, seed=(70, i))
        stat = kstest(draws, lambda q: np.interp(q, x, cdf_grid)).statistic
        assert stat < crit


def _reference_rejection(f, n, seed):
    # the per-density loop the rows sampler replaced: np.interp and one
    # default_rng(seed) per density
    grid = f.grid
    values = np.clip(f.values, 0.0, None)
    f_max = float(values.max())
    rng = np.random.default_rng(seed)
    draws = np.empty(n)
    filled = proposed = accepted = 0
    rate_guess = max(1.0 / ((grid.b - grid.a) * f_max), 1e-3)
    while filled < n:
        chunk = int(np.ceil((n - filled) / rate_guess * 1.2)) + 16
        x = rng.uniform(grid.a, grid.b, size=chunk)
        u = rng.uniform(0.0, 1.0, size=chunk)
        accept = u <= np.interp(x, grid.points, values) / f_max
        proposed += chunk
        kept = x[accept]
        accepted += len(kept)
        take = min(len(kept), n - filled)
        draws[filled : filled + take] = kept[:take]
        filled += take
    return draws, proposed, accepted


def test_acceptance_sample_matches_per_density_reference():
    grid_u = make_grid(0.0, 1.0, 512)
    grid_s = make_grid(-2.0, 3.0, 128)
    x = grid_s.points
    bump = np.exp(-0.5 * ((x - 0.3) / 0.4) ** 2)
    targets = [
        (uniform_density(grid_u), 5000, 0),
        (triangular_density(grid_u), 10_000, 1),
        (triangular_density(grid_s), 500, 42),
        (GridFunction(grid_s, bump / float(np.dot(grid_s.weights, bump))), 777, (70, 3)),
    ]
    for f, n, seed in targets:
        ref_draws, ref_proposed, ref_accepted = _reference_rejection(f, n, seed)
        assert acceptance_sample(f, n, seed).tobytes() == ref_draws.tobytes()
        _, (proposed,), (accepted,) = _sample_rows(f.grid, f.values[None], n, [seed])
        assert (proposed, accepted) == (ref_proposed, ref_accepted)


@pytest.mark.parametrize("block", [1, 3000, 4300, 1 << 14])
def test_sample_rows_match_per_density_reference(block, monkeypatch):
    # a simulated 101-row panel plus one row of mass 0.3, which the first
    # chunk (sized for unit mass) cannot fill; the blocks put 1, 2, 3 and
    # 11 rows in a vectorized pass
    monkeypatch.setattr(simulate_module, "_SAMPLE_BLOCK", block)
    panel = simulate_far(GENERATORS["cosine"](), 100, seed=(9, 1))
    grid = panel.grid
    values = np.vstack([panel.values, 0.3 * panel.values[0]])
    seeds = [(5, 100, 500, 2, 1, t) for t in range(len(values))]
    draws, proposed, accepted = _sample_rows(grid, values, 500, seeds)
    for t, seed in enumerate(seeds):
        ref_draws, ref_proposed, ref_accepted = _reference_rejection(
            GridFunction(grid, values[t]), 500, seed)
        assert draws[t].tobytes() == ref_draws.tobytes()
        assert (proposed[t], accepted[t]) == (ref_proposed, ref_accepted)
    first_chunk = int(np.ceil(500 * (grid.b - grid.a) * values[-1].max() * 1.2)) + 16
    assert proposed[-1] > first_chunk


@pytest.mark.parametrize("n", [16, 128, 513])
def test_grid_interpolator_is_np_interp_bit_for_bit(n):
    grid = make_grid(-1.7, 2.4, n)
    rng = np.random.default_rng(n)
    values = rng.uniform(-1.0, 3.0, size=(2, n))
    values[:, ::7] = 0.0
    values[:, 3::11] = -0.0  # at a grid point the value itself, sign and all
    interp = _grid_interpolator(grid, values)
    points = grid.points
    probes = [
        points,
        np.nextafter(points, -np.inf),
        np.nextafter(points, np.inf),
        *(rng.uniform(grid.a, grid.b, size=250_000) for _ in range(4)),
    ]
    for x in probes:
        row = rng.integers(0, 2, size=len(x))
        got = interp(x, row)
        for r in (0, 1):
            ref = np.interp(x[row == r], points, values[r])
            assert got[row == r].tobytes() == ref.tobytes()


# -- panel simulation ---------------------------------------------------------------

def test_simulate_far_frozen_dynamics():
    grid = make_grid(0.0, 1.0, 64)
    gen0 = make_cosine_generator(grid, strengths=(0.5,), noise_sds=(0.1,))
    frozen = FarGenerator(
        transition=gen0.transition,
        mean_density=gen0.mean_density,
        residual_pool=np.zeros((1, grid.n)),
    )
    panel = simulate_far(frozen, 10, seed=3, burn_in=20)
    assert len(panel) == 11
    for f in panel.densities:
        assert np.allclose(f.values, gen0.mean_density.values, atol=1e-12)


@pytest.mark.parametrize("pool, match", [
    (np.zeros((0, 64)), "nonempty"),
    (np.zeros(64), "shape"),
    (np.zeros((3, 65)), "shape"),
    (np.full((2, 64), np.nan), "finite"),
], ids=["empty", "one_row_1d", "wrong_n", "nonfinite"])
def test_generator_rejects_a_bad_residual_pool(pool, match):
    gen0 = make_cosine_generator(make_grid(0.0, 1.0, 64), strengths=(0.5,), noise_sds=(0.1,))
    with pytest.raises(ValueError, match=match):
        FarGenerator(transition=gen0.transition, mean_density=gen0.mean_density,
                     residual_pool=pool)


def test_generator_grid_is_its_transitions_and_pool_is_read_only():
    model = _fitted_model()
    gen = FarGenerator.from_model(model)
    assert gen.grid is gen.transition.grid
    assert gen.residual_pool is model.resid
    pool = np.ones((2, model.grid.n))
    own = FarGenerator(transition=model.A_hat, mean_density=model.mean_density,
                       residual_pool=pool)
    assert not own.residual_pool.flags.writeable
    pool[0, 0] = 5.0  # the generator holds its own copy
    assert own.residual_pool[0, 0] == 1.0


def test_simulate_far_deterministic():
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(grid, strengths=(0.7, 0.5), noise_sds=(0.02, 0.01))
    p1 = simulate_far(gen, 20, seed=4, burn_in=30)
    p2 = simulate_far(gen, 20, seed=4, burn_in=30)
    assert p1.labels == p2.labels
    for f1, f2 in zip(p1.densities, p2.densities):
        assert np.array_equal(f1.values, f2.values)


def test_simulate_far_autocorrelation_oracle():
    # the projection onto the leading mode is a scalar AR(1) with rho = 0.8
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(grid, strengths=(0.8,), noise_sds=(0.01,))
    panel = simulate_far(gen, 2000, seed=5, burn_in=200)
    (phi,) = cosine_modes(grid, 1)
    f_bar = gen.mean_density
    series = np.array([inner(phi, f - f_bar) for f in panel.densities])
    series -= series.mean()
    rho = np.dot(series[1:], series[:-1]) / np.dot(series, series)
    assert 0.7 <= rho <= 0.9


def test_simulate_far_stationarity_windows():
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(grid, strengths=(0.8,), noise_sds=(0.01,))
    T = 2000
    panel = simulate_far(gen, T, seed=6, burn_in=200)
    (phi,) = cosine_modes(grid, 1)
    f_bar = gen.mean_density
    series = np.array([inner(phi, f - f_bar) for f in panel.densities])
    w1 = series[T // 2 :]
    w2 = series[T // 4 : T // 2]
    v1, v2 = np.var(w1), np.var(w2)
    rho = 0.8
    n_eff = len(w2)
    se = np.sqrt(2.0) * np.sqrt(2.0 / n_eff * (1 + rho**2) / (1 - rho**2)) * max(v1, v2)
    assert abs(v1 - v2) <= 3.0 * se


def test_simulate_far_unstable_generator():
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(grid, strengths=(1.5,), noise_sds=(0.05,))
    with pytest.raises(UnstableGenerator):
        simulate_far(gen, 50, seed=7)


def _reference_simulate(generator, T, seed, burn_in):
    # one rng call, one noise mat-vec and one norm per period
    rng = np.random.default_rng(seed)
    grid = generator.grid
    if generator.residual_pool is not None:
        pool = generator.residual_pool
        pool = pool - pool.mean(axis=0)

        def draw():
            return pool[rng.integers(0, len(pool))]
    else:
        factor = generator._noise_factor

        def draw():
            return factor @ rng.standard_normal(factor.shape[1])
    a_w = generator.transition.kernel * grid.weights[None, :]
    bound = 1e6 * norm(generator.mean_density)
    sqrt_w = np.sqrt(grid.weights)
    w = np.zeros(grid.n)
    kept = []
    for t in range(burn_in + T + 1):
        w = a_w @ w + draw()
        if float(np.linalg.norm(sqrt_w * w)) > bound:
            raise UnstableGenerator(f"state norm exceeded 1e+06 x mean norm at period {t + 1}")
        if t >= burn_in:
            kept.append(w)
    raw = np.clip(generator.mean_density.values + np.array(kept), 0.0, None)
    return raw / (raw @ grid.weights)[:, None]


def _fitted_model():
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(grid, strengths=(0.8, 0.6), noise_sds=(0.02, 0.01))
    return fit(simulate_far(gen, 60, seed=8, burn_in=60), 2)


def _gaussian_model_generator():
    # the fitted model with Gaussian noise of its residual covariance
    model = _fitted_model()
    resid = np.stack([e.values for e in model_residuals(model)])
    return FarGenerator(
        transition=model.A_hat,
        mean_density=model.mean_density,
        noise_covariance=OperatorRep(model.grid, resid.T @ resid / len(resid)),
    )


def _kernel_only_generator():
    # the fitted model's transition held only as its dense kernel
    model = _fitted_model()
    return FarGenerator(
        transition=OperatorRep(model.grid, model.A_hat.kernel),
        mean_density=model.mean_density,
        residual_pool=model.resid,
    )


def _fitted_gaussian_generator():
    # the fitted model with Gaussian noise of its factored Sigma_hat
    model = _fitted_model()
    return FarGenerator(
        transition=model.A_hat,
        mean_density=model.mean_density,
        noise_covariance=model.Sigma_hat,
    )


GENERATORS = {
    "cosine": lambda: make_cosine_generator(
        make_grid(0.0, 1.0, 128), strengths=(0.8, 0.6, 0.45), noise_sds=(0.05, 0.04, 0.03)),
    # rank 9 steps its scores one period at a time, rank 3 in blocks
    "cosine_rank_9": lambda: make_cosine_generator(
        make_grid(0.0, 1.0, 64), strengths=np.linspace(0.85, 0.1, 9),
        noise_sds=np.linspace(0.05, 0.01, 9)),
    "residual_pool": lambda: FarGenerator.from_model(_fitted_model()),
    "model_gaussian": _gaussian_model_generator,
    "fitted_gaussian": _fitted_gaussian_generator,
    "kernel_only": _kernel_only_generator,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_simulate_far_matches_per_period_reference(name):
    # a kernel-only transition steps the states themselves (R = I) with the
    # reference's mat-vecs, so its panels are byte-identical; a factored one
    # steps rank-r scores and rounds differently
    gen = GENERATORS[name]()
    for seed, T, burn_in in [((3, 1), 50, None), (4, 20, 0), (5, 1, 7)]:
        panel = simulate_far(gen, T, seed=seed, burn_in=burn_in)
        if burn_in is None:
            burn_in = 1000 - (T + 1)
        ref = _reference_simulate(gen, T, seed, burn_in)
        got = np.stack([f.values for f in panel.densities])
        if gen.transition._factors is None:
            assert got.tobytes() == ref.tobytes()
        else:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fitted_noise_factor_is_the_scaled_residuals(monkeypatch):
    # Sigma_hat = resid^T resid / T factors as resid^T / sqrt(T): no eigh and
    # no cutoff on its small eigenvalues
    def no_eigh(op):
        raise AssertionError("eigh_operator called")

    model, generator = _fitted_model(), _fitted_gaussian_generator()
    monkeypatch.setattr(simulate_module, "eigh_operator", no_eigh)
    factor = generator._noise_factor
    assert factor.shape == model.resid.T.shape
    assert np.array_equal(factor, model.resid.T / np.sqrt(model.sample_size))
    kernel = model.Sigma_hat.kernel
    assert np.abs(factor @ factor.T - kernel).max() <= 1e-12 * np.abs(kernel).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strength", [1.5, 1e200])
def test_unstable_generator_raises_at_reference_period(strength):
    # 1e200 takes the state past 1e154 in one step, so its square overflows
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(grid, strengths=(strength,), noise_sds=(0.05,))
    # the reference's norm overflows with a RuntimeWarning
    with np.errstate(over="ignore"), pytest.raises(UnstableGenerator) as ref:
        _reference_simulate(gen, 50, seed=7, burn_in=949)
    with pytest.raises(UnstableGenerator) as got:
        simulate_far(gen, 50, seed=7)
    assert str(got.value) == str(ref.value)


def test_generator_from_model_roundtrip():
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(
        grid, strengths=(0.8, 0.6), noise_sds=(0.02, 0.01)
    )
    panel = simulate_far(gen, 60, seed=8, burn_in=60)
    from densfar.estimation import fit

    model = fit(panel, 2)
    regen = FarGenerator.from_model(model)
    panel2 = simulate_far(regen, 15, seed=9, burn_in=50)
    assert len(panel2) == 16


# -- study harness --------------------------------------------------------------------

def _small_config(iterations=1, strengths=(0.8, 0.7), noise_sds=(0.05, 0.04), K=2, seed=11):
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(grid, strengths=strengths, noise_sds=noise_sds)
    return StudyConfig(
        generator=gen,
        T_values=(20,),
        N_values=(100,),
        iterations=iterations,
        seed=seed,
        burn_in=50,
        K=K,
        kernel="normal",
    )


def test_run_study_smoke():
    result = run_study(_small_config(iterations=1))
    assert set(result.cells) == {
        (20, 100, p, m)
        for p in ("FAR", "AVE", "LAST")
        for m in ("d2", "d1", "dks", "dcm", "dm", "dv")
    }
    for mean_val, med_val in result.cells.values():
        assert np.isfinite(mean_val) and np.isfinite(med_val)
        assert mean_val >= 0.0 and med_val >= 0.0
    rows = result.to_rows()
    assert len(rows) == 6
    assert rows[0]["T"] == 20


def test_run_study_reproducible():
    r1 = run_study(_small_config(iterations=3))
    r2 = run_study(_small_config(iterations=3))
    assert r1.cells == r2.cells
    assert r1.dropped == r2.dropped


def test_run_study_on_a_thread_pool_matches_serial(forks):
    forks(1)
    serial = run_study(_small_config(iterations=4))
    forks(2, OPENBLAS_NUM_THREADS="1")
    assert worker_count() == 2
    pooled = run_study(_small_config(iterations=4))
    assert pooled.cells == serial.cells
    assert pooled.stderrs == serial.stderrs
    assert pooled.dropped == serial.dropped


def test_run_study_forks_its_workers_once(forks):
    # every (T, N, iteration) of the 2 x 2 cells goes to the pool in one map
    calls = forks(2, OPENBLAS_NUM_THREADS="1")
    config = dataclasses.replace(_small_config(iterations=2), T_values=(20, 30),
                                 N_values=(50, 100))
    result = run_study(config)
    assert result.dropped == {(T, N): 0 for T in (20, 30) for N in (50, 100)}
    assert len(calls) == 1


def test_run_study_names_the_first_cell_over_the_drop_ceiling(monkeypatch, forks):
    # the ceiling is checked once every cell has run, in cell order
    forks(2, OPENBLAS_NUM_THREADS="1")
    iteration = simulate_module._study_iteration

    def poisoned(config, T, N, it):
        if (T, N) in {(20, 50), (30, 100)}:
            raise DegenerateDensity(f"iteration {it} of cell ({T}, {N})")
        return iteration(config, T, N, it)

    monkeypatch.setattr(simulate_module, "_study_iteration", poisoned)
    config = dataclasses.replace(_small_config(iterations=2), T_values=(20, 30),
                                 N_values=(50, 100))
    with pytest.raises(TooManyDropped, match=r"^cell \(T=20, N=50\): 2/2 iterations failed$"):
        run_study(config)


def test_run_study_noiseless_limit_tracks_kde_error():
    # with zero dynamics noise the only error source is density estimation,
    # so the model forecast differs from the KDE-average benchmark by little
    grid = make_grid(0.0, 1.0, 64)
    gen0 = make_cosine_generator(grid, strengths=(0.5,), noise_sds=(0.1,))
    frozen = FarGenerator(
        transition=gen0.transition,
        mean_density=gen0.mean_density,
        residual_pool=np.zeros((1, grid.n)),
    )
    config = StudyConfig(
        generator=frozen,
        T_values=(30,),
        N_values=(200,),
        iterations=40,
        seed=12,
        burn_in=10,
        K=1,
        kernel="normal",
    )
    result = run_study(config)
    far = result.cells[(30, 200, "FAR", "d2")][0]
    ave = result.cells[(30, 200, "AVE", "d2")][0]
    assert abs(far - ave) <= 0.10 * ave


def test_study_iteration_allocation_peak():
    # T=100, N=500 on the benchmark's grid-128 cosine generator: 1.78 MB; the
    # design with one sampler call per period peaked at 1.72 MB, and building
    # the states in one product, with an (m, n) temporary, at 2.42 MB
    gen = GENERATORS["cosine"]()
    config = StudyConfig(generator=gen, T_values=(100,), N_values=(500,),
                         iterations=2, seed=3, K=4)
    _study_iteration(config, 100, 500, 0)  # caches the noise factor
    tracemalloc.start()
    try:
        _study_iteration(config, 100, 500, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0e6


def test_study_config_validation():
    grid = make_grid(0.0, 1.0, 64)
    # the factored transition is not checked as a dense kernel would be
    with pytest.raises(ValueError, match="strengths must be finite"):
        make_cosine_generator(grid, strengths=(0.5, np.nan), noise_sds=(0.05, 0.05))
    gen = make_cosine_generator(grid, strengths=(0.5,), noise_sds=(0.05,))
    with pytest.raises(ValueError):
        StudyConfig(generator=gen, T_values=(5,), N_values=(100,), iterations=1, seed=0)
    with pytest.raises(ValueError):
        StudyConfig(generator=gen, T_values=(50,), N_values=(5,), iterations=1, seed=0)
    with pytest.raises(ValueError):
        StudyConfig(generator=gen, T_values=(50,), N_values=(100,), iterations=0, seed=0)
