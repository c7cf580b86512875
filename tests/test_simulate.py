"""Simulation machinery: rejection sampling, panel generation, study harness."""

import numpy as np
import pytest
from scipy.stats import kstest

from densfar.errors import DegenerateDensity, UnstableGenerator
from densfar.grid import GridFunction, inner, make_grid
from densfar.simulate import (
    FarGenerator,
    StudyConfig,
    _sample_by_rejection,
    acceptance_sample,
    cosine_modes,
    make_cosine_generator,
    run_study,
    simulate_far,
)

from conftest import triangular_density, uniform_density


# -- acceptance sampling --------------------------------------------------------

def test_acceptance_sample_uniform_never_rejects():
    grid = make_grid(0.0, 1.0, 128)
    f = uniform_density(grid)
    draws, proposed, accepted = _sample_by_rejection(
        f, 5000, np.random.default_rng(0)
    )
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
    _, proposed, accepted = _sample_by_rejection(f, 50_000, np.random.default_rng(2))
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


# -- panel simulation ---------------------------------------------------------------

def test_simulate_far_frozen_dynamics():
    grid = make_grid(0.0, 1.0, 64)
    gen0 = make_cosine_generator(grid, strengths=(0.5,), noise_sds=(0.1,))
    frozen = FarGenerator(
        grid=grid,
        transition=gen0.transition,
        mean_density=gen0.mean_density,
        residual_pool=(grid.constant(0.0),),
    )
    panel = simulate_far(frozen, 10, seed=3, burn_in=20)
    assert len(panel) == 11
    for f in panel.densities:
        assert np.allclose(f.values, gen0.mean_density.values, atol=1e-12)


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


def test_run_study_noiseless_limit_tracks_kde_error():
    # with zero dynamics noise the only error source is density estimation,
    # so the model forecast differs from the KDE-average benchmark by little
    grid = make_grid(0.0, 1.0, 64)
    gen0 = make_cosine_generator(grid, strengths=(0.5,), noise_sds=(0.1,))
    frozen = FarGenerator(
        grid=grid,
        transition=gen0.transition,
        mean_density=gen0.mean_density,
        residual_pool=(grid.constant(0.0),),
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


def test_study_config_validation():
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(grid, strengths=(0.5,), noise_sds=(0.05,))
    with pytest.raises(ValueError):
        StudyConfig(generator=gen, T_values=(5,), N_values=(100,), iterations=1, seed=0)
    with pytest.raises(ValueError):
        StudyConfig(generator=gen, T_values=(50,), N_values=(5,), iterations=1, seed=0)
    with pytest.raises(ValueError):
        StudyConfig(generator=gen, T_values=(50,), N_values=(100,), iterations=0, seed=0)
