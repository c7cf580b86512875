"""Residual bootstrap bands: determinism, nesting, coverage."""

import dataclasses

import numpy as np
import pytest

from densfar.bootstrap import (
    _operator_factor,
    _regenerate_panel,
    irf_statistic,
    r_squared_statistic,
    residual_bootstrap,
)
from densfar.errors import TooFewResiduals
from densfar.estimation import fit
from densfar.grid import OperatorRep, make_grid, quadratic_form
from densfar.analysis import moment_functional, project_zero_integral
from densfar.simulate import make_cosine_generator, simulate_far


def _model(T=60, seed=0, n=48):
    grid = make_grid(0.0, 1.0, n)
    gen = make_cosine_generator(
        grid, strengths=(0.8, 0.6), noise_sds=(0.02, 0.015)
    )
    panel = simulate_far(gen, T - 1, seed=seed, burn_in=60)
    return fit(panel, 2), gen


def test_constant_statistic_zero_width_band():
    model, _ = _model(seed=1)
    band = residual_bootstrap(model, lambda m: 3.25, B=100, alpha=0.05, seed=0)
    assert np.all(band.lower == 3.25)
    assert np.all(band.upper == 3.25)
    assert band.point[0] == 3.25
    assert band.n_dropped == 0


def test_band_deterministic_given_seed():
    model, _ = _model(seed=2)
    v = moment_functional(1, model.grid)
    b1 = residual_bootstrap(model, irf_statistic(v), B=100, alpha=0.05, seed=9)
    b2 = residual_bootstrap(model, irf_statistic(v), B=100, alpha=0.05, seed=9)
    assert np.array_equal(b1.lower, b2.lower)
    assert np.array_equal(b1.upper, b2.upper)
    b3 = residual_bootstrap(model, irf_statistic(v), B=100, alpha=0.05, seed=10)
    assert not np.array_equal(b1.lower, b3.lower)


def test_band_monotone_in_alpha():
    model, _ = _model(seed=3)
    v = moment_functional(2, model.grid)
    wide = residual_bootstrap(model, irf_statistic(v), B=150, alpha=0.05, seed=4)
    narrow = residual_bootstrap(model, irf_statistic(v), B=150, alpha=0.10, seed=4)
    assert np.all(wide.lower <= narrow.lower + 1e-15)
    assert np.all(narrow.upper <= wide.upper + 1e-15)
    assert np.all(wide.lower <= wide.upper)


def test_band_identical_under_thread_pool(monkeypatch):
    # replication streams derive from (seed, index), so a pool of any size
    # reproduces the serial result bit for bit
    model, _ = _model(seed=7)
    v = moment_functional(2, model.grid)
    serial = residual_bootstrap(model, irf_statistic(v), B=100, alpha=0.05, seed=1)
    monkeypatch.setenv("FAR_THREADS", "3")
    pooled = residual_bootstrap(model, irf_statistic(v), B=100, alpha=0.05, seed=1)
    assert np.array_equal(serial.lower, pooled.lower)
    assert np.array_equal(serial.upper, pooled.upper)


def test_band_guards():
    model, _ = _model(seed=5)
    v = moment_functional(1, model.grid)
    with pytest.raises(ValueError):
        residual_bootstrap(model, irf_statistic(v), B=50, alpha=0.05, seed=0)
    small, _ = _model(T=8, seed=6)
    with pytest.raises(TooFewResiduals):
        residual_bootstrap(small, irf_statistic(v), B=100, alpha=0.05, seed=0)


def _dense_regeneration(model, pool, rng):
    # the n-by-n recursion through A_hat's weighted kernel
    grid = model.grid
    a_w = model.A_hat.kernel * grid.weights[None, :]
    idx = rng.integers(0, len(pool), size=model.sample_size - 1)
    states = [model.w_initial.values]
    for t in idx:
        states.append(a_w @ states[-1] + pool[t])
    raw = np.clip(model.mean_density.values + np.array(states), 0.0, None)
    return raw / (raw @ grid.weights)[:, None]


@pytest.mark.parametrize("T, n, K", [(60, 48, 2), (40, 64, 3), (150, 32, 3)])
def test_regeneration_matches_dense_recursion(T, n, K):
    grid = make_grid(0.0, 1.0, n)
    gen = make_cosine_generator(
        grid, strengths=(0.8, 0.6, 0.4), noise_sds=(0.02, 0.015, 0.01)
    )
    model = fit(simulate_far(gen, T - 1, seed=T, burn_in=60), K)
    pool = np.stack([r.values for r in model.residuals])
    pool = pool - pool.mean(axis=0)
    ref = _dense_regeneration(model, pool, np.random.default_rng(3))
    panel = _regenerate_panel(
        model, _operator_factor(model), pool, np.random.default_rng(3)
    )
    got = np.stack([f.values for f in panel.densities])
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


def test_bootstrap_rejects_operator_that_does_not_factor():
    model, _ = _model(seed=8)
    rng = np.random.default_rng(8)
    swapped = dataclasses.replace(
        model, A_hat=OperatorRep(model.grid, rng.standard_normal((48, 48)))
    )
    calls = []
    with pytest.raises(ValueError, match="factor"):
        residual_bootstrap(swapped, calls.append, B=100, alpha=0.05, seed=0)
    assert calls == []


def test_negative_seed_rejected_before_any_work():
    model, _ = _model(seed=9)
    calls = []
    with pytest.raises(ValueError, match="seed"):
        residual_bootstrap(model, calls.append, B=100, alpha=0.05, seed=-1)
    assert calls == []


def test_r_squared_band_covers_population_value():
    # nested Monte Carlo: the nominal 95% band for the second-moment R^2
    # should cover the population value in most outer replications
    grid = make_grid(0.0, 1.0, 32)
    gen = make_cosine_generator(
        grid, strengths=(0.8, 0.6), noise_sds=(0.02, 0.015)
    )
    i2 = project_zero_integral(moment_functional(2, grid))

    # population R^2 from the generator: Q solves the stationarity identity
    a_w = gen.transition.kernel * grid.weights[None, :]
    Qk = gen.noise_covariance.kernel.copy()
    term = Qk.copy()
    for _ in range(200):
        term = a_w @ term @ a_w.T
        Qk += term
    from densfar.grid import OperatorRep

    Q_pop = OperatorRep(grid, Qk)
    r2_pop = 1.0 - quadratic_form(gen.noise_covariance, i2) / quadratic_form(Q_pop, i2)

    stat = r_squared_statistic(i2)
    hits = 0
    outer = 100
    for rep in range(outer):
        panel = simulate_far(gen, 199, seed=(55, rep), burn_in=80)
        model = fit(panel, 2)
        band = residual_bootstrap(model, stat, B=400, alpha=0.05, seed=rep)
        if band.lower[0] <= r2_pop <= band.upper[0]:
            hits += 1
    assert hits >= 85
