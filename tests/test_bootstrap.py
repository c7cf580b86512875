"""Residual bootstrap bands: determinism, nesting, coverage."""

import dataclasses

import numpy as np
import pytest

import densfar.bootstrap as bootstrap
from densfar.bootstrap import (
    irf_statistic,
    r_squared_statistic,
    residual_bootstrap,
    vardecomp_statistic,
)
from densfar.errors import DegenerateForecast, TooFewResiduals, ZeroVariance
from densfar.estimation import fit
from densfar.forecast import _to_densities
from densfar.grid import (
    OperatorRep,
    _weighted_factors,
    make_grid,
    project_zero_integral,
    quadratic_form,
)
from densfar.analysis import moment_functional
from densfar.simulate import make_cosine_generator, simulate_far

from reference import model_residuals


def _model(T=60, seed=0, n=48):
    grid = make_grid(0.0, 1.0, n)
    gen = make_cosine_generator(
        grid, strengths=(0.8, 0.6), noise_sds=(0.02, 0.015)
    )
    panel = simulate_far(gen, T - 1, seed=seed, burn_in=60)
    return fit(panel, 2), gen


def test_constant_statistic_zero_width_band():
    model, _ = _model(seed=1)
    band = residual_bootstrap(model, {"c": lambda m: 3.25}, B=100, alpha=0.05, seed=0)["c"]
    assert np.all(band.lower == 3.25)
    assert np.all(band.upper == 3.25)
    assert band.point[0] == 3.25
    assert band.n_dropped == 0


def test_band_deterministic_given_seed():
    model, _ = _model(seed=2)
    v = moment_functional(1, model.grid)
    b1 = residual_bootstrap(model, {"irf": irf_statistic(v)}, B=100, alpha=0.05, seed=9)["irf"]
    b2 = residual_bootstrap(model, {"irf": irf_statistic(v)}, B=100, alpha=0.05, seed=9)["irf"]
    assert np.array_equal(b1.lower, b2.lower)
    assert np.array_equal(b1.upper, b2.upper)
    b3 = residual_bootstrap(model, {"irf": irf_statistic(v)}, B=100, alpha=0.05, seed=10)["irf"]
    assert not np.array_equal(b1.lower, b3.lower)


def test_band_monotone_in_alpha():
    model, _ = _model(seed=3)
    v = moment_functional(2, model.grid)
    wide = residual_bootstrap(model, {"irf": irf_statistic(v)}, B=150, alpha=0.05, seed=4)["irf"]
    narrow = residual_bootstrap(model, {"irf": irf_statistic(v)}, B=150, alpha=0.10, seed=4)["irf"]
    assert np.all(wide.lower <= narrow.lower + 1e-15)
    assert np.all(narrow.upper <= wide.upper + 1e-15)
    assert np.all(wide.lower <= wide.upper)


@pytest.mark.parametrize(
    "factory", [irf_statistic, r_squared_statistic, vardecomp_statistic]
)
def test_band_identical_under_thread_pool(forks, factory):
    # replication streams derive from (seed, index), so a pool of any size
    # reproduces the serial result bit for bit; each worker steps the score
    # paths of every block it reaches
    model, _ = _model(seed=7)
    v = moment_functional(2, model.grid)
    stat = factory(v, 2) if factory is vardecomp_statistic else factory(v)
    forks(1)
    serial = residual_bootstrap(model, {"s": stat}, B=100, alpha=0.05, seed=1)["s"]
    forks(3, OPENBLAS_NUM_THREADS="1")
    pooled = residual_bootstrap(model, {"s": stat}, B=100, alpha=0.05, seed=1)["s"]
    assert np.array_equal(serial.lower, pooled.lower)
    assert np.array_equal(serial.upper, pooled.upper)


def test_bootstrap_forks_its_workers_once(forks):
    # all B replications go to the pool in one map, across the blocks of 128
    # whose score paths step together
    calls = forks(2, OPENBLAS_NUM_THREADS="1")
    model, _ = _model(seed=8, n=32)
    band = residual_bootstrap(model, {"irf": irf_statistic(moment_functional(1, model.grid))},
                              B=400, alpha=0.05, seed=6)["irf"]
    assert band.B == 400 and band.n_dropped == 0
    assert len(calls) == 1


@pytest.mark.parametrize("threads", [None, "2", "4"])
def test_statistic_returning_a_view_into_its_refit(forks, threads):
    # each worker refits into one set of buffers for the whole call, so a
    # statistic that returns a view into its refit must still give the band
    # of the same statistic returning a copy: each value is copied when kept.
    model, _ = _model(seed=10)
    if threads is None:
        forks(1)
    else:
        forks(int(threads), OPENBLAS_NUM_THREADS="1")
    stats = {"last": lambda m: m.demeaned[-1], "resid": lambda m: m.resid[0],
             "last_copy": lambda m: m.demeaned[-1].copy(),
             "resid_copy": lambda m: m.resid[0].copy()}
    bands = residual_bootstrap(model, stats, B=100, alpha=0.05, seed=3)
    for name in ("last", "resid"):
        assert np.any(bands[name].lower < bands[name].upper)
        for field in ("point", "lower", "upper"):
            assert np.array_equal(getattr(bands[name], field),
                                  getattr(bands[f"{name}_copy"], field))


def test_band_guards():
    model, _ = _model(seed=5)
    v = moment_functional(1, model.grid)
    with pytest.raises(ValueError):
        residual_bootstrap(model, {"irf": irf_statistic(v)}, B=50, alpha=0.05, seed=0)
    small, _ = _model(T=8, seed=6)
    with pytest.raises(TooFewResiduals):
        residual_bootstrap(small, {"irf": irf_statistic(v)}, B=100, alpha=0.05, seed=0)


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


def _per_period_regeneration(model, pool, rng):
    # reference: one replication's panel stepped one period at a time through
    # A_hat diag(weights) = L R, w*_{t+1} = L (R w*_t) + e*_t from w*_1 = w_1;
    # returns the index draws and the densities, or None when a clipped state
    # carries no mass
    L, R = _weighted_factors(model.A_hat)
    T = model.sample_size
    idx = rng.integers(0, len(pool), size=T - 1)
    states = np.empty((T, model.grid.n))
    states[0] = model.demeaned[0]
    for t in range(T - 1):
        states[t + 1] = L @ (R @ states[t]) + pool[idx[t]]
    try:
        return idx, _to_densities(states, model.mean_density, DegenerateForecast)
    except DegenerateForecast:
        return idx, None


def _regenerated(monkeypatch, forks, model, B, seed):
    # serial bootstrap run that records every block's index draws and every
    # regenerated panel handed to the refit, in replication order
    draws, panels = [], []
    score_paths, refit = bootstrap._score_paths, bootstrap.fit

    def recording_paths(step, s_first, noise, idx):
        draws.append(idx.copy())
        return score_paths(step, s_first, noise, idx)

    def recording_fit(panel, K, start=None, *, out=None):
        # every replication's panel is one reused buffer
        panels.append(panel.values.copy())
        return refit(panel, K, start, out=out)

    forks(1)
    monkeypatch.setattr(bootstrap, "_score_paths", recording_paths)
    monkeypatch.setattr(bootstrap, "fit", recording_fit)
    band = residual_bootstrap(model, {"zero": lambda m: 0.0}, B=B, alpha=0.05, seed=seed)["zero"]
    return band, np.concatenate(draws), panels


@pytest.mark.parametrize("T, n, K", [(60, 48, 2), (40, 64, 3), (150, 32, 3)])
def test_regeneration_matches_dense_recursion(monkeypatch, forks, T, n, K):
    grid = make_grid(0.0, 1.0, n)
    gen = make_cosine_generator(
        grid, strengths=(0.8, 0.6, 0.4), noise_sds=(0.02, 0.015, 0.01)
    )
    model = fit(simulate_far(gen, T - 1, seed=T, burn_in=60), K)
    pool = np.stack([r.values for r in model_residuals(model)])
    pool = pool - pool.mean(axis=0)
    _, _, panels = _regenerated(monkeypatch, forks, model, 100, 3)
    for b in (0, 1, 99):
        ref = _dense_regeneration(model, pool, np.random.default_rng((3, b)))
        assert np.abs(panels[b] - ref).max() < 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("block, B", [(7, 100), (128, 130)])
def test_lockstep_regeneration_matches_per_period_loop(monkeypatch, forks, block, B):
    # blocks of 7 leave a last block of 2 replications; the default block of
    # 128 puts replications 127 and 128 on either side of a boundary
    T, n = 60, 48
    grid = make_grid(0.0, 1.0, n)
    gen = make_cosine_generator(
        grid, strengths=(0.8, 0.6, 0.4), noise_sds=(0.02, 0.015, 0.01)
    )
    model = fit(simulate_far(gen, T - 1, seed=11, burn_in=60), 3)
    pool = model.resid - model.resid.mean(axis=0)
    monkeypatch.setattr(bootstrap, "_BLOCK", block)
    band, draws, panels = _regenerated(monkeypatch, forks, model, B, 5)
    assert band.n_dropped == 0 and len(panels) == B
    for b in range(B):
        idx, ref = _per_period_regeneration(model, pool, np.random.default_rng((5, b)))
        assert np.array_equal(draws[b], idx)
        assert np.abs(panels[b] - ref).max() < 1e-12 * np.abs(ref).max()


def test_replication_without_mass_is_dropped_as_before(monkeypatch, forks):
    # one pooled residual that wipes out the density: every replication that
    # draws it has a clipped state with no mass and is dropped, and only those
    model, _ = _model(seed=12)
    resid = np.array(model.resid)
    resid[4] = -5.0 * model.mean_density.values
    model = dataclasses.replace(model, resid=resid)
    pool = model.resid - model.resid.mean(axis=0)
    expected = [
        _per_period_regeneration(model, pool, np.random.default_rng((2, b)))[1]
        for b in range(150)
    ]
    n_bad = sum(ref is None for ref in expected)
    assert 0 < n_bad < 150
    monkeypatch.setattr(bootstrap, "_DROP_CEILING", 1.0)
    monkeypatch.setattr(bootstrap, "_BLOCK", 16)
    band, _, panels = _regenerated(monkeypatch, forks, model, 150, 2)
    assert band.n_dropped == n_bad
    kept = [ref for ref in expected if ref is not None]
    assert len(panels) == len(kept)
    for got, ref in zip(panels, kept):
        assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


def _recording_items(monkeypatch, forks):
    # serial runs whose pool items' results are kept, in replication order
    items, run = [], bootstrap.parallel_map

    def recording_map(fn, xs):
        out = run(fn, xs)
        items.extend(out)
        return out

    forks(1)
    monkeypatch.setattr(bootstrap, "parallel_map", recording_map)
    return items


def test_statistic_error_drops_the_replication_for_that_statistic_only(monkeypatch, forks):
    # "flaky" raises ZeroVariance on a fixed set of replications; the irf
    # named after it in the same mapping keeps every replication, and its band
    # is the band of a call that names the irf alone
    model, _ = _model(seed=13)
    irf = irf_statistic(moment_functional(1, model.grid))
    bad, seen, kept = {0, 7, 42, 99}, [], []

    def flaky(m):
        b = len(seen) - 1  # call 0 is the point estimate
        seen.append(b)
        if b in bad:
            raise ZeroVariance("no variance")
        kept.append(m.eigen.eigenvalues[0])
        return m.eigen.eigenvalues[0]

    items = _recording_items(monkeypatch, forks)
    bands = residual_bootstrap(model, {"flaky": flaky, "irf": irf}, B=100, alpha=0.1, seed=6)
    assert list(bands) == ["flaky", "irf"]
    assert bands["flaky"].n_dropped == len(bad) and bands["irf"].n_dropped == 0
    assert bands["flaky"].lower[0] == np.percentile(kept[1:], 5.0)
    assert all(item is not None for item in items)
    alone = residual_bootstrap(model, {"irf": irf}, B=100, alpha=0.1, seed=6)["irf"]
    for field in ("point", "lower", "upper"):
        assert np.array_equal(getattr(bands["irf"], field), getattr(alone, field))
    # alone, "flaky" leaves exactly its failed replications' pool items None
    seen.clear()
    items.clear()
    residual_bootstrap(model, {"flaky": flaky}, B=100, alpha=0.1, seed=6)
    assert sum(item is None for item in items) == len(bad)


def test_replication_without_mass_is_dropped_for_every_statistic(monkeypatch, forks):
    # the poisoned pool of the test above: a replication whose regenerated
    # state has no mass is dropped for both statistics, and its pool item is
    # None, as it is for a single statistic
    model, _ = _model(seed=12)
    resid = np.array(model.resid)
    resid[4] = -5.0 * model.mean_density.values
    model = dataclasses.replace(model, resid=resid)
    pool = model.resid - model.resid.mean(axis=0)
    n_bad = sum(
        _per_period_regeneration(model, pool, np.random.default_rng((2, b)))[1] is None
        for b in range(150)
    )
    assert 0 < n_bad < 150
    monkeypatch.setattr(bootstrap, "_DROP_CEILING", 1.0)
    items = _recording_items(monkeypatch, forks)
    stats = {"irf": irf_statistic(moment_functional(1, model.grid)), "zero": lambda m: 0.0}
    bands = residual_bootstrap(model, stats, B=150, alpha=0.05, seed=2)
    assert [band.n_dropped for band in bands.values()] == [n_bad, n_bad]
    assert sum(item is None for item in items) == n_bad


def test_bootstrap_rejects_operator_that_does_not_factor():
    model, _ = _model(seed=8)
    rng = np.random.default_rng(8)
    swapped = dataclasses.replace(
        model, A_hat=OperatorRep(model.grid, rng.standard_normal((48, 48)))
    )
    calls = []
    with pytest.raises(ValueError, match="factor"):
        residual_bootstrap(swapped, {"s": calls.append}, B=100, alpha=0.05, seed=0)
    assert calls == []


def test_negative_seed_rejected_before_any_work():
    model, _ = _model(seed=9)
    calls = []
    with pytest.raises(ValueError, match="seed"):
        residual_bootstrap(model, {"s": calls.append}, B=100, alpha=0.05, seed=-1)
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
        band = residual_bootstrap(model, {"r2": stat}, B=400, alpha=0.05, seed=rep)["r2"]
        if band.lower[0] <= r2_pop <= band.upper[0]:
            hits += 1
    assert hits >= 85
