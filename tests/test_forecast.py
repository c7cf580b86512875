"""Forecasting: one/multi-step, normalization, intervals, K selection,
error measures, rolling backtest."""

import dataclasses

import numpy as np
import pytest
from scipy.stats import truncnorm

from densfar import forecast
from densfar.errors import DegenerateForecast, NoFeasibleK, TooFewPeriods
from densfar.estimation import fit
from densfar.forecast import (
    error_metrics,
    feature_interval,
    forecast_h_steps,
    forecast_one_step,
    predictor_ave,
    predictor_last,
    rolling_backtest,
    select_K_cv,
    to_density,
)
from densfar.grid import (
    GridFunction,
    OperatorRep,
    inner,
    make_grid,
    norm,
)
from densfar.kde import DensityPanel
from densfar.simulate import cosine_modes, make_cosine_generator, simulate_far

from conftest import uniform_density


def _fitted_model(T=80, seed=0, strengths=(0.8, 0.7, 0.6, 0.5), K=4, n=64):
    grid = make_grid(0.0, 1.0, n)
    gen = make_cosine_generator(
        grid, strengths=strengths, noise_sds=(0.02, 0.015, 0.012, 0.01)[: len(strengths)]
    )
    panel = simulate_far(gen, T - 1, seed=seed, burn_in=60)
    return fit(panel, K), panel, gen


# -- forecast steps -----------------------------------------------------------

def test_forecast_zero_state():
    model, _, _ = _fitted_model(T=40, seed=1)
    out = forecast_one_step(model, model.grid.constant(0.0))
    assert np.allclose(out.values, 0.0, atol=1e-14)


def test_forecast_zero_operator():
    model, _, _ = _fitted_model(T=40, seed=2)
    zero_op = OperatorRep(model.grid, np.zeros((model.grid.n, model.grid.n)))
    model0 = dataclasses.replace(model, A_hat=zero_op)
    out = forecast_one_step(model0, model.w_last)
    assert np.allclose(out.values, 0.0, atol=1e-14)
    assert np.allclose(
        to_density(out, model.mean_density).values, model.mean_density.values, atol=1e-12
    )


def test_forecast_rank_one_action():
    model, _, _ = _fitted_model(T=40, seed=3)
    grid = model.grid
    (phi,) = cosine_modes(grid, 1)
    A = OperatorRep(grid, 0.8 * np.outer(phi.values, phi.values))
    model1 = dataclasses.replace(model, A_hat=A)
    out = forecast_one_step(model1, phi)
    assert np.allclose(out.values, 0.8 * phi.values, atol=1e-10)


def test_forecast_h_steps_power_iteration():
    model, _, _ = _fitted_model(T=40, seed=4)
    grid = model.grid
    (phi,) = cosine_modes(grid, 1)
    kappa = 0.6
    A = OperatorRep(grid, kappa * np.outer(phi.values, phi.values))
    model1 = dataclasses.replace(model, A_hat=A)
    steps = forecast_h_steps(model1, phi, 4)
    assert len(steps) == 4
    one_step = forecast_one_step(model1, phi)
    assert np.array_equal(steps[0].values, one_step.values)
    for j, w in enumerate(steps, start=1):
        assert np.allclose(w.values, kappa**j * phi.values, atol=1e-10)
    norms = [norm(w) for w in steps]
    assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))


# -- to_density ------------------------------------------------------------------

def test_to_density_zero_forecast():
    model, _, _ = _fitted_model(T=40, seed=5)
    out = to_density(model.grid.constant(0.0), model.mean_density)
    assert np.allclose(out.values, model.mean_density.values, atol=1e-14)


def test_to_density_passthrough():
    model, _, _ = _fitted_model(T=40, seed=6)
    w = model.w_last
    f = model.mean_density
    if np.all(f.values + w.values >= 0.0):
        out = to_density(w, f)
        assert np.abs(out.values - (f.values + w.values)).max() < 1e-12


def test_to_density_degenerate():
    model, _, _ = _fitted_model(T=40, seed=7)
    with pytest.raises(DegenerateForecast):
        to_density(-2.0 * model.mean_density, model.mean_density)


def test_to_density_always_valid_density():
    model, _, _ = _fitted_model(T=40, seed=8)
    rng = np.random.default_rng(9)
    one = model.grid.constant(1.0)
    for _ in range(10):
        w = GridFunction(model.grid, rng.standard_normal(model.grid.n))
        f = to_density(w, model.mean_density)
        assert f.values.min() >= 0.0
        assert inner(one, f) == pytest.approx(1.0, abs=1e-12)


# -- feature intervals --------------------------------------------------------------

def test_feature_interval_degenerate_sigma():
    model, _, _ = _fitted_model(T=40, seed=10)
    zero = OperatorRep(model.grid, np.zeros((model.grid.n, model.grid.n)))
    model0 = dataclasses.replace(model, Sigma_hat=zero)
    v = GridFunction(model.grid, model.grid.points)
    w_fc = forecast_one_step(model0, model0.w_last)
    lo, hi = feature_interval(model0, v, w_fc, 0.05)
    assert lo == hi == pytest.approx(inner(v, w_fc), abs=1e-14)


def test_feature_interval_normal_quantile():
    model, _, _ = _fitted_model(T=50, seed=11)
    v = GridFunction(model.grid, model.grid.points)
    w_fc = forecast_one_step(model, model.w_last)
    lo, hi = feature_interval(model, v, w_fc, 0.05)
    from densfar.grid import quadratic_form

    qf = quadratic_form(model.Sigma_hat, v)
    half = (hi - lo) / 2.0
    z = half / np.sqrt((1.0 + model.K / model.sample_size) * qf)
    assert z == pytest.approx(1.959963984540054, rel=1e-10)


def test_feature_interval_width_scaling_in_k():
    model, _, _ = _fitted_model(T=50, seed=12)
    v = GridFunction(model.grid, model.grid.points)
    w_fc = forecast_one_step(model, model.w_last)
    K, T = model.K, model.sample_size
    lo1, hi1 = feature_interval(model, v, w_fc, 0.05)
    model2 = dataclasses.replace(model, K=2 * K)
    lo2, hi2 = feature_interval(model2, v, w_fc, 0.05)
    got = (hi2 - lo2) / (hi1 - lo1)
    expect = np.sqrt((1.0 + 2.0 * K / T) / (1.0 + K / T))
    assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("alpha", [1e-17, 1e-300, 5e-324])
def test_feature_interval_alpha_too_small_for_its_complement(alpha):
    # 1 - alpha/2 rounds to 1, where the normal quantile is infinite: a
    # ValueError with the CLI's rule, not the stdlib's StatisticsError
    model, _, _ = _fitted_model(T=40, seed=13)
    v = GridFunction(model.grid, model.grid.points)
    w_fc = forecast_one_step(model, model.w_last)
    with pytest.raises(ValueError, match=r"alpha is too small for 1 - alpha/2 < 1"):
        feature_interval(model, v, w_fc, alpha)
    assert np.isfinite(feature_interval(model, v, w_fc, 3e-16)).all()


# -- K selection -----------------------------------------------------------------------

def test_select_k_single_candidate():
    _, panel, _ = _fitted_model(T=30, seed=13)
    assert select_K_cv(panel, [1], n_validation=5) == 1


def test_select_k_iid_panel_deterministic():
    grid = make_grid(0.0, 1.0, 48)
    gen = make_cosine_generator(
        grid, strengths=(0.0, 0.0, 0.0), noise_sds=(0.02, 0.015, 0.01)
    )
    panel = simulate_far(gen, 39, seed=14, burn_in=30)
    k1 = select_K_cv(panel, [1, 2, 3], n_validation=5)
    k2 = select_K_cv(panel, [1, 2, 3], n_validation=5)
    assert k1 == k2
    assert k1 in (1, 2, 3)


def test_select_k_recovers_operator_rank():
    grid = make_grid(0.0, 1.0, 48)
    gen = make_cosine_generator(
        grid,
        strengths=(0.85, 0.75, 0.65, 0.55),
        noise_sds=(0.02, 0.016, 0.013, 0.01),
    )
    chosen = []
    for rep in range(30):
        panel = simulate_far(gen, 69, seed=(1000, rep), burn_in=60)
        chosen.append(select_K_cv(panel, [1, 2, 3, 4, 5, 6], n_validation=5))
    values, counts = np.unique(chosen, return_counts=True)
    assert values[np.argmax(counts)] in (3, 4, 5)


def test_select_k_too_few_periods():
    _, panel, _ = _fitted_model(T=10, seed=15)
    with pytest.raises(TooFewPeriods):
        select_K_cv(panel, [1], n_validation=5)


def test_select_k_skips_degenerate_candidate():
    # A forecast clipped to a density keeps at least the mass of the mean,
    # so only a panel whose periods carry almost no mass (2e-13, below the
    # 1e-12 floor of to_density) can clip to zero; the unchecked constructor
    # admits one. The strong first mode (coefficient a) has no lag-1
    # correlation, so the K=1 forecast stays near the mean and clips to zero
    # mass in every fold; the weak second mode (coefficient c) drove a one
    # period later in training, so the K=2 forecast swings far negative.
    grid = make_grid(0.0, 1.0, 32)
    phi, chi = cosine_modes(grid, 2)
    c = 0.1 * np.resize([1.0, 1.0, -1.0, -1.0], 30)
    a = np.zeros(30)
    a[1:25] = 300.0 * c[:24]
    densities = [
        GridFunction(grid, 2e-13 * (1.0 + a[t] * phi.values + c[t] * chi.values))
        for t in range(30)
    ]
    panel = DensityPanel._wrap(grid, np.stack([f.values for f in densities]), [str(t) for t in range(30)])
    model = fit(panel.head(25), 1)
    with pytest.raises(DegenerateForecast):
        to_density(forecast_one_step(model, model.w_last), model.mean_density)
    assert select_K_cv(panel, [1, 2], n_validation=5) == 2
    with pytest.raises(NoFeasibleK):
        select_K_cv(panel, [1], n_validation=5)


def test_cv_fold_score_is_the_error_metrics_d2(monkeypatch):
    # each fold is scored by d2 alone; the score equals error_metrics' d2 bit
    # for bit, so the selection is that of scoring every fold with all six
    _, panel, _ = _fitted_model(T=45, seed=23)
    scored, distance = [], forecast._l2_distance

    def recording(weights, f, g):
        scored.append((f, g, distance(weights, f, g)))
        return scored[-1][2]

    monkeypatch.setattr(forecast, "_l2_distance", recording)
    # the panel's four modes give a usable rank of four
    chosen = select_K_cv(panel, range(1, 5), n_validation=5)
    monkeypatch.undo()
    assert len(scored) == 4 * 5
    for f, g, score in scored:
        assert score == error_metrics(GridFunction(panel.grid, f), GridFunction(panel.grid, g)).d2
    means = {K: np.mean([score for _, _, score in scored[K - 1 :: 4]]) for K in range(1, 5)}
    assert chosen == min(means, key=means.get)


# -- predictors -------------------------------------------------------------------------

def test_benchmark_predictors():
    _, panel, _ = _fitted_model(T=20, seed=16)
    from densfar.estimation import mean_density

    assert np.array_equal(predictor_ave(panel).values, mean_density(panel).values)
    assert np.array_equal(predictor_last(panel).values, panel.densities[-1].values)
    sub = panel.head(7)
    assert np.array_equal(predictor_last(sub).values, panel.densities[6].values)


# -- error measures ------------------------------------------------------------------------

def test_error_metrics_zero_at_equality():
    grid = make_grid(0.0, 1.0, 128)
    f = uniform_density(grid)
    rep = error_metrics(f, f)
    assert all(v == 0.0 for v in rep.as_dict().values())


def test_error_metrics_total_separation_exact():
    # two unit-mass uniform blocks with fully disjoint quadrature support
    grid = make_grid(0.0, 1.0, 1025)
    f_hat = np.zeros(grid.n)
    f_hat[1:257] = 4.0
    f_true = np.zeros(grid.n)
    f_true[258:514] = 4.0
    rep = error_metrics(GridFunction(grid, f_hat), GridFunction(grid, f_true))
    assert rep.d1 == 2.0
    assert rep.dks == 1.0
    assert 0.0 <= rep.dcm <= 1.0


def test_error_metrics_mean_shift_truncated_normals():
    grid = make_grid(-5.0, 5.0, 1024)
    w = grid.weights

    def density(mu):
        vals = truncnorm.pdf(grid.points, a=-5.0 - mu, b=5.0 - mu, loc=mu, scale=1.0)
        return GridFunction(grid, vals / float(np.dot(w, vals)))

    rep = error_metrics(density(0.1), density(0.0))
    expect = truncnorm.mean(a=-5.1, b=4.9, loc=0.1, scale=1.0) - truncnorm.mean(
        a=-5.0, b=5.0, loc=0.0, scale=1.0
    )
    assert abs(rep.dm - 0.1) < 2e-3
    assert rep.dm == pytest.approx(abs(expect), abs=1e-4)


def test_error_metrics_symmetry():
    grid = make_grid(0.0, 1.0, 256)
    rng = np.random.default_rng(17)
    raw1 = np.abs(rng.standard_normal(grid.n)) + 0.1
    raw2 = np.abs(rng.standard_normal(grid.n)) + 0.1
    f1 = GridFunction(grid, raw1 / np.dot(grid.weights, raw1))
    f2 = GridFunction(grid, raw2 / np.dot(grid.weights, raw2))
    r12 = error_metrics(f1, f2)
    r21 = error_metrics(f2, f1)
    assert r12.d2 == pytest.approx(r21.d2, rel=1e-12)
    assert r12.d1 == pytest.approx(r21.d1, rel=1e-12)
    assert r12.dks == pytest.approx(r21.dks, rel=1e-12)
    assert r12.d2 > 0 and r12.d1 > 0 and r12.dks > 0


# -- rolling backtest -------------------------------------------------------------------------

def test_backtest_preconditions():
    _, panel, _ = _fitted_model(T=40, seed=18)
    with pytest.raises(ValueError):
        rolling_backtest(panel, 0, [1, 2])
    with pytest.raises(TooFewPeriods):
        rolling_backtest(panel.head(20), 6, [1, 2], n_validation=5)


def test_backtest_iid_panel_favors_ave():
    grid = make_grid(0.0, 1.0, 48)
    gen = make_cosine_generator(
        grid, strengths=(0.0, 0.0, 0.0), noise_sds=(0.05, 0.04, 0.03)
    )
    panel = simulate_far(gen, 44, seed=19, burn_in=40)
    report = rolling_backtest(panel, 8, [1, 2], n_validation=5)
    ave = report.aggregates[("AVE", "d2")][0]
    far = report.aggregates[("FAR", "d2")][0]
    last = report.aggregates[("LAST", "d2")][0]
    assert ave <= far * 1.05
    assert ave <= last * 1.05


def test_backtest_persistent_panel_favors_far():
    grid = make_grid(0.0, 1.0, 48)
    gen = make_cosine_generator(
        grid,
        strengths=(0.9, 0.8, 0.7),
        noise_sds=(0.03, 0.025, 0.02),
    )
    panel = simulate_far(gen, 59, seed=20, burn_in=60)
    report = rolling_backtest(panel, 8, [1, 2, 3, 4], n_validation=5)
    far = report.aggregates[("FAR", "d2")][0]
    ave = report.aggregates[("AVE", "d2")][0]
    assert far <= ave


def test_backtest_deterministic():
    _, panel, _ = _fitted_model(T=45, seed=21)
    r1 = rolling_backtest(panel, 6, [1, 2], n_validation=5)
    r2 = rolling_backtest(panel, 6, [1, 2], n_validation=5)
    assert r1.selected_K == r2.selected_K
    assert r1.to_rows() == r2.to_rows()


def test_backtest_computes_one_spectrum_per_training_prefix(monkeypatch):
    # n_test = 6 selections of 5 folds each cover the 10 prefixes T-11..T-2;
    # each is computed once, and every selection is that of select_K_cv alone
    _, panel, _ = _fitted_model(T=45, seed=22)
    T, candidates = len(panel), range(1, 7)
    expected = [select_K_cv(panel.head(s), candidates, 5) for s in range(T - 6, T)]
    prefixes, truncated = [], forecast._truncated_forecasts

    def recording(train, kmax):
        prefixes.append((len(train), kmax))
        return truncated(train, kmax)

    monkeypatch.setattr(forecast, "_truncated_forecasts", recording)
    report = rolling_backtest(panel, 6, candidates, n_validation=5)
    assert list(report.selected_K) == expected
    assert len(prefixes) == len(set(prefixes))
    assert {s for s, _ in prefixes} == set(range(T - 11, T - 1))
