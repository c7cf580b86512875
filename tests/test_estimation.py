"""Autoregression estimation: moments, operators, residuals, full fit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from densfar.errors import RankDeficient, TooFewPeriods
from densfar.estimation import fit, mean_density
from densfar.forecast import (
    _truncated_forecasts,
    error_metrics,
    forecast_one_step,
    select_K_cv,
    to_density,
)
from densfar.grid import (
    GridFunction,
    OperatorRep,
    adjoint,
    apply_operator,
    eigh_operator,
    inner,
    make_grid,
    norm,
    outer,
    quadratic_form,
    snapshot_spectrum,
    _SUBSPACE_EXTRA,
    _weighted_factors,
    _weighted_trace,
)
from densfar.kde import DensityPanel
from densfar.simulate import cosine_modes, make_cosine_generator, simulate_far

from conftest import iterate_far, orthonormal_functions, uniform_density
from reference import (
    covariance_operator,
    demean,
    estimate_operator,
    lag1_cross_covariance,
    model_P_hat,
    model_residuals,
    noise_covariance,
    principal_components,
    regularized_inverse,
    residuals,
)


def _simulated_panel(T=60, seed=0, n=64):
    grid = make_grid(0.0, 1.0, n)
    gen = make_cosine_generator(
        grid,
        strengths=(0.8, 0.7, 0.6, 0.5),
        noise_sds=(0.02, 0.015, 0.012, 0.01),
    )
    return simulate_far(gen, T - 1, seed=seed, burn_in=50), gen


# -- mean / demean -----------------------------------------------------------------

def test_mean_density_identical(grid64):
    f = uniform_density(grid64)
    panel = DensityPanel(grid=grid64, densities=(f, f, f), labels=("1", "2", "3"))
    assert np.array_equal(mean_density(panel).values, f.values)


def test_mean_density_matches_naive_loop():
    panel, _ = _simulated_panel(T=50, seed=1)
    got = mean_density(panel).values
    acc = np.zeros_like(got)
    for f in panel.densities:
        acc = acc + f.values
    assert np.abs(got - acc / len(panel)).max() < 1e-14


def test_mean_density_empty_guard(grid64):
    with pytest.raises(ValueError):
        DensityPanel(grid=grid64, densities=(), labels=())


def test_demean_identical_panel(grid64):
    f = uniform_density(grid64)
    panel = DensityPanel(grid=grid64, densities=(f, f, f), labels=("1", "2", "3"))
    for w in demean(panel, mean_density(panel)):
        assert np.allclose(w.values, 0.0, atol=1e-14)


def test_demean_centering_identity():
    panel, _ = _simulated_panel(T=40, seed=2)
    w = demean(panel, mean_density(panel))
    total = np.sum([wi.values for wi in w], axis=0)
    assert np.abs(total).max() < 1e-10
    one = panel.grid.constant(1.0)
    for wi in w:
        assert abs(inner(one, wi)) < 1e-12


def test_demean_matches_direct_subtraction():
    panel, _ = _simulated_panel(T=20, seed=3)
    f_bar = mean_density(panel)
    for wi, fi in zip(demean(panel, f_bar), panel.densities):
        assert np.allclose(wi.values, fi.values - f_bar.values, atol=1e-12)


# -- covariance operators -------------------------------------------------------------

def test_covariance_repeated_function(grid64):
    rng = np.random.default_rng(4)
    w = GridFunction(grid64, rng.standard_normal(grid64.n))
    Q = covariance_operator([w] * 7)
    assert np.allclose(Q.kernel, outer(w, w).kernel, atol=1e-12)


def test_covariance_zero_sequence(grid64):
    Q = covariance_operator([grid64.constant(0.0)] * 5)
    assert np.all(Q.kernel == 0.0)


def test_covariance_quadratic_form_oracle(grid48):
    rng = np.random.default_rng(5)
    w = [GridFunction(grid48, rng.standard_normal(grid48.n)) for _ in range(20)]
    Q = covariance_operator(w)
    for _ in range(10):
        g = GridFunction(grid48, rng.standard_normal(grid48.n))
        direct = np.mean([inner(wi, g) ** 2 for wi in w])
        assert abs(inner(g, apply_operator(Q, g)) - direct) < 1e-10 * (1.0 + direct)


def test_lag1_alternating_sequence(grid64):
    rng = np.random.default_rng(6)
    w = GridFunction(grid64, rng.standard_normal(grid64.n))
    T = 8
    seq = [w if t % 2 == 0 else -w for t in range(T)]
    P = lag1_cross_covariance(seq)
    assert np.allclose(P.kernel, -outer(w, w).kernel * (T - 1) / T, atol=1e-12)


def test_lag1_action_oracle(grid48):
    rng = np.random.default_rng(7)
    w = [GridFunction(grid48, rng.standard_normal(grid48.n)) for _ in range(15)]
    P = lag1_cross_covariance(w)
    g = GridFunction(grid48, rng.standard_normal(grid48.n))
    direct = np.zeros(grid48.n)
    for t in range(len(w) - 1):
        direct += inner(w[t], g) * w[t + 1].values
    direct /= len(w)
    assert np.allclose(apply_operator(P, g).values, direct, atol=1e-10)


def test_covariance_needs_two_periods(grid64):
    with pytest.raises(TooFewPeriods):
        covariance_operator([grid64.constant(0.0)])
    with pytest.raises(TooFewPeriods):
        lag1_cross_covariance([grid64.constant(0.0)])


# -- principal components --------------------------------------------------------------

def test_principal_components_rank_one(grid64):
    rng = np.random.default_rng(8)
    w = GridFunction(grid64, rng.standard_normal(grid64.n))
    eig = principal_components(covariance_operator([w, w, w]))
    assert eig.eigenvalues[0] > 0
    assert np.all(eig.eigenvalues[1:] <= 1e-10 * eig.eigenvalues[0])


def test_principal_components_trace_identity():
    panel, _ = _simulated_panel(T=40, seed=9)
    w = demean(panel, mean_density(panel))
    Q = covariance_operator(w)
    eig = principal_components(Q)
    trace = float(np.dot(panel.grid.weights, np.diag(Q.kernel)))
    assert abs(np.sum(eig.eigenvalues) - trace) < 1e-8 * max(1.0, trace)


def test_principal_components_scree_decreasing():
    panel, _ = _simulated_panel(T=80, seed=10)
    w = demean(panel, mean_density(panel))
    eig = principal_components(covariance_operator(w))
    lead = eig.eigenvalues[:4]
    assert np.all(np.diff(lead) < 0)


# -- regularized inverse ------------------------------------------------------------------

def test_regularized_inverse_rank_one(grid64):
    rng = np.random.default_rng(11)
    (phi,) = orthonormal_functions(grid64, 1, rng)
    eig = principal_components(OperatorRep(grid64, 2.0 * np.outer(phi.values, phi.values)))
    inv = regularized_inverse(eig, 1)
    assert np.allclose(inv.kernel, 0.5 * np.outer(eig.functions[0].values, eig.functions[0].values), atol=1e-10)


def test_regularized_inverse_eigen_actions(grid48):
    rng = np.random.default_rng(12)
    funcs = orthonormal_functions(grid48, 4, rng)
    lams = (2.0, 1.0, 0.5, 0.25)
    kernel = np.zeros((grid48.n, grid48.n))
    for lam, f in zip(lams, funcs):
        kernel += lam * np.outer(f.values, f.values)
    eig = principal_components(OperatorRep(grid48, kernel))
    inv = regularized_inverse(eig, 2)
    for j in (0, 1):
        got = apply_operator(inv, eig.functions[j])
        assert np.allclose(got.values, eig.functions[j].values / eig.eigenvalues[j], atol=1e-8)
    for j in (2, 3):
        got = apply_operator(inv, eig.functions[j])
        assert norm(got) < 1e-8


def test_regularized_inverse_rank_guard(grid48):
    rng = np.random.default_rng(13)
    funcs = orthonormal_functions(grid48, 2, rng)
    kernel = sum(np.outer(f.values, f.values) for f in funcs)
    eig = principal_components(OperatorRep(grid48, kernel))
    with pytest.raises(RankDeficient):
        regularized_inverse(eig, 3)


# -- operator estimation ---------------------------------------------------------------------

def test_estimate_operator_perfect_persistence(grid48):
    # P = Q makes the plug-in the identity on the retained span
    rng = np.random.default_rng(14)
    w = [GridFunction(grid48, rng.standard_normal(grid48.n)) for _ in range(12)]
    Q = covariance_operator(w)
    eig = principal_components(Q)
    K = 5
    A = estimate_operator(Q, regularized_inverse(eig, K))
    for j in range(K):
        got = apply_operator(A, eig.functions[j])
        assert norm(got - eig.functions[j]) < 1e-6


def test_estimate_operator_zero_cross_covariance(grid48):
    rng = np.random.default_rng(15)
    w = [GridFunction(grid48, rng.standard_normal(grid48.n)) for _ in range(6)]
    eig = principal_components(covariance_operator(w))
    zero = OperatorRep(grid48, np.zeros((grid48.n, grid48.n)))
    A = estimate_operator(zero, regularized_inverse(eig, 2))
    assert np.all(A.kernel == 0.0)


def test_estimate_operator_recovers_ar_coefficient():
    # scalar reduction: kappa=0.8 on one mode, long sample
    grid = make_grid(0.0, 1.0, 48)
    phi, psi = cosine_modes(grid, 2)
    A_true = OperatorRep(grid, 0.8 * np.outer(phi.values, phi.values))
    rng = np.random.default_rng(16)
    noise = [
        0.1 * rng.standard_normal() * phi.values + 0.02 * rng.standard_normal() * psi.values
        for _ in range(4000)
    ]
    w = iterate_far(A_true, noise)
    Q = covariance_operator(w)
    P = lag1_cross_covariance(w)
    A_hat = estimate_operator(P, regularized_inverse(principal_components(Q), 2))
    got = inner(phi, apply_operator(A_hat, phi))
    assert 0.7 <= got <= 0.9


# -- residuals / noise covariance ----------------------------------------------------------------

def test_residuals_zero_operator(grid48):
    rng = np.random.default_rng(17)
    w = [GridFunction(grid48, rng.standard_normal(grid48.n)) for _ in range(5)]
    zero = OperatorRep(grid48, np.zeros((grid48.n, grid48.n)))
    res = residuals(w, zero)
    assert len(res) == 4
    for r, wi in zip(res, w[1:]):
        assert np.array_equal(r.values, wi.values)


def test_residuals_noiseless_sequence(grid48):
    rng = np.random.default_rng(18)
    funcs = orthonormal_functions(grid48, 3, rng)
    kernel = sum(
        k * np.outer(f.values, f.values) for k, f in zip((0.9, 0.6, 0.3), funcs)
    )
    A = OperatorRep(grid48, kernel)
    w0 = sum(f.values for f in funcs)
    w = iterate_far(A, [np.zeros(grid48.n)] * 10, w0=w0)
    res = residuals(w, A)
    for r in res:
        assert norm(r) < 1e-10


def test_residuals_match_direct_loop(grid48):
    rng = np.random.default_rng(19)
    w = [GridFunction(grid48, rng.standard_normal(grid48.n)) for _ in range(8)]
    A = OperatorRep(grid48, rng.standard_normal((grid48.n, grid48.n)))
    res = residuals(w, A)
    for t in range(1, len(w)):
        direct = w[t].values - apply_operator(A, w[t - 1]).values
        assert np.allclose(res[t - 1].values, direct, atol=1e-12)


def test_noise_covariance_zero_residuals(grid48):
    S = noise_covariance([grid48.constant(0.0)] * 4)
    assert np.all(S.kernel == 0.0)


def test_noise_covariance_single_residual_divisor(grid48):
    rng = np.random.default_rng(20)
    eps = GridFunction(grid48, rng.standard_normal(grid48.n))
    S = noise_covariance([eps])
    assert np.allclose(S.kernel, 0.5 * outer(eps, eps).kernel, atol=1e-14)


def test_noise_covariance_monte_carlo():
    grid = make_grid(0.0, 1.0, 48)
    phi, psi = cosine_modes(grid, 2)
    Sigma = OperatorRep(
        grid,
        0.04 * np.outer(phi.values, phi.values) + 0.01 * np.outer(psi.values, psi.values),
    )
    rng = np.random.default_rng(21)
    draws = [
        GridFunction(grid, 0.2 * rng.standard_normal() * phi.values + 0.1 * rng.standard_normal() * psi.values)
        for _ in range(2000)
    ]
    S_hat = noise_covariance(draws, divisor=2000)
    scale = np.abs(Sigma.kernel).max()
    assert np.abs(S_hat.kernel - Sigma.kernel).max() < 0.1 * scale


# -- fit ----------------------------------------------------------------------------------------

def test_fit_identical_panel_rank_deficient(grid64):
    f = uniform_density(grid64)
    panel = DensityPanel(grid=grid64, densities=(f,) * 10, labels=tuple(str(i) for i in range(10)))
    with pytest.raises(RankDeficient):
        fit(panel, 1)


def test_fit_simulated_panel():
    panel, _ = _simulated_panel(T=200, seed=22)
    model = fit(panel, 4)
    assert model.K == 4
    assert model.sample_size == 200
    assert len(model_residuals(model)) == 199
    # Sigma PSD and symmetric
    s = model.Sigma_hat.kernel
    assert np.abs(s - s.T).max() < 1e-12 * (1 + np.abs(s).max())
    eigvals = np.linalg.eigvalsh(np.sqrt(panel.grid.weights)[:, None] * s * np.sqrt(panel.grid.weights)[None, :])
    assert eigvals.min() > -1e-12 * max(eigvals.max(), 1e-30)
    one = panel.grid.constant(1.0)
    for r in model_residuals(model):
        assert abs(inner(one, r)) < 1e-8


def test_fit_residuals_are_one_readonly_array():
    panel, _ = _simulated_panel(T=40, seed=23)
    model = fit(panel, 3)
    assert model.resid.shape == (39, panel.grid.n)
    assert not model.resid.flags.writeable
    for row, r in zip(model.resid, model_residuals(model)):
        assert np.array_equal(row, r.values)
    # e_t = w_t - A w_{t-1}, with A applied through quadrature
    W = model.demeaned
    expected = W[1:] - (W[:-1] * panel.grid.weights) @ model.A_hat.kernel.T
    assert np.abs(model.resid - expected).max() < 1e-10 * np.abs(W).max()


def test_fit_eigenvalue_concentration():
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(
        grid,
        strengths=(0.8, 0.7, 0.6, 0.5, 0.0, 0.0),
        noise_sds=(0.02, 0.015, 0.012, 0.01, 0.002, 0.002),
    )
    panel = simulate_far(gen, 211, seed=23, burn_in=100)
    model = fit(panel, 4)
    vals = model.eigen.eigenvalues
    assert vals[:4].sum() >= 0.95 * vals.sum()


def test_fit_preconditions():
    panel, _ = _simulated_panel(T=4, seed=24)
    with pytest.raises(TooFewPeriods):
        fit(panel, 1)
    panel, _ = _simulated_panel(T=20, seed=25)
    with pytest.raises(ValueError):
        fit(panel, 0)


def _dense_reference(panel, K):
    # the pre-snapshot fit, composed from the dense building blocks
    w = demean(panel, mean_density(panel))
    Q = covariance_operator(w)
    P = lag1_cross_covariance(w)
    eig = principal_components(Q)
    A = estimate_operator(P, regularized_inverse(eig, K))
    resid = residuals(w, A)
    return Q, P, eig, A, resid, noise_covariance(resid, divisor=len(w))


def _rel(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("T, n", [(40, 64), (150, 32)])
def test_fit_matches_dense_reference(T, n):
    panel, _ = _simulated_panel(T=T, seed=29, n=n)
    K = 4
    Q, P, eig, A, resid, Sigma = _dense_reference(panel, K)
    model = fit(panel, K)
    assert np.array_equal(model.Q_hat.kernel, Q.kernel)
    assert np.array_equal(model_P_hat(model).kernel, P.kernel)
    assert _rel(model.A_hat.kernel, A.kernel) < 1e-12
    assert _rel(model.Sigma_hat.kernel, Sigma.kernel) < 1e-12
    got_res = np.stack([r.values for r in model_residuals(model)])
    assert _rel(got_res, np.stack([r.values for r in resid])) < 1e-12
    assert len(model.eigen) == min(T, n)
    assert _rel(model.eigen.eigenvalues[:K], eig.eigenvalues[:K]) < 1e-12


def test_select_k_cv_matches_per_k_fits():
    panel, _ = _simulated_panel(T=40, seed=30, n=32)
    candidates = range(1, 7)
    T = len(panel)
    folds = {
        s: _truncated_forecasts(panel.head(s), max(candidates)) for s in range(T - 5, T)
    }
    scores = {}
    for K in candidates:
        ref, got = [], []
        try:
            for s, (f_bar, steps) in folds.items():
                model = fit(panel.head(s), K)
                f_fc = to_density(
                    forecast_one_step(model, model.w_last), model.mean_density
                )
                ref.append(error_metrics(f_fc, panel.densities[s]).d2)
                f_fc = to_density(GridFunction(panel.grid, steps[K - 1]), f_bar)
                got.append(error_metrics(f_fc, panel.densities[s]).d2)
        except RankDeficient:
            assert K > min(len(steps) for _, steps in folds.values())
            continue
        assert np.mean(got) == pytest.approx(np.mean(ref), rel=1e-12, abs=0.0)
        scores[K] = float(np.mean(ref))
    assert len(scores) >= 4
    assert select_K_cv(panel, candidates, n_validation=5) == min(scores, key=scores.get)


def _start_from(panel, rows):
    # warm start from another panel: its leading eigenfunctions times sqrt(weights)
    grid = panel.grid
    eig = snapshot_spectrum(grid, fit(panel, 1).demeaned, rows)
    return eig.vectors * np.sqrt(grid.weights)


@pytest.mark.parametrize("T, n, K", [(40, 64, 4), (60, 64, 3), (120, 128, 2)])
def test_started_fit_matches_the_unstarted_fit(T, n, K):
    # started from a prefix of the panel, as a bootstrap refit is started from
    # the original panel: K eigenvalues, and the fit of the full spectrum
    panel, _ = _simulated_panel(T=T, seed=T + K, n=n)
    start = _start_from(panel.head(T - 3), K + _SUBSPACE_EXTRA)
    ref = fit(panel, K)
    got = fit(panel, K, start)
    assert len(ref.eigen) == min(T, n)
    assert len(got.eigen) == K and got.eigen.vectors.shape == (K, n)
    vals = ref.eigen.eigenvalues[:K]
    assert np.abs(got.eigen.eigenvalues - vals).max() <= 1e-12 * vals.min()
    assert _rel(got.eigen.vectors, ref.eigen.vectors) < 1e-12
    for name in ("A_hat", "Sigma_hat"):
        assert _rel(getattr(got, name).kernel, getattr(ref, name).kernel) < 1e-12
    assert _rel(got.resid, ref.resid) < 1e-12


def _rank_r_panel(r, T=30, n=64, seed=0):
    # densities 1 + sum_{k <= r} c_tk cos(k pi x) on [0, 1]: demeaned rank r
    rng = np.random.default_rng(seed)
    grid = make_grid(0.0, 1.0, n)
    modes = np.cos(np.pi * np.arange(1, r + 1)[:, None] * grid.points)
    f = 1.0 + rng.uniform(-0.2, 0.2, size=(T, r)) @ modes
    return DensityPanel(grid, [GridFunction(grid, row) for row in f], range(T))


@pytest.mark.parametrize("r", [0, 1, 3])
def test_started_fit_is_rank_deficient_where_the_full_fit_is(r):
    panel = _rank_r_panel(r, seed=r)
    start = _start_from(_simulated_panel(T=30, seed=r)[0], 4 + _SUBSPACE_EXTRA)
    for K in range(1, 5):
        try:
            fit(panel, K)
        except RankDeficient:
            with pytest.raises(RankDeficient):
                fit(panel, K, start)
            assert K > r
        else:
            assert K <= r and len(fit(panel, K, start).eigen) == K


def test_started_fit_with_tied_eigenvalues_is_the_unstarted_fit():
    # twenty modes of equal noise sd and no dynamics: a flat leading spectrum
    # that no few sweeps resolve, so the started fit falls back to the full one
    grid = make_grid(0.0, 1.0, 64)
    gen = make_cosine_generator(grid, strengths=(0.0,) * 20, noise_sds=(0.002,) * 20)
    panel = simulate_far(gen, 39, seed=33, burn_in=10)
    start = _start_from(simulate_far(gen, 39, seed=34, burn_in=10), 3 + _SUBSPACE_EXTRA)
    ref, got = fit(panel, 3), fit(panel, 3, start)
    assert len(got.eigen) == len(ref.eigen) == 40
    assert np.array_equal(got.eigen.eigenvalues, ref.eigen.eigenvalues)
    assert np.array_equal(got.eigen.vectors, ref.eigen.vectors)
    assert np.array_equal(got.resid, ref.resid)


# -- invariants ------------------------------------------------------------------------------------

def test_q_hat_psd_many_random_panels(grid48):
    rng = np.random.default_rng(26)
    for _ in range(50):
        w = [GridFunction(grid48, rng.standard_normal(grid48.n)) for _ in range(6)]
        Q = covariance_operator(w)
        eig = principal_components(Q)  # raises NonPSD if violated
        assert eig.eigenvalues.min() >= 0.0


def test_noiseless_identity_reproduces_operator():
    # P = A Q for noiseless dynamics, so the plug-in recovers A on the span
    grid = make_grid(0.0, 1.0, 48)
    modes = cosine_modes(grid, 4)
    kappas = (0.9, 0.8, 0.7, 0.6)
    kernel = sum(k * np.outer(f.values, f.values) for k, f in zip(kappas, modes))
    A = OperatorRep(grid, kernel)
    w0 = sum(f.values for f in modes)
    w = iterate_far(A, [np.zeros(grid.n)] * 200, w0=w0)
    Q = covariance_operator(w)
    eig = principal_components(Q)
    K = 4
    A_hat = estimate_operator(lag1_cross_covariance(w), regularized_inverse(eig, K))
    for j in range(K):
        diff = apply_operator(A_hat, eig.functions[j]) - apply_operator(A, eig.functions[j])
        assert norm(diff) < 1e-6


def test_residual_centering_scale():
    panel, _ = _simulated_panel(T=300, seed=27)
    model = fit(panel, 4)
    mean_res = np.mean([r.values for r in model_residuals(model)], axis=0)
    mean_norm = norm(GridFunction(panel.grid, mean_res))
    bound = 5.0 * np.sqrt(np.abs(model.Sigma_hat.kernel).max()) / np.sqrt(len(model_residuals(model)))
    assert mean_norm <= bound


def test_operator_scale_invariance(grid48):
    rng = np.random.default_rng(28)
    w = [GridFunction(grid48, rng.standard_normal(grid48.n)) for _ in range(20)]
    c = 3.7

    def a_hat_from(seq):
        Q = covariance_operator(seq)
        eig = principal_components(Q)
        return estimate_operator(lag1_cross_covariance(seq), regularized_inverse(eig, 3))

    A1 = a_hat_from(w)
    A2 = a_hat_from([c * wi for wi in w])
    assert np.abs(A1.kernel - A2.kernel).max() < 1e-10 * (1 + np.abs(A1.kernel).max())


# -- factored operators --------------------------------------------------------------

def test_fit_allocates_no_n_by_n_array():
    n = 1024
    panel, _ = _simulated_panel(T=40, seed=32, n=n)
    tracemalloc.start()
    try:
        model = fit(panel, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
    # the kernels are still there on request, read-only
    assert model.A_hat.kernel.shape == (n, n)
    assert not model.A_hat.kernel.flags.writeable


def _random_panel(seed, T, n):
    # T positive densities: the exponential of a few random cosine terms plus
    # pointwise noise (full rank after demeaning), normalized on the grid
    rng = np.random.default_rng(seed)
    grid = make_grid(0.0, 1.0, n)
    modes = np.cos(np.pi * np.arange(1, 5)[:, None] * grid.points)
    f = np.exp(rng.normal(scale=0.8, size=(T, 4)) @ modes
               + rng.normal(scale=0.05, size=(T, n)))
    f /= (f @ grid.weights)[:, None]
    return DensityPanel(grid, [GridFunction(grid, row) for row in f], range(T))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(6, 40),
    n=st.integers(16, 96),
    K=st.integers(1, 3),
)
def test_fitted_operators_act_like_their_dense_kernels(seed, T, n, K):
    panel = _random_panel(seed, T, n)
    grid = panel.grid
    model = fit(panel, K)
    v = GridFunction(grid, np.random.default_rng(seed).standard_normal(n))
    wv = float(np.abs(grid.weights * v.values).sum())
    for op in (model.A_hat, model.Sigma_hat, model.Q_hat, model_P_hat(model)):
        dense = OperatorRep(grid, op.kernel)
        # errors relative to max|kernel| * sum|w v|, a bound on every entry of K v
        scale = float(np.abs(dense.kernel).max()) * wv
        for got, ref in ((op, dense), (adjoint(op), adjoint(dense))):
            diff = apply_operator(got, v).values - apply_operator(ref, v).values
            assert np.abs(diff).max() <= 1e-12 * scale
        assert abs(quadratic_form(op, v) - quadratic_form(dense, v)) <= 1e-12 * scale * wv
        trace_scale = float(np.abs(dense.kernel).max()) * (grid.b - grid.a)
        assert abs(_weighted_trace(op) - _weighted_trace(dense)) <= 1e-12 * trace_scale
    L, R = _weighted_factors(model.A_hat)
    a_w = model.A_hat.kernel * grid.weights
    assert np.abs(L @ R - a_w).max() <= 1e-12 * np.abs(a_w).max()
    eigh_operator(OperatorRep(grid, model.Q_hat.kernel))  # raises NonPSD otherwise
    assert quadratic_form(model.Q_hat, v) >= 0.0
    assert np.abs(model.resid @ grid.weights).max() <= 1e-12 * np.abs(model.resid).max()
    f = to_density(forecast_one_step(model, model.w_last), model.mean_density)
    assert float(np.dot(grid.weights, f.values)) == pytest.approx(1.0, abs=1e-12)
