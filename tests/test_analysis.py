"""Dynamics interpretation: features, impulse responses, moment bases,
variance decompositions."""

import re

import numpy as np
import pytest

from densfar.analysis import (
    impulse_response,
    leading_features,
    moment_basis,
    moment_functional,
    r_squared,
    tail_indicator,
    variance_decomposition,
)
from densfar.errors import DegenerateMetric, ThresholdOutOfSupport, ZeroVariance
from densfar.estimation import fit
from densfar.grid import (
    GridFunction,
    OperatorRep,
    apply_operator,
    inner,
    make_grid,
    norm,
    project_zero_integral,
    quadratic_form,
)
from densfar.kde import DensityPanel, period_labels
from densfar.simulate import cosine_modes

from conftest import (
    centered_poly_basis,
    orthonormal_functions,
    population_construction,
    uniform_density,
)


def _identity_operator(grid) -> OperatorRep:
    return OperatorRep(grid, np.diag(1.0 / grid.weights))


# -- leading features ---------------------------------------------------------

def test_leading_features_rank_one(grid64):
    rng = np.random.default_rng(1)
    u, v = orthonormal_functions(grid64, 2, rng)
    A = OperatorRep(grid64, 0.7 * np.outer(u.values, v.values))
    feats = leading_features(A, 2)
    assert feats.strengths[0] == pytest.approx(0.7, abs=1e-9)
    assert feats.strengths[1] == pytest.approx(0.0, abs=1e-9)
    flip = -1.0 if v.values[np.argmax(np.abs(v.values))] < 0 else 1.0
    assert np.allclose(feats.progressive[0].values, flip * v.values, atol=1e-8)
    assert np.allclose(feats.regressive[0].values, flip * u.values, atol=1e-8)


def test_leading_features_zero_operator(grid64):
    A = OperatorRep(grid64, np.zeros((grid64.n, grid64.n)))
    feats = leading_features(A, 3)
    assert np.all(feats.strengths == 0.0)


def test_leading_features_symmetric_generator():
    # even-symmetric transition => even-symmetric leading progressive feature
    grid = make_grid(-1.0, 1.0, 128)
    modes = cosine_modes(grid, 4)
    # cos(2k pi s) modes are even about the midpoint
    kernel = 0.8 * np.outer(modes[1].values, modes[1].values)
    kernel += 0.4 * np.outer(modes[3].values, modes[3].values)
    feats = leading_features(OperatorRep(grid, kernel), 1)
    lead = feats.progressive[0].values
    assert np.abs(lead - lead[::-1]).max() < 1e-6


def test_leading_features_strengths_monotone(grid48):
    rng = np.random.default_rng(2)
    A = OperatorRep(grid48, rng.standard_normal((grid48.n, grid48.n)))
    feats = leading_features(A, 10)
    assert np.all(np.diff(feats.strengths) <= 1e-12)
    # rank-m reconstruction error is non-increasing in m
    sqrt_w = np.sqrt(grid48.weights)
    sym = sqrt_w[:, None] * A.kernel * sqrt_w[None, :]
    errors = []
    approx = np.zeros_like(A.kernel)
    for k in range(10):
        approx += feats.strengths[k] * np.outer(
            feats.regressive[k].values, feats.progressive[k].values
        )
        resid = sqrt_w[:, None] * (A.kernel - approx) * sqrt_w[None, :]
        errors.append(np.linalg.norm(resid))
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))


# -- impulse response ------------------------------------------------------------

def test_impulse_response_rank_one(grid64):
    rng = np.random.default_rng(3)
    u, phi = orthonormal_functions(grid64, 2, rng)
    A = OperatorRep(grid64, np.outer(u.values, phi.values))
    resp = impulse_response(A, u)
    assert np.allclose(resp.values, phi.values, atol=1e-9)


def test_impulse_response_orthogonal_functional(grid64):
    rng = np.random.default_rng(4)
    u, phi, v_perp = orthonormal_functions(grid64, 3, rng)
    A = OperatorRep(grid64, np.outer(u.values, phi.values))
    resp = impulse_response(A, v_perp)
    assert norm(resp) < 1e-9


def test_impulse_response_bump_probe_oracle():
    # feed narrow unit-mass bumps through A and read off the functional
    grid = make_grid(0.0, 1.0, 128)
    modes = cosine_modes(grid, 3)
    rng = np.random.default_rng(5)
    C = rng.standard_normal((3, 3))
    kernel = np.zeros((grid.n, grid.n))
    for i in range(3):
        for j in range(3):
            kernel += C[i, j] * np.outer(modes[i].values, modes[j].values)
    A = OperatorRep(grid, kernel)
    v = GridFunction(grid, sum(rng.standard_normal() * m.values for m in modes))
    resp = impulse_response(A, v)
    scale = np.abs(resp.values).max()
    h = grid.h
    for i in range(5, grid.n - 5, 9):
        bump = np.clip(1.0 - np.abs(grid.points - grid.points[i]) / h, 0.0, None) / h
        probed = inner(v, apply_operator(A, GridFunction(grid, bump)))
        assert abs(probed - resp.values[i]) < 1e-3 * (1.0 + scale)


def test_impulse_response_linearity(grid64):
    rng = np.random.default_rng(6)
    A = OperatorRep(grid64, rng.standard_normal((grid64.n, grid64.n)))
    v1 = GridFunction(grid64, rng.standard_normal(grid64.n))
    v2 = GridFunction(grid64, rng.standard_normal(grid64.n))
    lhs = impulse_response(A, 2.0 * v1 + (-3.0) * v2)
    rhs = 2.0 * impulse_response(A, v1) + (-3.0) * impulse_response(A, v2)
    assert np.abs(lhs.values - rhs.values).max() < 1e-12 * (1 + np.abs(rhs.values).max())


# -- moment and tail functionals ----------------------------------------------------

def test_moment_functional_parity():
    grid = make_grid(-1.0, 1.0, 129)
    w_even = project_zero_integral(GridFunction(grid, grid.points**2))
    i1 = moment_functional(1, grid)
    assert abs(inner(i1, w_even)) < 1e-12


def test_moment_functional_zero_argument(grid64):
    i2 = moment_functional(2, grid64)
    assert abs(inner(i2, grid64.constant(0.0))) == 0.0


def test_moment_functional_uniform_second_moment():
    grid = make_grid(0.0, 1.0, 512)
    f = uniform_density(grid)
    assert abs(inner(moment_functional(2, grid), f) - 1.0 / 3.0) < 1e-5


def test_tail_indicator_boundaries(grid64):
    f = uniform_density(grid64)
    at_a = tail_indicator(grid64, "left", grid64.a)
    assert inner(at_a, f) == pytest.approx(0.0, abs=1e-12)
    at_b = tail_indicator(grid64, "left", grid64.b)
    assert inner(at_b, f) == pytest.approx(1.0, abs=1e-12)


def test_tail_indicator_uniform_quantile():
    grid = make_grid(0.0, 1.0, 512)
    f = uniform_density(grid)
    left = tail_indicator(grid, "left", 0.05)
    assert inner(left, f) == pytest.approx(0.05, abs=1e-6)
    right = tail_indicator(grid, "right", 0.9)
    assert inner(right, f) == pytest.approx(0.1, abs=1e-6)
    two = tail_indicator(grid, "two_sided", tau_lo=0.05, tau_hi=0.9)
    assert inner(two, f) == pytest.approx(0.15, abs=1e-6)


def test_tail_indicator_threshold_guard(grid64):
    with pytest.raises(ThresholdOutOfSupport):
        tail_indicator(grid64, "left", grid64.b + 0.5)
    with pytest.raises(ValueError):
        tail_indicator(grid64, "two_sided", tau_lo=0.8, tau_hi=0.2)


# -- moment basis ---------------------------------------------------------------------

def test_moment_basis_first_function_is_centered_line():
    grid = make_grid(-1.0, 1.0, 128)
    A, Sigma, Q, _ = population_construction(grid, m=4, seed=7)
    basis = moment_basis(Q, grid, 4)
    u1 = basis.functions[0].values
    centered = grid.points - 0.5 * (grid.a + grid.b)
    c = u1[-1] / centered[-1]
    assert np.abs(u1 - c * centered).max() < 1e-10 * max(1.0, np.abs(u1).max())


def test_moment_basis_identity_metric_matches_high_precision_oracle():
    # classical Gram-Schmidt in extended precision as the oracle; identity
    # metric reduces the basis to zero-mean orthonormal polynomials
    grid = make_grid(-1.0, 1.0, 128)
    Q = _identity_operator(grid)
    kmax = 10
    basis = moment_basis(Q, grid, kmax)
    w = grid.weights.astype(np.longdouble)
    x = grid.points.astype(np.longdouble)
    oracle = []
    for k in range(1, kmax + 1):
        vals = x**k
        vals = vals - (w * vals).sum() / np.longdouble(grid.b - grid.a)
        for q in oracle:
            vals = vals - (w * q * vals).sum() * q
        vals /= np.sqrt((w * vals * vals).sum())
        oracle.append(vals)
    for k in range(kmax):
        got = basis.functions[k].values
        expect = np.asarray(oracle[k], dtype=np.float64)
        assert np.abs(got - expect).max() < 1e-6 * np.abs(expect).max()
    one = grid.constant(1.0)
    for p in range(kmax):
        assert abs(inner(one, basis.functions[p])) < 1e-8
        for q in range(kmax):
            expect = 1.0 if p == q else 0.0
            gram = inner(basis.functions[p], apply_operator(Q, basis.functions[q]))
            assert abs(gram - expect) < 1e-6


def test_moment_basis_low_rank_metric_degenerates():
    grid = make_grid(-1.0, 1.0, 128)
    q1, q2 = centered_poly_basis(grid, 2)
    kernel = 0.8 * np.outer(q1.values, q1.values) + 0.5 * np.outer(q2.values, q2.values)
    Q = OperatorRep(grid, kernel)
    basis = moment_basis(Q, grid, 2)
    assert basis.kmax == 2
    with pytest.raises(DegenerateMetric):
        moment_basis(Q, grid, 5)


def test_moment_basis_deterministic_bits():
    grid = make_grid(-1.0, 1.0, 96)
    _, _, Q, _ = population_construction(grid, m=4, seed=8)
    b1 = moment_basis(Q, grid, 4)
    b2 = moment_basis(Q, grid, 4)
    for f1, f2 in zip(b1.functions, b2.functions):
        assert np.array_equal(f1.values, f2.values)


def test_moment_basis_exact_degree():
    # leading coefficient survives orthogonalization: differencing k times
    # leaves a nonzero constant, differencing once more kills it
    grid = make_grid(-1.0, 1.0, 64)
    Q = _identity_operator(grid)
    basis = moment_basis(Q, grid, 5)
    h = grid.h
    for k, u in enumerate(basis.functions, start=1):
        dk = np.diff(u.values, n=k) / h**k
        assert np.abs(dk).max() > 1e-6
        dk1 = np.diff(u.values, n=k + 1) / h ** (k + 1)
        assert np.abs(dk1).max() < 1e-3 * np.abs(dk).max()


def _mgs_moment_basis(Q, grid, kmax):
    # reference: modified Gram-Schmidt under <., Q.>, one candidate at a time,
    # with one reorthogonalization pass; rows are u_1..u_kmax
    basis, q_images, scale = [], [], None
    for k in range(1, kmax + 1):
        cand = project_zero_integral(moment_functional(k, grid))
        cand = cand * (1.0 / norm(cand))
        for _ in range(2):
            for u, qu in zip(basis, q_images):
                cand = cand - inner(qu, cand) * u
        q_val = quadratic_form(Q, cand)
        if scale is None:
            scale = q_val
        if q_val <= 1e-10 * scale or q_val <= 0.0:
            raise DegenerateMetric(
                f"covariance carries no variance in the degree-{k} direction "
                f"(Q-form {q_val:.3e}); reduce kmax"
            )
        u_k = cand * (1.0 / np.sqrt(q_val))
        basis.append(u_k)
        q_images.append(apply_operator(Q, u_k))
    return np.stack([u.values for u in basis])


def _fitted_covariance(grid, T=80, seed=0):
    # Q_hat of a fit on a panel of two-component normal mixtures with random
    # locations, scales and weights: a factored covariance of rank T - 1
    rng = np.random.default_rng(seed)
    x = grid.points[None, :, None]
    loc = rng.uniform(-0.6, 0.6, size=(T, 1, 2))
    sd = rng.uniform(0.15, 0.4, size=(T, 1, 2))
    mix = rng.dirichlet((2.0, 2.0), size=T)[:, None, :]
    raw = (mix * np.exp(-0.5 * ((x - loc) / sd) ** 2) / sd).sum(axis=2)
    raw /= (raw @ grid.weights)[:, None]
    panel = DensityPanel(grid, [GridFunction(grid, r) for r in raw], period_labels(T))
    return fit(panel, 3).Q_hat


def test_moment_basis_qr_matches_its_q_gram_and_the_gram_schmidt_oracle():
    grid = make_grid(-1.0, 1.0, 128)
    Q = _fitted_covariance(grid)
    assert Q._factors is not None
    for kmax in range(1, 11):
        U = np.stack([u.values for u in moment_basis(Q, grid, kmax).functions])
        QU = np.stack([apply_operator(Q, GridFunction(grid, u)).values for u in U])
        gram = (U * grid.weights) @ QU.T
        assert np.abs(gram - np.eye(kmax)).max() < 1e-12
        ref = _mgs_moment_basis(Q, grid, kmax)
        assert np.abs(U - ref).max() < 1e-12 * np.abs(ref).max()


def _masked(message):
    # the Q-form of a degenerate candidate is roundoff, different in each method
    return re.sub(r"Q-form [^)]*", "Q-form ...", message)


@pytest.mark.parametrize(
    "variances, degenerate_at",
    [((0.8, 0.5), 3), ((0.8, 0.5, 0.3), 4), ((0.8, 0.5, 1e-10), 3), ((0.8, 0.5, 1e-9), 4)],
    ids=["rank2", "rank3", "rank3-below-1e-10", "rank3-above-1e-10"],
)
@pytest.mark.parametrize("held", ["kernel", "factors"])
def test_moment_basis_degenerates_where_gram_schmidt_does(variances, degenerate_at, held):
    # rank-2 and rank-3 kernels on the centered polynomials, and rank-3 ones
    # whose third Q-form is 2e-11 and 2e-10 of the first: either side of the
    # 1e-10 relative cutoff
    grid = make_grid(-1.0, 1.0, 128)
    span = centered_poly_basis(grid, len(variances))
    X = np.stack([np.sqrt(s) * q.values for s, q in zip(variances, span)])
    if held == "kernel":
        Q = OperatorRep(grid, X.T @ X)
    else:
        Q = OperatorRep._factored(grid, X.T, X, 1)
    for kmax in range(1, 11):
        if kmax < degenerate_at:
            moment_basis(Q, grid, kmax)
            _mgs_moment_basis(Q, grid, kmax)
            continue
        with pytest.raises(DegenerateMetric) as got:
            moment_basis(Q, grid, kmax)
        with pytest.raises(DegenerateMetric) as ref:
            _mgs_moment_basis(Q, grid, kmax)
        assert _masked(str(got.value)) == _masked(str(ref.value))
        assert f"degree-{degenerate_at} direction" in str(got.value)


# -- r_squared ---------------------------------------------------------------------------

def test_r_squared_extremes():
    grid = make_grid(-1.0, 1.0, 96)
    _, _, Q, span = population_construction(grid, m=4, seed=9)
    v = span[1]
    assert r_squared(v, Q, Q).value == pytest.approx(0.0, abs=1e-12)
    zero = OperatorRep(grid, np.zeros((grid.n, grid.n)))
    assert r_squared(v, Q, zero).value == pytest.approx(1.0, abs=1e-12)


def test_r_squared_zero_variance_guard():
    grid = make_grid(-1.0, 1.0, 96)
    zero = OperatorRep(grid, np.zeros((grid.n, grid.n)))
    with pytest.raises(ZeroVariance):
        r_squared(grid.constant(1.0), zero, zero)


def test_r_squared_population_identity():
    # <v,Qv> - <v,Sigma v> equals the summed squared moment loadings
    grid = make_grid(-1.0, 1.0, 96)
    A, Sigma, Q, span = population_construction(grid, m=4, seed=10)
    basis = moment_basis(Q, grid, 4)
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = rng.standard_normal(4)
        v = GridFunction(grid, sum(ci * qi.values for ci, qi in zip(c, span)))
        lhs = quadratic_form(Q, v) - quadratic_form(Sigma, v)
        rhs = sum(
            inner(v, apply_operator(A, apply_operator(Q, u))) ** 2
            for u in basis.functions
        )
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


# -- variance decomposition ---------------------------------------------------------------

def test_variance_decomposition_zero_operator():
    grid = make_grid(-1.0, 1.0, 96)
    _, _, Q, span = population_construction(grid, m=4, seed=12)
    basis = moment_basis(Q, grid, 4)
    zero = OperatorRep(grid, np.zeros((grid.n, grid.n)))
    report = variance_decomposition(span[0], zero, Q, basis)
    assert np.allclose(report.pi, 0.0, atol=1e-14)


def test_variance_decomposition_identity_operator():
    grid = make_grid(-1.0, 1.0, 96)
    _, _, Q, _ = population_construction(grid, m=4, seed=13)
    basis = moment_basis(Q, grid, 4)
    ident = _identity_operator(grid)
    report = variance_decomposition(basis.functions[0], ident, Q, basis)
    assert report.pi[0] == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(report.pi[1:], 0.0, atol=1e-8)


def test_variance_decomposition_scale_invariant():
    grid = make_grid(-1.0, 1.0, 96)
    A, _, Q, span = population_construction(grid, m=4, seed=14)
    basis = moment_basis(Q, grid, 4)
    v = span[2]
    r1 = variance_decomposition(v, A, Q, basis).pi
    r2 = variance_decomposition(17.5 * v, A, Q, basis).pi
    assert np.abs(r1 - r2).max() < 1e-12 * max(1.0, np.abs(r1).max())


def test_variance_accounting_identity():
    # shares plus the noise ratio add to one on the stationary population
    grid = make_grid(-1.0, 1.0, 96)
    A, Sigma, Q, span = population_construction(grid, m=4, seed=15)
    basis = moment_basis(Q, grid, 4)
    rng = np.random.default_rng(16)
    for _ in range(20):
        c = rng.standard_normal(4)
        v = GridFunction(grid, sum(ci * qi.values for ci, qi in zip(c, span)))
        report = variance_decomposition(v, A, Q, basis, Sigma)
        total = report.pi.sum() + quadratic_form(Sigma, v) / quadratic_form(Q, v)
        assert abs(total - 1.0) < 1e-6


def test_variance_decomposition_arch_case():
    # transition that scales the second moment by 0.5 concentrates the
    # second-moment decomposition entirely on k = 2
    grid = make_grid(-1.0, 1.0, 128)
    i2 = moment_functional(2, grid)
    i2c = project_zero_integral(i2)
    A = OperatorRep(grid, 0.5 * np.outer(i2c.values, i2c.values) / inner(i2c, i2c))
    # functional identity on the zero-integral subspace: A* i2 = 0.5 i2
    from densfar.grid import adjoint

    resp = apply_operator(adjoint(A), i2)
    gap = project_zero_integral(resp - 0.5 * i2)
    assert norm(gap) < 1e-10

    span = centered_poly_basis(grid, 4)
    s_kernel = sum(
        s * np.outer(q.values, q.values) for s, q in zip((0.3, 0.25, 0.2, 0.15), span)
    )
    Sigma = OperatorRep(grid, s_kernel)
    a_w = A.kernel * grid.weights[None, :]
    Qk = Sigma.kernel.copy()
    term = Sigma.kernel.copy()
    for _ in range(80):
        term = a_w @ term @ a_w.T
        Qk += term
    Q = OperatorRep(grid, Qk)
    basis = moment_basis(Q, grid, 4)
    report = variance_decomposition(i2, A, Q, basis)
    assert report.pi[1] / report.pi.sum() >= 0.99
