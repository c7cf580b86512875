"""Function-space numerics: grids, inner products, operators, spectra."""

import numpy as np
import pytest

from densfar.errors import (
    GridMismatch,
    GridTooLarge,
    GridTooSmall,
    InvalidSupport,
    NegativeDensity,
    NonPSD,
    NotSymmetric,
)
from densfar.grid import (
    GridFunction,
    GridSpec,
    OperatorRep,
    adjoint,
    apply_operator,
    cdf_from_density,
    compose,
    eigh_operator,
    inner,
    make_grid,
    norm,
    outer,
    project_zero_integral,
    quantile,
    snapshot_spectrum,
    _SUBSPACE_EXTRA,
)
from densfar.estimation import usable_rank

from conftest import orthonormal_functions, random_psd_operator, triangular_density, uniform_density
from reference import svd_operator


# -- make_grid -----------------------------------------------------------------

def test_make_grid_trapezoid_weights():
    g = make_grid(0.0, 1.0, 17)
    h = 1.0 / 16.0
    assert np.allclose(g.points, np.linspace(0, 1, 17))
    assert g.weights[0] == h / 2 and g.weights[-1] == h / 2
    assert np.all(g.weights[1:-1] == h)
    assert abs(g.weights.sum() - 1.0) < 1e-12


def test_make_grid_narrow_symmetric_support():
    g = make_grid(-0.0043, 0.0043, 1024)
    assert g.n == 1024
    assert g.points[0] == -0.0043 and g.points[-1] == 0.0043
    steps = np.diff(g.points)
    assert np.allclose(steps, steps[0])
    assert abs(g.weights.sum() - 0.0086) < 1e-12 * 0.0086


def test_make_grid_preconditions():
    for build in (make_grid, GridSpec):
        with pytest.raises(GridTooSmall):
            build(0.0, 1.0, 2)
        with pytest.raises(GridTooSmall):
            build(0.0, 1.0, 15)
        with pytest.raises(InvalidSupport):
            build(1.0, 0.0, 64)
        with pytest.raises(InvalidSupport):
            build(1.0, 1.0, 64)


@pytest.mark.parametrize("a, b", [(-1e308, 1e308), (-np.inf, np.inf), (0.0, np.inf),
                                  (-np.inf, 0.0)])
def test_make_grid_rejects_nonfinite_support(a, b):
    # a < b holds, but b - a (and with it every weight) is not finite
    for build in (make_grid, GridSpec):
        with pytest.raises(InvalidSupport, match="finite"):
            build(a, b, 64)


@pytest.mark.parametrize("a, b, n, shown", [
    (0.0, 1.0, 32.7, "32.7"), (0.0, 1.0, 64.0, "64.0"), (0.0, 1.0, "64", "'64'"),
    ("0", 1.0, 64, "'0'"), (0.0, b"1", 64, "b'1'"), (False, 1.0, 64, "False")])
def test_make_grid_rejects_wrong_types(a, b, n, shown):
    # no bound or size is converted: 32.7 is not a 32-point grid
    for build in (make_grid, GridSpec):
        with pytest.raises(TypeError) as err:
            build(a, b, n)
        assert str(err.value).endswith(f"got {shown}")


def test_make_grid_size_cap():
    for build in (make_grid, GridSpec):
        assert build(0.0, 1.0, 4096).n == 4096
        with pytest.raises(GridTooLarge):
            build(0.0, 1.0, 4097)


def test_grid_is_defined_by_support_and_size():
    # points and weights are derived from (a, b, n), read-only, and not
    # constructor arguments, so they cannot disagree with the support
    g1, g2 = make_grid(0.0, 1.0, 64), GridSpec(0.0, 1.0, 64)
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != make_grid(0.0, 2.0, 64) and g1 != make_grid(0.0, 1.0, 65)
    assert np.array_equal(g1.points, np.linspace(0.0, 1.0, 64))
    for arr in (g1.points, g1.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    with pytest.raises(TypeError):
        GridSpec(0.0, 1.0, 64, points=np.linspace(0.0, 2.0, 64), weights=np.ones(64))


# -- inner / projection ----------------------------------------------------------

def test_inner_constants():
    g = make_grid(0.0, 1.0, 64)
    one = g.constant(1.0)
    assert inner(one, one) == pytest.approx(1.0, abs=1e-14)


def test_inner_identity_function():
    g = make_grid(0.0, 1.0, 1025)
    x = GridFunction(g, g.points)
    assert abs(inner(x, x) - 1.0 / 3.0) < 1e-5


def test_inner_orthogonalized_pair():
    # explicit Gram-Schmidt as the oracle for exact orthogonality
    g = make_grid(0.0, 1.0, 64)
    rng = np.random.default_rng(7)
    f = GridFunction(g, rng.standard_normal(g.n))
    raw = GridFunction(g, rng.standard_normal(g.n))
    h = raw - (inner(f, raw) / inner(f, f)) * f
    assert abs(inner(f, h)) < 1e-12


def test_project_zero_integral():
    g = make_grid(0.0, 1.0, 64)
    zeroed = project_zero_integral(g.constant(5.0))
    assert np.allclose(zeroed.values, 0.0, atol=1e-14)

    x_centered = project_zero_integral(GridFunction(g, g.points))
    assert np.allclose(x_centered.values, g.points - 0.5, atol=1e-14)

    again = project_zero_integral(x_centered)
    assert np.allclose(again.values, x_centered.values, atol=1e-14)


# -- outer / apply / adjoint -------------------------------------------------------

def test_outer_projects(grid64):
    rng = np.random.default_rng(3)
    (phi,) = orthonormal_functions(grid64, 1, rng)
    proj = outer(phi, phi)
    assert np.allclose(apply_operator(proj, phi).values, phi.values, atol=1e-10)

    g_perp = project_zero_integral(GridFunction(grid64, rng.standard_normal(grid64.n)))
    g_perp = g_perp - inner(phi, g_perp) * phi
    assert np.allclose(apply_operator(proj, g_perp).values, 0.0, atol=1e-10)


def test_outer_matches_formula(grid64):
    rng = np.random.default_rng(5)
    u = GridFunction(grid64, rng.standard_normal(grid64.n))
    v = GridFunction(grid64, rng.standard_normal(grid64.n))
    g = GridFunction(grid64, rng.standard_normal(grid64.n))
    got = apply_operator(outer(u, v), g)
    assert np.allclose(got.values, inner(v, g) * u.values, atol=1e-10)


def test_apply_identity_kernel(grid64):
    # complete orthonormal basis via QR under the quadrature inner product
    rng = np.random.default_rng(11)
    basis = orthonormal_functions(grid64, grid64.n, rng)
    kernel = np.zeros((grid64.n, grid64.n))
    for e in basis:
        kernel += np.outer(e.values, e.values)
    identity = OperatorRep(grid64, kernel)
    g = GridFunction(grid64, rng.standard_normal(grid64.n))
    assert np.allclose(apply_operator(identity, g).values, g.values, atol=1e-8)


def test_apply_zero_kernel(grid64):
    zero = OperatorRep(grid64, np.zeros((grid64.n, grid64.n)))
    g = GridFunction(grid64, np.random.default_rng(0).standard_normal(grid64.n))
    assert np.all(apply_operator(zero, g).values == 0.0)


def test_adjoint_symmetric_fixed_point(grid64):
    K = random_psd_operator(grid64, np.random.default_rng(13), rank=8)
    assert np.array_equal(adjoint(K).kernel, K.kernel)


def test_adjoint_involution(grid64):
    rng = np.random.default_rng(17)
    K = OperatorRep(grid64, rng.standard_normal((grid64.n, grid64.n)))
    assert np.array_equal(adjoint(adjoint(K)).kernel, K.kernel)


def test_adjoint_identity_randomized(grid64):
    rng = np.random.default_rng(19)
    for _ in range(100):
        K = OperatorRep(grid64, rng.standard_normal((grid64.n, grid64.n)))
        f = GridFunction(grid64, rng.standard_normal(grid64.n))
        g = GridFunction(grid64, rng.standard_normal(grid64.n))
        lhs = inner(f, apply_operator(K, g))
        rhs = inner(apply_operator(adjoint(K), f), g)
        op_scale = np.abs(K.kernel).max()
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + op_scale * norm(f) * norm(g))


def test_compose_matches_sequential_application(grid64):
    rng = np.random.default_rng(23)
    K1 = OperatorRep(grid64, rng.standard_normal((grid64.n, grid64.n)))
    K2 = OperatorRep(grid64, rng.standard_normal((grid64.n, grid64.n)))
    g = GridFunction(grid64, rng.standard_normal(grid64.n))
    direct = apply_operator(compose(K1, K2), g)
    chained = apply_operator(K1, apply_operator(K2, g))
    assert np.allclose(direct.values, chained.values, atol=1e-10)


def test_grid_mismatch_raises():
    g1 = make_grid(0.0, 1.0, 32)
    g2 = make_grid(0.0, 2.0, 32)
    with pytest.raises(GridMismatch):
        inner(g1.constant(1.0), g2.constant(1.0))


# -- eigendecomposition -------------------------------------------------------------

def test_eigh_rank_one(grid64):
    rng = np.random.default_rng(29)
    (phi,) = orthonormal_functions(grid64, 1, rng)
    K = OperatorRep(grid64, 1.5 * np.outer(phi.values, phi.values))
    eig = eigh_operator(K)
    assert eig.eigenvalues[0] == pytest.approx(1.5, abs=1e-10)
    assert np.all(eig.eigenvalues[1:] < 1e-10)
    v = eig.functions[0].values
    signed = phi.values if phi.values[np.argmax(np.abs(phi.values))] > 0 else -phi.values
    assert np.allclose(v, signed, atol=1e-8)


def test_eigh_two_terms_ordered(grid64):
    rng = np.random.default_rng(31)
    phi1, phi2 = orthonormal_functions(grid64, 2, rng)
    kernel = 2.0 * np.outer(phi1.values, phi1.values) + np.outer(phi2.values, phi2.values)
    eig = eigh_operator(OperatorRep(grid64, kernel))
    assert eig.eigenvalues[0] == pytest.approx(2.0, abs=1e-9)
    assert eig.eigenvalues[1] == pytest.approx(1.0, abs=1e-9)


def test_eigh_reconstruction_and_orthonormality(grid48):
    rng = np.random.default_rng(37)
    K = random_psd_operator(grid48, rng)
    eig = eigh_operator(K)
    recon = np.zeros_like(K.kernel)
    for lam, f in zip(eig.eigenvalues, eig.functions):
        recon += lam * np.outer(f.values, f.values)
    lam1 = eig.eigenvalues[0]
    assert np.abs(recon - K.kernel).max() <= 1e-8 * lam1
    for j in range(0, 6):
        for k in range(0, 6):
            expect = 1.0 if j == k else 0.0
            assert abs(inner(eig.functions[j], eig.functions[k]) - expect) < 1e-8
    # residual of the eigen equation
    for lam, f in zip(eig.eigenvalues[:6], eig.functions[:6]):
        r = apply_operator(K, f) - lam * f
        assert norm(r) <= 1e-8 * (1.0 + lam1)


def test_eigh_parseval(grid48):
    rng = np.random.default_rng(41)
    K = random_psd_operator(grid48, rng)  # strictly positive, full rank
    eig = eigh_operator(K)
    f = GridFunction(grid48, rng.standard_normal(grid48.n))
    coeffs = np.array([inner(v, f) for v in eig.functions])
    assert abs(np.sum(coeffs**2) - inner(f, f)) < 1e-8


def test_eigh_rejects_nonsymmetric(grid64):
    rng = np.random.default_rng(43)
    K = OperatorRep(grid64, rng.standard_normal((grid64.n, grid64.n)))
    with pytest.raises(NotSymmetric):
        eigh_operator(K)


def test_eigh_rejects_indefinite(grid64):
    rng = np.random.default_rng(47)
    phi1, phi2 = orthonormal_functions(grid64, 2, rng)
    kernel = np.outer(phi1.values, phi1.values) - 0.5 * np.outer(phi2.values, phi2.values)
    with pytest.raises(NonPSD):
        eigh_operator(OperatorRep(grid64, kernel))


def test_eigh_sign_deterministic(grid64):
    rng = np.random.default_rng(53)
    K = random_psd_operator(grid64, rng, rank=5)
    e1 = eigh_operator(K)
    e2 = eigh_operator(K)
    for f1, f2 in zip(e1.functions, e2.functions):
        assert np.array_equal(f1.values, f2.values)
    for f in e1.functions[:5]:
        assert f.values[np.argmax(np.abs(f.values))] > 0


@pytest.mark.parametrize("spectrum", ["eigh", "snapshot"])
def test_eigenvectors_are_one_readonly_array(grid64, spectrum):
    rng = np.random.default_rng(54)
    if spectrum == "eigh":
        eig = eigh_operator(random_psd_operator(grid64, rng, rank=5))
    else:
        eig = snapshot_spectrum(grid64, rng.standard_normal((20, grid64.n)))
    assert eig.vectors.shape == (len(eig), grid64.n)
    assert not eig.vectors.flags.writeable
    with pytest.raises(ValueError):
        eig.vectors[0, 0] = 1.0
    assert len(eig.functions) == len(eig)
    for row, f in zip(eig.vectors, eig.functions):
        assert np.array_equal(row, f.values)
    peaks = eig.vectors[np.arange(len(eig)), np.argmax(np.abs(eig.vectors), axis=1)]
    assert np.all(peaks > 0)


# -- singular value decomposition ----------------------------------------------------

def test_svd_rank_one(grid64):
    rng = np.random.default_rng(59)
    u, v = orthonormal_functions(grid64, 2, rng)
    K = OperatorRep(grid64, 2.0 * np.outer(u.values, v.values))
    sv = svd_operator(K, 3)
    assert sv.values[0] == pytest.approx(2.0, abs=1e-9)
    assert np.all(sv.values[1:] < 1e-9)
    flip = -1.0 if v.values[np.argmax(np.abs(v.values))] < 0 else 1.0
    assert np.allclose(sv.right[0].values, flip * v.values, atol=1e-8)
    assert np.allclose(sv.left[0].values, flip * u.values, atol=1e-8)


def test_svd_psd_coincides_with_eigh(grid48):
    rng = np.random.default_rng(61)
    K = random_psd_operator(grid48, rng, rank=6)
    eig = eigh_operator(K)
    sv = svd_operator(K, 6)
    assert np.allclose(sv.values[:6], eig.eigenvalues[:6], atol=1e-8)
    for k in range(6):
        assert np.allclose(sv.right[k].values, eig.functions[k].values, atol=1e-7)


def test_svd_best_rank_m(grid48):
    rng = np.random.default_rng(67)
    K = OperatorRep(grid48, rng.standard_normal((grid48.n, grid48.n)))
    m = 5
    sv = svd_operator(K, m)
    approx = np.zeros_like(K.kernel)
    for k in range(m):
        approx += sv.values[k] * np.outer(sv.left[k].values, sv.right[k].values)
    # dense-SVD oracle in the symmetrized geometry
    sqrt_w = np.sqrt(grid48.weights)
    sym = sqrt_w[:, None] * K.kernel * sqrt_w[None, :]
    s_oracle = np.linalg.svd(sym, compute_uv=False)
    resid = sqrt_w[:, None] * (K.kernel - approx) * sqrt_w[None, :]
    got = np.linalg.norm(resid)
    expect = np.sqrt(np.sum(s_oracle[m:] ** 2))
    assert abs(got - expect) < 1e-8
    assert np.all(np.diff(sv.values) <= 1e-12)


def _decaying_stack(T, n, seed):
    # rows with a well-separated spectrum: scores of variance 4^-k on an
    # orthonormal basis, plus a little full-rank noise
    rng = np.random.default_rng(seed)
    m = min(T, n)
    basis = np.linalg.qr(rng.standard_normal((n, m)))[0].T
    scores = rng.standard_normal((T, m)) * 2.0 ** -np.arange(m)
    return scores @ basis + 1e-9 * rng.standard_normal((T, n))


@pytest.mark.parametrize("T, n", [(40, 64), (150, 32)])
def test_snapshot_spectrum_matches_svd(T, n):
    grid = make_grid(0.0, 1.0, n)
    stack = _decaying_stack(T, n, seed=T)
    sqrt_w = np.sqrt(grid.weights)
    _, s, vt = np.linalg.svd(stack * sqrt_w, full_matrices=False)
    ref_vals = s * s / T
    got = snapshot_spectrum(grid, stack)
    assert len(got) == min(T, n)
    assert usable_rank(got) == int(np.sum(ref_vals > 1e-10 * ref_vals[0]))
    K = 4
    assert np.abs(got.eigenvalues[:K] - ref_vals[:K]).max() < 1e-12 * ref_vals[0]
    for k in range(K):
        ref = vt[k] / sqrt_w
        ref = -ref if ref[np.argmax(np.abs(ref))] < 0 else ref
        assert np.abs(got.functions[k].values - ref).max() < 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("T, n, m", [(40, 64, 4), (150, 32, 4), (40, 64, 40), (150, 32, 32)])
def test_snapshot_spectrum_maps_only_the_leading_m_vectors(T, n, m):
    # every eigenvalue stays, bit for bit; the m leading eigenfunctions are
    # those of the full call, up to the roundoff of a narrower product
    grid = make_grid(0.0, 1.0, n)
    stack = _decaying_stack(T, n, seed=T + m)
    full = snapshot_spectrum(grid, stack)
    got = snapshot_spectrum(grid, stack, m)
    assert np.array_equal(got.eigenvalues, full.eigenvalues)
    assert len(got) == min(T, n)
    assert got.vectors.shape == (m, n)
    assert not got.vectors.flags.writeable
    assert np.abs(got.vectors - full.vectors[:m]).max() < 1e-14 * np.abs(full.vectors[:m]).max()


def _nearby_start(grid, stack, rows, seed, scale=1e-2):
    # warm start: the leading eigenfunctions, times sqrt(weights), of the
    # stack plus a small perturbation, as a bootstrap refit gets them
    rng = np.random.default_rng(seed)
    near = stack + scale * np.abs(stack).max() * rng.standard_normal(stack.shape)
    return snapshot_spectrum(grid, near, rows).vectors * np.sqrt(grid.weights)


@pytest.mark.parametrize("T, n, K", [(40, 64, 4), (64, 64, 3), (100, 128, 6), (212, 512, 4)])
def test_started_spectrum_matches_full_eigh(T, n, K):
    grid = make_grid(0.0, 1.0, n)
    stack = _decaying_stack(T, n, seed=T + K)
    full = snapshot_spectrum(grid, stack, K)
    start = _nearby_start(grid, stack, K + _SUBSPACE_EXTRA, seed=K)
    got = snapshot_spectrum(grid, stack, K, start)
    assert len(got) == K and got.vectors.shape == (K, n)
    assert not got.vectors.flags.writeable
    ref = full.eigenvalues[:K]
    assert np.abs(got.eigenvalues - ref).max() <= 1e-12 * ref.min()
    assert np.abs(got.vectors - full.vectors).max() <= 1e-12 * np.abs(full.vectors).max()


def test_started_spectrum_falls_back_to_the_unstarted_result():
    # a random stack has a flat spectrum whose leading pairs no few sweeps
    # resolve, whether the start is random or orthogonal to the leading space
    T, n, K = 40, 64, 4
    grid = make_grid(0.0, 1.0, n)
    stack = np.random.default_rng(7).standard_normal((T, n))
    full = snapshot_spectrum(grid, stack, K)
    b = K + _SUBSPACE_EXTRA
    sqrt_w = np.sqrt(grid.weights)
    random_start = np.random.default_rng(8).standard_normal((b, n))
    orthogonal_start = snapshot_spectrum(grid, stack, 2 * b).vectors[b:] * sqrt_w
    for start in (random_start, orthogonal_start):
        got = snapshot_spectrum(grid, stack, K, start)
        assert len(got) == min(T, n)
        assert np.array_equal(got.eigenvalues, full.eigenvalues)
        assert np.array_equal(got.vectors, full.vectors)


def test_started_spectrum_ignores_the_start_when_T_exceeds_n():
    grid = make_grid(0.0, 1.0, 32)
    stack = _decaying_stack(150, 32, seed=3)
    full = snapshot_spectrum(grid, stack, 4)
    got = snapshot_spectrum(grid, stack, 4, _nearby_start(grid, stack, 10, seed=4))
    assert np.array_equal(got.eigenvalues, full.eigenvalues)
    assert np.array_equal(got.vectors, full.vectors)


def test_started_spectrum_needs_m_start_rows(grid64):
    stack = _decaying_stack(20, grid64.n, seed=5)
    start = _nearby_start(grid64, stack, 3, seed=6)
    for m in (None, 4):
        with pytest.raises(ValueError, match="a start needs m <= 3 rows"):
            snapshot_spectrum(grid64, stack, m, start)


def test_snapshot_spectrum_zero_stack_has_unit_functions(grid64):
    got = snapshot_spectrum(grid64, np.zeros((10, grid64.n)))
    assert len(got) == 10
    assert np.all(got.eigenvalues == 0.0)
    for f in got.functions:
        assert np.all(np.isfinite(f.values))
        assert norm(f) == pytest.approx(1.0, rel=1e-12)


# -- cdf / quantile ---------------------------------------------------------------------

def test_cdf_uniform():
    g = make_grid(0.0, 1.0, 256)
    F = cdf_from_density(uniform_density(g))
    assert np.abs(F.values - g.points).max() < 1e-12
    assert F.values[0] == 0.0
    assert np.all(np.diff(F.values) >= 0)


def test_cdf_matches_cumulative_trapezoid(grid64):
    from scipy.integrate import cumulative_trapezoid

    f = triangular_density(grid64)
    ref = cumulative_trapezoid(f.values, grid64.points, initial=0.0)
    assert np.array_equal(cdf_from_density(f).values, ref)


def test_cdf_zero_density(grid64):
    F = cdf_from_density(grid64.constant(0.0))
    assert np.all(F.values == 0.0)


def test_cdf_triangular():
    g = make_grid(0.0, 1.0, 513)
    F = cdf_from_density(triangular_density(g))
    mid = np.searchsorted(g.points, 0.5)
    assert abs(F.values[mid] - 0.5) < 1e-4
    assert abs(F.values[-1] - 1.0) < 1e-10


def test_cdf_rejects_negative(grid64):
    f = GridFunction(grid64, np.full(grid64.n, -0.5))
    with pytest.raises(NegativeDensity):
        cdf_from_density(f)


def test_quantile_uniform():
    g = make_grid(0.0, 1.0, 512)
    f = uniform_density(g)
    assert quantile(f, 0.05) == pytest.approx(0.05, abs=1e-6)
    assert quantile(f, 0.5) == pytest.approx(0.5, abs=1e-9)


def test_quantile_triangular():
    g = make_grid(0.0, 1.0, 513)
    assert quantile(triangular_density(g), 0.5) == pytest.approx(0.5, abs=1e-3)


def test_quantile_rejects_bad_p(grid64):
    f = uniform_density(grid64)
    with pytest.raises(ValueError):
        quantile(f, 0.0)
    with pytest.raises(ValueError):
        quantile(f, 1.0)


# -- quadrature accuracy ------------------------------------------------------------------

def test_quadrature_error_shrinks_with_n():
    # smooth integrand: int_0^1 sin(pi x)^2 dx = 1/2
    errors = []
    for n in (64, 128, 256):
        g = make_grid(0.0, 1.0, n)
        f = GridFunction(g, np.sin(np.pi * g.points))
        errors.append(abs(inner(f, f) - 0.5))
    assert errors[1] * 3.0 <= errors[0]
    assert errors[2] * 3.0 <= errors[1]


def test_grid_function_requires_finite(grid64):
    values = np.zeros(grid64.n)
    values[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(grid64, values)
