"""Density estimation: support selection, bandwidths, KDE, panel assembly."""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm as normal_dist

from densfar.errors import (
    BandwidthNonpositive,
    DegenerateSample,
    TooFewObservations,
)
from densfar.grid import GridFunction, inner, make_grid
from densfar.kde import (
    DensityPanel,
    RawPanel,
    bandwidth,
    estimate_panel,
    kde,
    natural_sort_key,
    select_support,
)

# the package's `kde` function shadows the module of the same name
kde_module = sys.modules["densfar.kde"]


def _epanechnikov_sums(obs, points, h):
    # sum 0.75 (1 - u^2)+, u = (x - X_j) / h, at every grid point x
    return kde_module._epanechnikov_rows([obs], points, np.array([h], dtype=np.float64))[0]


# -- raw panel -----------------------------------------------------------------

def test_raw_panel_validation():
    with pytest.raises(ValueError):
        RawPanel(labels=("b", "a"), blocks=(np.ones(3), np.ones(3)))
    with pytest.raises(ValueError):
        RawPanel(labels=("a",), blocks=(np.array([]),))
    with pytest.raises(ValueError):
        RawPanel(labels=("a",), blocks=(np.array([1.0, np.inf]),))


def test_natural_label_order():
    assert natural_sort_key("2") < natural_sort_key("10")
    panel = RawPanel(
        labels=("2", "10"), blocks=(np.ones(2), np.ones(2))
    )
    assert panel.labels == ("2", "10")


def test_natural_sort_key_converts_only_decimal_runs():
    # "²" is a digit to str.isdigit but not a decimal digit run
    assert natural_sort_key("²") == ("²",)
    assert natural_sort_key("m2") < natural_sort_key("m²")
    assert natural_sort_key("1") == natural_sort_key("01")


# -- select_support -------------------------------------------------------------

def test_select_support_contains_discrete_sample():
    obs = np.tile([-1.0, 0.0, 1.0], 100)
    panel = RawPanel(labels=("1",), blocks=(obs,))
    a, b = select_support(panel, 0.999)
    assert a < -1.0 and b > 1.0


def test_select_support_coverage_precondition():
    panel = RawPanel(labels=("1",), blocks=(np.random.default_rng(0).normal(size=200),))
    with pytest.raises(ValueError):
        select_support(panel, 1.2)
    with pytest.raises(ValueError):
        select_support(panel, 0.4)


def test_select_support_normal_oracle():
    rng = np.random.default_rng(123)
    panel = RawPanel(labels=("1",), blocks=(rng.normal(size=100_000),))
    a, b = select_support(panel, 0.999)
    # Phi^{-1}(0.9995) = 3.2905...
    assert a <= -3.2905 and b >= 3.2905
    assert a >= -4.5 and b <= 4.5


def test_select_support_guards():
    small = RawPanel(labels=("1",), blocks=(np.arange(10.0),))
    with pytest.raises(TooFewObservations):
        select_support(small, 0.999)
    flat = RawPanel(labels=("1",), blocks=(np.zeros(200),))
    with pytest.raises(DegenerateSample):
        select_support(flat, 0.999)


# -- bandwidth --------------------------------------------------------------------

def test_bandwidth_epanechnikov_values():
    # 1024^(1/5) = 4 and 32^(1/5) = 2 make these exact
    assert bandwidth(1.0, 1024, "epanechnikov") == pytest.approx(2.3449 / 4, rel=1e-12)
    assert bandwidth(2.0, 32, "epanechnikov") == pytest.approx(2.3449, rel=1e-12)


def test_bandwidth_normal_constant():
    assert bandwidth(1.0, 1024, "normal") == pytest.approx(1.06 / 4, rel=1e-12)


def test_bandwidth_guards():
    with pytest.raises(TooFewObservations):
        bandwidth(1.0, 1, "epanechnikov")
    with pytest.raises(DegenerateSample):
        bandwidth(0.0, 100, "epanechnikov")
    with pytest.raises(ValueError):
        bandwidth(1.0, 100, "box")


# -- kde ----------------------------------------------------------------------------

def test_kde_spike_at_midpoint():
    g = make_grid(0.0, 1.0, 257)
    f = kde(np.full(50, 0.5), g, "epanechnikov", h=0.1)
    assert inner(g.constant(1.0), f) == pytest.approx(1.0, abs=1e-12)
    assert g.points[np.argmax(f.values)] == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(f.values, f.values[::-1], atol=1e-9)
    assert np.all(f.values >= 0.0)


def test_kde_unit_mass_random_inputs():
    g = make_grid(-2.0, 2.0, 128)
    rng = np.random.default_rng(5)
    for kernel in ("epanechnikov", "normal"):
        f = kde(rng.normal(size=500), g, kernel)
        assert inner(g.constant(1.0), f) == pytest.approx(1.0, abs=1e-12)


def test_kde_supnorm_against_normal_pdf():
    g = make_grid(-4.0, 4.0, 512)
    rng = np.random.default_rng(42)
    f = kde(rng.normal(size=20_000), g, "normal")
    truth = normal_dist.pdf(g.points)
    assert np.abs(f.values - truth).max() < 0.02


def test_kde_guards():
    g = make_grid(0.0, 1.0, 64)
    with pytest.raises(TooFewObservations):
        kde(np.array([0.5]), g, "normal", h=0.1)
    with pytest.raises(BandwidthNonpositive):
        kde(np.array([0.2, 0.8]), g, "normal", h=0.0)
    with pytest.raises(DegenerateSample):
        kde(np.array([50.0, 51.0]), g, "epanechnikov", h=0.01)


def test_kde_scale_equivariance():
    rng = np.random.default_rng(9)
    obs = rng.normal(size=400)
    c = 2.5
    g = make_grid(-4.0, 4.0, 256)
    gc = make_grid(-4.0 * c, 4.0 * c, 256)
    sigma = float(np.std(obs, ddof=1))
    h = bandwidth(sigma, obs.size, "epanechnikov")
    hc = bandwidth(c * sigma, obs.size, "epanechnikov")
    assert hc == pytest.approx(c * h, rel=1e-12)
    f = kde(obs, g, "epanechnikov", h)
    fc = kde(c * obs, gc, "epanechnikov", hc)
    assert np.allclose(fc.values, f.values / c, atol=1e-10)


def test_kde_error_decreases_with_sample_size():
    # desk-scale consistency check: median integrated squared error falls
    # as the per-period sample grows
    g = make_grid(-4.0, 4.0, 256)
    truth = normal_dist.pdf(g.points)
    truth = GridFunction(g, truth / float(np.dot(g.weights, truth)))
    rng = np.random.default_rng(77)
    med = {}
    for n_obs in (250, 1000, 4000):
        ises = []
        for _ in range(20):
            f = kde(rng.normal(size=n_obs), g, "normal")
            diff = f - truth
            ises.append(inner(diff, diff))
        med[n_obs] = np.median(ises)
    assert med[250] > med[1000] > med[4000]


# -- windowed Epanechnikov sum against the dense oracle ----------------------------------

def _dense_epanechnikov(obs, points, h):
    # every grid point against every observation, 2^22 terms at a time: the
    # O(N n) sum the windowed evaluation replaces
    raw = np.zeros(points.size)
    step = max(1, (1 << 22) // points.size)
    for start in range(0, obs.size, step):
        u = (points[:, None] - obs[None, start : start + step]) / h
        raw += 0.75 * np.clip(1.0 - u * u, 0.0, None).sum(axis=1)
    return raw


def _dense_normal(obs, points, h):
    # every grid point against every observation, with fresh temporaries
    # for each step of each block
    raw = np.zeros(points.size)
    step = max(1, (1 << 22) // points.size)
    for start in range(0, obs.size, step):
        u = (points[:, None] - obs[None, start : start + step]) / h
        raw += (np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)).sum(axis=1)
    return raw


def _dense_kde(obs, grid, h, dense_sums=_dense_epanechnikov):
    raw = dense_sums(obs, grid.points, h) / (obs.size * h)
    mass = float(np.dot(grid.weights, raw))
    if mass <= 1e-12:
        raise DegenerateSample("no mass inside the support")
    return raw / mass


def _student_t_case(sigma_over_h=None):
    obs = np.random.default_rng(1800).standard_t(4, size=1800)
    sigma = float(np.std(obs, ddof=1))
    if sigma_over_h is None:
        h = bandwidth(sigma, obs.size, "epanechnikov")
    else:
        h = sigma / sigma_over_h
    return obs, make_grid(-6.0, 6.0, 512), h


def _at_window_edges():
    g = make_grid(0.0, 1.0, 101)
    h = 0.05
    centers = g.points[[20, 50, 80]]
    return np.concatenate([centers - h, centers + h, [0.5]]), g, h


def _at_rounded_window_edges():
    # at |x| >> h the rounded x -+ h leaves u just inside (-1, 1), so these
    # terms are small but nonzero and an open window would drop them
    g = make_grid(990.0, 1000.0, 16)
    h = 1e-4
    return np.concatenate([g.points - h, g.points + h]), g, h


AGREEMENT_CASES = {
    "ties": lambda: (np.full(50, 0.5), make_grid(0.0, 1.0, 257), 0.1),
    "two_observations": lambda: (np.array([0.3, 0.65]), make_grid(0.0, 1.0, 64), 0.2),
    "some_outside": lambda: (
        np.random.default_rng(6).uniform(-1.0, 2.0, size=300), make_grid(0.0, 1.0, 128), 0.1),
    "all_outside": lambda: (np.array([-3.0, 2.5, 7.0]), make_grid(0.0, 1.0, 64), 0.2),
    "at_grid_point_plus_minus_h": _at_window_edges,
    "at_rounded_grid_point_plus_minus_h": _at_rounded_window_edges,
    "sigma_over_h_0.01": lambda: _student_t_case(0.01),
    "sigma_over_h_1": lambda: _student_t_case(1.0),
    "sigma_over_h_100": lambda: _student_t_case(100.0),
    "sigma_over_h_1e4": lambda: _student_t_case(1e4),
    "student_t_n512_N1800": _student_t_case,
    "cauchy_N1800": lambda: (
        np.random.default_rng(24).standard_cauchy(1800), make_grid(-6.0, 6.0, 512), 0.3),
    "support_at_1e3": lambda: (
        1e3 + np.random.default_rng(25).normal(size=1800), make_grid(1e3 - 4.0, 1e3 + 4.0, 512), 0.4),
    "support_at_1e6": lambda: (
        1e6 + np.random.default_rng(26).normal(size=1800), make_grid(1e6 - 4.0, 1e6 + 4.0, 512), 0.4),
    "h_far_below_step": lambda: (
        np.random.default_rng(27).normal(size=1800), make_grid(-4.0, 4.0, 512), 1e-4),
    "h_far_above_width": lambda: (
        np.random.default_rng(28).normal(size=1800), make_grid(-4.0, 4.0, 512), 100.0),
    # every term is below 1.2e-7, where 1 - u^2 cancels almost all of u^2
    "ties_one_h_below_a_grid_6e-8_wide": lambda: (
        np.array([1.0, 1.0]), make_grid(2.0 - 6e-8, 2.0, 64), 1.0),
    # terms of 1e-4 to 2e-4, each rounded by about eps in the dense sum
    "ties_one_h_below_a_grid_5e-5_wide": lambda: (
        np.array([1.0, 1.0]), make_grid(2.0 - 1e-4, 2.0 - 5e-5, 64), 1.0),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_epanechnikov_kde_matches_dense_oracle(case):
    obs, grid, h = AGREEMENT_CASES[case]()
    try:
        ref = _dense_kde(obs, grid, h)
    except DegenerateSample:
        with pytest.raises(DegenerateSample):
            kde(obs, grid, "epanechnikov", h)
        return
    got = kde(obs, grid, "epanechnikov", h).values
    assert got.min() >= 0.0
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()


@pytest.mark.parametrize("block", [1, 4096])
def test_epanechnikov_kde_independent_of_block_size(monkeypatch, block):
    obs, grid, h = _student_t_case()
    default = kde(obs, grid, "epanechnikov", h).values
    monkeypatch.setattr(kde_module, "_KDE_BLOCK", block)
    assert np.array_equal(kde(obs, grid, "epanechnikov", h).values, default)


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_epanechnikov_sums_match_dense_oracle(case):
    # the sums themselves: within 1e-12 of the largest, and exactly 0 where
    # every term of the dense sum is
    obs, grid, h = AGREEMENT_CASES[case]()
    ref = _dense_epanechnikov(obs, grid.points, h)
    got = _epanechnikov_sums(obs, grid.points, h)
    assert np.all(got[ref == 0.0] == 0.0)
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_windows_hold_exactly_the_positive_terms(case):
    # per grid point, [lo, hi) is the run of sorted observations whose
    # rounded term 1 - u^2 is positive, and lo == hi where there is none
    obs, grid, h = AGREEMENT_CASES[case]()
    xs = np.sort(obs)
    lo, hi = kde_module._windows(xs[None], np.array([xs.size]), grid.points, np.array([h]))
    for x, a, b in zip(grid.points, lo[0], hi[0]):
        u = (x - xs) / h
        positive = np.flatnonzero(1.0 - u * u > 0.0)
        if positive.size:
            assert (a, b) == (positive[0], positive[-1] + 1)
        else:
            assert a == b


def _gathered_epanechnikov(obs, points, h):
    # the term-by-term windowed sum that the roundoff fallback keeps bit for
    # bit: each point's terms within h with rounded ends, summed in order
    xs = np.sort(obs)
    lo = np.searchsorted(xs, points - h, side="left")
    hi = np.searchsorted(xs, points + h, side="right")
    raw = np.zeros(points.size)
    for i, (a, b) in enumerate(zip(lo, hi)):
        u = (points[i] - xs[a:b]) / h
        raw[i] = 0.75 * np.bincount(np.zeros(b - a, dtype=np.intp),
                                    np.clip(1.0 - u * u, 0.0, None), minlength=1)[0]
    return raw


@pytest.mark.parametrize("setting", [("_GUARD", 0.0), ("_LONG_MOMENTS", False)])
@pytest.mark.parametrize("case", ["student_t_n512_N1800", "ties", "some_outside", "cauchy_N1800"])
def test_forced_fallback_is_the_gather(monkeypatch, case, setting):
    # a zero guard sends every row with a term to the gather, and so does a
    # long double without extra precision
    obs, grid, h = AGREEMENT_CASES[case]()
    monkeypatch.setattr(kde_module, *setting)
    got = _epanechnikov_sums(obs, grid.points, h)
    assert np.array_equal(got, _gathered_epanechnikov(obs, grid.points, h))


@pytest.mark.parametrize("case, fits", [
    ("student_t_n512_N1800", True), ("cauchy_N1800", True), ("support_at_1e6", True),
    ("h_far_above_width", True), ("h_far_below_step", False),
    ("at_rounded_grid_point_plus_minus_h", False), ("ties_one_h_below_a_grid_6e-8_wide", False),
    ("ties_one_h_below_a_grid_5e-5_wide", False),
])
def test_moment_sums_guard(case, fits):
    # the roundoff bound keeps the moment sums where they hold to 1e-13 of
    # the row's largest sum, and rejects them where |d| = |x - c| / h is
    # large (the long-double part of the bound) or where every term is so
    # small that rounding u in float64 moves it by more (its float64 part)
    obs, grid, h = AGREEMENT_CASES[case]()
    xs, sizes, h = np.sort(obs)[None], np.array([obs.size]), np.array([h])
    lo, hi = kde_module._windows(xs, sizes, grid.points, h)
    assert kde_module._moment_sums(xs, sizes, grid.points, h, lo, hi)[1].tolist() == [fits]


def test_moment_sums_that_overflow_fall_back():
    # y = (X - c) / h passes 1e308 at h = 1e-305: the row is gathered, with
    # no warning, and each point sums its own observation's term 0.75
    points = make_grid(0.0, 1e4, 16).points
    assert np.array_equal(_epanechnikov_sums(points, points, 1e-305),
                          np.full(16, 0.75))


def _normal_student_t_case(sigma_over_h):
    obs = np.random.default_rng(500).standard_t(4, size=500)
    h = float(np.std(obs, ddof=1)) / sigma_over_h
    return obs, make_grid(-6.0, 6.0, 128), h


NORMAL_CASES = {
    "two_observations": lambda: (np.array([0.3, 0.65]), make_grid(0.0, 1.0, 64), 0.2),
    "some_outside": lambda: (
        np.random.default_rng(6).uniform(-1.0, 2.0, size=300), make_grid(0.0, 1.0, 128), 0.1),
    "all_far_outside": lambda: (np.array([-3.0, 2.5, 7.0]), make_grid(0.0, 1.0, 64), 0.2),
    "sigma_over_h_0.01": lambda: _normal_student_t_case(0.01),
    "sigma_over_h_1": lambda: _normal_student_t_case(1.0),
    "sigma_over_h_100": lambda: _normal_student_t_case(100.0),
}


def _check_normal_kde(obs, grid, h):
    try:
        ref = _dense_kde(obs, grid, h, _dense_normal)
    except DegenerateSample:
        with pytest.raises(DegenerateSample):
            kde(obs, grid, "normal", h)
        return
    got = kde(obs, grid, "normal", h).values
    assert got.min() >= 0.0
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()


@pytest.mark.parametrize("case", sorted(NORMAL_CASES))
def test_normal_kde_matches_dense_oracle(case):
    _check_normal_kde(*NORMAL_CASES[case]())


@pytest.mark.parametrize("block", [1, 1000])
def test_normal_kde_over_several_blocks(monkeypatch, block):
    # 1 and 7 observations per block at n=128, the last block a partial one
    obs, grid, h = _normal_student_t_case(1.0)
    monkeypatch.setattr(kde_module, "_KDE_BLOCK", block)
    _check_normal_kde(obs, grid, h)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    obs=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=300),
    h=st.floats(1e-4, 1e3),
    ends=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    n=st.integers(16, 300),
)
def test_windowed_sum_matches_dense_oracle(obs, h, ends, n):
    assume(ends[0] != ends[1])
    obs = np.array(obs)
    points = make_grid(min(ends), max(ends), n).points
    ref = _dense_epanechnikov(obs, points, h)
    got = _epanechnikov_sums(obs, points, h)
    assert np.all(got[ref == 0.0] == 0.0)
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()
    # the normal kernel on the same draw
    ref = _dense_normal(obs, points, h)
    got = kde_module._normal_sums(obs, points, h)
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()


def _per_pair_normal(obs, points, h):
    # the term-by-term sum in (n, block) buffers that the anchor spacing
    # Bs = 1 keeps bit for bit
    step = max(1, kde_module._KDE_BLOCK // points.size)
    buf = np.empty((points.size, min(step, obs.size)))
    scale = np.sqrt(0.5) / h
    raw = np.zeros(points.size)
    for start in range(0, obs.size, step):
        terms = buf[:, : min(step, obs.size - start)]
        np.subtract.outer(points, obs[start : start + step], out=terms)
        terms *= scale
        np.square(terms, out=terms)
        np.negative(terms, out=terms)
        np.exp(terms, out=terms)
        raw += terms.sum(axis=1)
    return raw / np.sqrt(2.0 * np.pi)


@pytest.mark.parametrize("block", [1, 1000, 1 << 22])
@pytest.mark.parametrize("case", sorted(NORMAL_CASES))
def test_unit_anchor_spacing_is_the_per_pair_sum(monkeypatch, case, block):
    obs, grid, h = NORMAL_CASES[case]()
    monkeypatch.setattr(kde_module, "_KDE_BLOCK", block)
    monkeypatch.setattr(kde_module, "_MAX_SPACING", 1)
    got = kde_module._normal_sums(obs, grid.points, h)
    assert np.array_equal(got, _per_pair_normal(obs, grid.points, h))


def test_anchor_spacing_per_row():
    # the study's grid-128 panels take Bs = 32; a wider step a smaller Bs; a
    # step above 1.5 h sqrt(2), or a support whose stored points depart from
    # uniform spacing by more than 1e-14 in kernel units, Bs = 1
    points = make_grid(0.0, 1.0, 128).points
    h = np.array([0.06, 0.02, 0.008, 0.003])
    spacing, step = kde_module._anchor_spacings(points, np.sqrt(0.5) / h)
    assert step == pytest.approx(1.0 / 127, rel=1e-15)
    assert spacing.tolist() == [32, 8, 4, 1]
    for a in (1000.0, 1e6):
        far = make_grid(a, a + 1.0, 128).points
        assert kde_module._anchor_spacings(far, np.sqrt(0.5) / h)[0].tolist() == [1, 1, 1, 1]


@pytest.mark.parametrize("width_share", [0.02, 0.05])
@pytest.mark.parametrize("a", [0.0, 1000.0, 1e6])
def test_normal_sums_on_supports_far_from_zero(a, width_share):
    # on [a, a + 1] the stored points depart from a + i * step by up to an
    # ulp of a; the sums must still be those at the stored points
    grid = make_grid(a, a + 1.0, 128)
    obs = a + np.random.default_rng(19).beta(2.0, 5.0, size=500) * 1.2 - 0.1
    h = width_share * 1.0
    ref = _dense_normal(obs, grid.points, h)
    got = kde_module._normal_sums(obs, grid.points, h)
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()


def test_normal_sums_near_underflow():
    # every observation lies about 37 bandwidths beyond the support, where
    # the last anchor factor exp(-d^2) underflows: the sums are about 1e-297
    grid = make_grid(0.0, 1.0, 128)
    h = 0.05
    obs = 1.0 + 37.0 * h + np.random.default_rng(20).uniform(0.0, 0.2 * h, size=300)
    ref = _dense_normal(obs, grid.points, h)
    assert 0.0 < ref.max() < 1e-250
    got = kde_module._normal_sums(obs, grid.points, h)
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()


def _mixed_rows(size=300):
    # rows whose bandwidths give anchor spacings 32, 16, 8, 2 and 1, and a
    # row beyond the support, all in one (P, N) array
    rng = np.random.default_rng(21)
    rows = [rng.normal(0.5, sd, size=size) for sd in (0.2, 0.1, 0.05, 0.02, 0.005)]
    rows.append(1.0 + 37.0 * 0.05 + rng.uniform(0.0, 0.01, size=size))
    return np.array(rows), np.array([0.05, 0.025, 0.012, 0.003, 0.001, 0.05])


@pytest.mark.parametrize("block", [64, 1 << 14])
def test_normal_sums_of_a_row_do_not_depend_on_its_neighbours(monkeypatch, block):
    # 64 elements split every row into pieces of observations; 1 << 14 puts
    # several rows of one spacing in a chunk
    monkeypatch.setattr(kde_module, "_SEPARABLE_BLOCK", block)
    points = make_grid(0.0, 1.0, 128).points
    rows, h = _mixed_rows()
    together = kde_module._normal_sums(rows, points, h)
    shuffled = kde_module._normal_sums(rows[::-1], points, h[::-1])[::-1]
    assert np.array_equal(together, shuffled)
    for row, b, got in zip(rows, h, together):
        assert np.array_equal(got, kde_module._normal_sums(row, points, b))
        ref = _dense_normal(row, points, b)
        assert np.abs(got - ref).max() <= 1e-12 * ref.max()


# -- estimate_panel ---------------------------------------------------------------------

def test_estimate_panel_identical_blocks():
    g = make_grid(-3.0, 3.0, 128)
    block = np.random.default_rng(3).normal(size=300)
    panel = RawPanel(labels=("1", "2", "3"), blocks=(block, block, block))
    est = estimate_panel(panel, g, "epanechnikov")
    assert len(est) == 3
    assert np.array_equal(est.densities[0].values, est.densities[1].values)
    assert np.array_equal(est.densities[0].values, est.densities[2].values)


def test_estimate_panel_single_period():
    g = make_grid(-3.0, 3.0, 64)
    panel = RawPanel(
        labels=("only",), blocks=(np.random.default_rng(4).normal(size=100),)
    )
    est = estimate_panel(panel, g)
    assert len(est) == 1


def test_estimate_panel_attaches_period_label():
    g = make_grid(-3.0, 3.0, 64)
    panel = RawPanel(labels=("1", "2"), blocks=(np.random.default_rng(0).normal(size=50), np.zeros(40)))
    with pytest.raises(DegenerateSample, match="period '2'"):
        estimate_panel(panel, g)


def _study_like_panel(sizes):
    # periods of draws from moving bell curves on [0, 1], cut to the given sizes
    rng = np.random.default_rng(22)
    blocks = tuple(np.clip(rng.normal(0.5 + 0.1 * np.sin(t), 0.1 + 0.1 * rng.uniform(), m), 0.0, 1.0)
                   for t, m in enumerate(sizes))
    return RawPanel(labels=tuple(str(t + 1) for t in range(len(sizes))), blocks=blocks)


PANEL_SIZES = {
    "equal": [500] * 40,
    "ragged": [100, 100, 300, 300, 300, 120, 500, 500, 100, 100, 100],
}


@pytest.mark.parametrize("blocks", [(1 << 14, 1 << 16), (64, 700)])
@pytest.mark.parametrize("kernel", ["epanechnikov", "normal"])
@pytest.mark.parametrize("sizes", sorted(PANEL_SIZES))
def test_estimate_panel_rows_equal_kde(monkeypatch, sizes, kernel, blocks):
    # batched equals serial: each row is kde() of its block bit for bit,
    # whatever the run and chunk sizes
    monkeypatch.setattr(kde_module, "_SEPARABLE_BLOCK", blocks[0])
    monkeypatch.setattr(kde_module, "_PANEL_BLOCK", blocks[1])
    g = make_grid(0.0, 1.0, 128)
    panel = _study_like_panel(PANEL_SIZES[sizes])
    est = estimate_panel(panel, g, kernel)
    for row, block in zip(est.values, panel.blocks):
        assert np.array_equal(row, kde(block, g, kernel).values)


def test_estimate_panel_reports_the_first_failing_period():
    # period 2 has no mass on the grid and period 3 no spread; both sit in
    # one run of equal-size periods, and period 2 is reported
    g = make_grid(0.0, 1.0, 64)
    rng = np.random.default_rng(23)
    blocks = (rng.uniform(size=50), 40.0 + rng.uniform(size=50), np.zeros(50), rng.uniform(size=50))
    panel = RawPanel(labels=("1", "2", "3", "4"), blocks=blocks)
    for kernel in ("epanechnikov", "normal"):
        with pytest.raises(DegenerateSample, match="period '2': estimated density carries no mass"):
            estimate_panel(panel, g, kernel)
    panel = RawPanel(labels=("1", "2", "3"), blocks=(blocks[0], blocks[2], blocks[1]))
    with pytest.raises(DegenerateSample, match="period '2': need sigma_hat > 0"):
        estimate_panel(panel, g, "normal")


def test_estimate_panel_large_panel_shape():
    # shape contract: 212 periods of ~1880 observations -> 212 unit-mass densities
    rng = np.random.default_rng(2024)
    labels = tuple(str(i + 1).zfill(3) for i in range(212))
    blocks = tuple(
        rng.normal(0.0, 0.001, size=rng.integers(1550, 1905)) for _ in range(212)
    )
    panel = RawPanel(labels=labels, blocks=blocks)
    g = make_grid(-0.0043, 0.0043, 256)
    est = estimate_panel(panel, g, "epanechnikov")
    assert len(est) == 212
    one = g.constant(1.0)
    for f in est.densities:
        assert inner(one, f) == pytest.approx(1.0, abs=1e-10)
        assert f.values.min() >= 0.0


def test_density_panel_is_one_readonly_array():
    g = make_grid(0.0, 1.0, 64)
    raw = RawPanel(labels=tuple(str(t) for t in range(6)),
                   blocks=tuple(np.random.default_rng(t).beta(2, 5, 300) for t in range(6)))
    panel = estimate_panel(raw, g, "epanechnikov")
    assert panel.values.shape == (6, g.n)
    assert not panel.values.flags.writeable
    with pytest.raises(ValueError):
        panel.values[0, 0] = 1.0
    for row, f in zip(panel.values, panel.densities):
        assert np.array_equal(row, f.values)
    head = panel.head(4)
    assert np.shares_memory(head.values, panel.values)
    assert np.array_equal(head.values, panel.values[:4])
    assert head.labels == panel.labels[:4]


def test_raw_panel_is_one_readonly_array():
    blocks = [np.random.default_rng(t).normal(size=50 + 10 * t) for t in range(4)]
    raw = RawPanel(labels=("1", "2", "3", "10"), blocks=blocks)
    assert raw.values.ndim == 1 and raw.values.dtype == np.float64
    assert not raw.values.flags.writeable and not raw.offsets.flags.writeable
    with pytest.raises(ValueError):
        raw.values[0] = 1.0
    assert np.array_equal(raw.values, np.concatenate(blocks))
    assert raw.offsets.tolist() == [0, 50, 110, 180, 260]
    assert np.array_equal(raw.counts, np.diff(raw.offsets))
    for t, (view, block) in enumerate(zip(raw.blocks, blocks)):
        assert np.shares_memory(view, raw.values)
        assert not view.flags.writeable
        assert np.array_equal(view, block)
        assert np.array_equal(view, raw.values[raw.offsets[t] : raw.offsets[t + 1]])
    # the constructor copies its blocks once, so a caller's later edit does not reach it
    blocks[0][:] = 0.0
    assert not np.array_equal(raw.blocks[0], blocks[0])
    assert np.array_equal(raw.values[:50], np.random.default_rng(0).normal(size=50))


def test_density_panel_rejects_bad_mass():
    g = make_grid(0.0, 1.0, 64)
    with pytest.raises(ValueError):
        DensityPanel(grid=g, densities=(g.constant(2.0),), labels=("1",))
