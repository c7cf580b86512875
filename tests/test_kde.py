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


def _dense_kde(obs, grid, h):
    raw = _dense_epanechnikov(obs, grid.points, h) / (obs.size * h)
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
    got = kde_module._epanechnikov_sums(obs, points, h)
    assert np.all(got[ref == 0.0] == 0.0)
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


def test_density_panel_rejects_bad_mass():
    g = make_grid(0.0, 1.0, 64)
    with pytest.raises(ValueError):
        DensityPanel(grid=g, densities=(g.constant(2.0),), labels=("1",))
