"""Shared fixtures and synthetic builders for the test suite."""

import os

import numpy as np
import pytest

from densfar._threads import _BLAS_VARIABLES
from densfar.grid import GridFunction, GridSpec, OperatorRep, make_grid


@pytest.fixture
def forks(monkeypatch):
    """The one way a test picks a worker pool: `forks(cpus, **blas)` patches
    the available CPUs to `cpus`, sets the given BLAS thread variables and
    unsets the others (none set: serial), and returns the list of forks made
    since; more than `cpus` - 1 forks fail the test before the extra process
    starts."""
    calls, fork = [], os.fork

    def pool(cpus, **blas):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for name in _BLAS_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for name, value in blas.items():
            monkeypatch.setenv(name, value)

        def counting_fork():
            calls.append(None)
            assert len(calls) < cpus, "more forks than the CPUs allow"
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return calls

    return pool


@pytest.fixture
def grid64():
    return make_grid(0.0, 1.0, 64)


@pytest.fixture
def grid48():
    return make_grid(0.0, 1.0, 48)


@pytest.fixture
def sym_grid():
    return make_grid(-1.0, 1.0, 128)


def orthonormal_functions(grid: GridSpec, m: int, rng) -> list:
    """m random functions, orthonormal under the quadrature inner product."""
    x = rng.standard_normal((grid.n, m))
    q, _ = np.linalg.qr(np.sqrt(grid.weights)[:, None] * x)
    return [GridFunction(grid, q[:, k] / np.sqrt(grid.weights)) for k in range(m)]


def random_psd_operator(grid: GridSpec, rng, rank=None) -> OperatorRep:
    """Random symmetric PSD kernel with the given rank (full by default)."""
    rank = grid.n if rank is None else rank
    funcs = orthonormal_functions(grid, rank, rng)
    lams = np.sort(rng.uniform(0.1, 2.0, size=rank))[::-1]
    kernel = np.zeros((grid.n, grid.n))
    for lam, f in zip(lams, funcs):
        kernel += lam * np.outer(f.values, f.values)
    return OperatorRep(grid, kernel)


def triangular_density(grid: GridSpec) -> GridFunction:
    """Symmetric triangular density peaked at the support midpoint."""
    a, b = grid.a, grid.b
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = (1.0 - np.abs(grid.points - mid) / half) / half
    return GridFunction(grid, np.clip(vals, 0.0, None))


def uniform_density(grid: GridSpec) -> GridFunction:
    return GridFunction(grid, np.full(grid.n, 1.0 / (grid.b - grid.a)))


def iterate_far(A: OperatorRep, noise_values, w0=None) -> list:
    """Run w_t = A w_{t-1} + e_t over the given noise draws (value arrays)."""
    grid = A.grid
    a_w = A.kernel * grid.weights[None, :]
    w = np.zeros(grid.n) if w0 is None else np.asarray(w0, dtype=float)
    out = []
    for eps in noise_values:
        w = a_w @ w + eps
        out.append(GridFunction(grid, w))
    return out


def centered_poly_basis(grid: GridSpec, m: int) -> list:
    """Zero-integral polynomials of degrees 1..m, L2-orthonormal on the grid."""
    w = grid.weights
    out = []
    for k in range(1, m + 1):
        vals = grid.points**k
        vals = vals - np.dot(w, vals) / (grid.b - grid.a)
        for _ in range(2):
            for q in out:
                vals = vals - np.dot(w * q.values, vals) * q.values
        vals /= np.sqrt(np.dot(w, vals * vals))
        out.append(GridFunction(grid, vals))
    return out


def population_construction(grid: GridSpec, m: int = 4, seed: int = 0, radius: float = 0.8):
    """Stationary population (A, Sigma, Q, span) on a polynomial span.

    A and Sigma act on the span of m orthonormal centered polynomials; Q is
    the truncated series sum_j A^j Sigma A*^j carried far enough that the
    tail is below 1e-10. Returned as operator kernels plus the span basis.
    """
    rng = np.random.default_rng(seed)
    q = centered_poly_basis(grid, m)
    M = rng.standard_normal((m, m))
    M *= radius / np.max(np.abs(np.linalg.eigvals(M)))
    s2 = rng.uniform(0.5, 1.5, size=m)

    # coordinate-space series: all operators are m x m on the span
    S = np.diag(s2)
    Qc = np.zeros((m, m))
    term = S.copy()
    for _ in range(120):
        Qc += term
        term = M @ term @ M.T
    basis = np.stack([qi.values for qi in q])

    def lift(C):
        return OperatorRep(grid, basis.T @ C @ basis)

    return lift(M), lift(S), lift(Qc), q
