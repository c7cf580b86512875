"""Grid-discretized function space: inner products, operators, spectra.

Everything in densfar lives on a shared uniform grid with trapezoid
quadrature. This walkthrough builds a grid, checks quadrature accuracy,
plays with rank-one operators, and decomposes a covariance-like kernel.
"""

import numpy as np

from densfar import (
    GridFunction,
    OperatorRep,
    apply_operator,
    eigh_operator,
    inner,
    leading_features,
    make_grid,
    outer,
    project_zero_integral,
)

# ---------------------------------------------------------------- the grid
grid = make_grid(0.0, 1.0, 512)
print(f"grid: [{grid.a}, {grid.b}] with n={grid.n}, spacing h={grid.h:.5f}")
print(f"weights sum to b - a: {grid.weights.sum():.15f}")

# quadrature is second-order accurate: integrate sin(pi x)^2 = 1/2
f = GridFunction(grid, np.sin(np.pi * grid.points))
print(f"int sin^2(pi x) dx = {inner(f, f):.10f}  (exact 0.5)")

# ------------------------------------------------- zero-integral subspace
# demeaned densities integrate to zero; projection removes the mean level
g = GridFunction(grid, grid.points**2)
g0 = project_zero_integral(g)
print(f"<1, x^2> = {inner(grid.constant(1.0), g):.6f} -> after projection "
      f"{inner(grid.constant(1.0), g0):.2e}")

# ------------------------------------------------------ rank-one operators
phi = g0 * (1.0 / np.sqrt(inner(g0, g0)))
proj = outer(phi, phi)
print(f"projector reproduces its direction: "
      f"{np.abs(apply_operator(proj, phi).values - phi.values).max():.2e}")

# ------------------------------------------------------- spectral analysis
rng = np.random.default_rng(0)
draws = [project_zero_integral(GridFunction(grid, rng.standard_normal(grid.n)))
         for _ in range(6)]
kernel = sum(np.outer(d.values, d.values) for d in draws) / len(draws)
Q = OperatorRep(grid, kernel)
eig = eigh_operator(Q)
print("top eigenvalues of a 6-sample covariance:", np.round(eig.eigenvalues[:8], 4))
print("eigenfunctions are orthonormal under quadrature:",
      f"{inner(eig.functions[0], eig.functions[1]):.2e}",
      f"{inner(eig.functions[0], eig.functions[0]):.6f}")

# the singular system of a non-symmetric operator separates input/output
A = OperatorRep(grid, 0.9 * np.outer(eig.functions[0].values, eig.functions[1].values))
feats = leading_features(A, 2)
print("singular values of a rank-one transition:", np.round(feats.strengths, 4))
