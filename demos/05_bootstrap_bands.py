"""Residual bootstrap confidence bands.

Bands are built by resampling centered fitted residuals, regenerating the
panel through the fitted operator, refitting at the same truncation level,
and taking pointwise percentiles of each re-evaluated statistic. One call
evaluates every named statistic on the same refits.
"""

import numpy as np

from densfar import (
    fit,
    impulse_response,
    irf_statistic,
    make_cosine_generator,
    make_grid,
    moment_functional,
    r_squared_statistic,
    residual_bootstrap,
    simulate_far,
    vardecomp_statistic,
)

grid = make_grid(0.0, 1.0, 96)
generator = make_cosine_generator(
    grid, strengths=(0.8, 0.6), noise_sds=(0.05, 0.04)
)
panel = simulate_far(generator, T=149, seed=21, burn_in=150)
model = fit(panel, K=2)

i2 = moment_functional(2, grid)

# one set of 500 refits serves three statistics of the second moment: its
# impulse-response curve, its predictable-variance share, and its
# variance-decomposition shares over two lagged moments
bands = residual_bootstrap(
    model,
    {
        "irf": irf_statistic(i2),
        "r_squared": r_squared_statistic(i2),
        "vardecomp": vardecomp_statistic(i2, kmax=2),
    },
    B=500,
    alpha=0.05,
    seed=1,
)

band = bands["irf"]
point = impulse_response(model.A_hat, i2).values
width = band.upper - band.lower
print(f"IRF band from B={band.B} replications ({band.n_dropped} dropped)")
print(f"  band width: mean {width.mean():.5f}, max {width.max():.5f}")
inside = np.mean((band.lower <= point) & (point <= band.upper))
print(f"  point estimate inside its own band at {inside:.0%} of grid points")

# scalar statistic: predictable-variance share of the second moment
band_r2 = bands["r_squared"]
print(f"R^2 of the second moment: {band_r2.point[0]:.3f} "
      f"with 95% band [{band_r2.lower[0]:.3f}, {band_r2.upper[0]:.3f}]")

# vector statistic: variance-decomposition shares over two lagged moments
band_vd = bands["vardecomp"]
for k in range(2):
    print(f"share of lagged moment k={k + 1}: {band_vd.point[k]:.3f} "
          f"[{band_vd.lower[k]:.3f}, {band_vd.upper[k]:.3f}]")

# determinism: a call naming one statistic with the same seed reproduces its
# band bit for bit
again = residual_bootstrap(
    model, {"r_squared": r_squared_statistic(i2)}, B=500, alpha=0.05, seed=1
)["r_squared"]
print("same seed, same band:", bool(np.array_equal(band_r2.lower, again.lower)))
