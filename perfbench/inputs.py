"""Seeded input generation for the benchmark, in plain numpy.

The inputs are made here rather than through ``densfar.simulate`` so that a
change to the program cannot change what the benchmark feeds it.
"""

import json

import numpy as np

PERIODS = 212
OBS_RANGE = (1700, 1900)


def write_panel(path, seed):
    """Write a monthly panel of intraday-like returns as `period,value` CSV.

    Returns are Student-t (4 degrees of freedom) with a two-piece skew; the
    log scale and the skew follow persistent AR(1) paths across months, so
    the densities have real dynamics and every prefix keeps a usable rank
    far above 8. Returns the number of rows written.
    """
    rng = np.random.default_rng([seed, 1])
    counts = rng.integers(OBS_RANGE[0], OBS_RANGE[1] + 1, size=PERIODS)
    log_scale = np.empty(PERIODS)
    skew = np.empty(PERIODS)
    log_scale[0], skew[0] = rng.normal(0.0, 0.3, size=2)
    for t in range(1, PERIODS):
        log_scale[t] = 0.85 * log_scale[t - 1] + rng.normal(0.0, 0.15)
        skew[t] = 0.8 * skew[t - 1] + rng.normal(0.0, 0.15)
    # One period at a time: a child process's peak RSS includes its parent's,
    # so the benchmark's own process must stay small.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("period,value\n")
        for t in range(PERIODS):
            z = rng.standard_t(4, size=counts[t])
            z = np.where(z < 0.0, z * np.exp(-skew[t]), z * np.exp(skew[t]))
            label = f"{2000 + t // 12}-{t % 12 + 1:02d}"
            fh.write("".join(f"{label},{v!r}\n"
                             for v in (1e-3 * np.exp(log_scale[t]) * z).tolist()))
    return int(counts.sum())


def write_study_config(path, seed, iterations):
    """Write a synthetic Monte Carlo study config: grid 128, T in {50, 100},
    N in {100, 500}, K=4, normal kernel, three cosine modes.

    The dynamics are fixed and only the study's random streams come from the
    seed, so the sampler's work, which depends on the densities' shape, stays
    the same from seed to seed.
    """
    rng = np.random.default_rng([seed, 2])
    config = {
        "generator": {
            "synthetic": {
                "support": [0.0, 1.0],
                "grid_n": 128,
                "strengths": [0.8, 0.6, 0.45],
                "noise_sds": [0.05, 0.04, 0.03],
            }
        },
        "T_values": [50, 100],
        "N_values": [100, 500],
        "iterations": iterations,
        "seed": int(rng.integers(0, 2**31)),
        "K": 4,
        "kernel": "normal",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
