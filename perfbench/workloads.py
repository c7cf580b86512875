"""The three benchmark workloads: their inputs, CLI commands and output checks.

Each workload is a closed loop of CLI commands run one after another by a
single client. Every command's outputs are checked for the invariants the
program promises and compared with reference outputs recorded from the
commit that introduced the benchmark (see reference.json and record.py).
"""

import csv
import json
import math
import os
import re

import inputs

WORKLOADS = ("pipeline", "backtest", "study")
K_CANDIDATES = range(1, 9)
BACKTEST_N_TEST = 5
BOOTSTRAP_B = 100
STUDY_ITERATIONS = 30
MASS_TOL = 1e-9
# Iterations one run measures at the run_seconds of BENCHMARK.json (30-50 s on
# a 2-vCPU VM); other --seconds scale the count.
ITERATIONS = {"pipeline": 2, "backtest": 2, "study": 3}


def write_inputs(seed, input_dir):
    """Generate the seed's input files, the panel and the study config, and
    return their paths. Every workload writes both, so that set-up is the same
    work everywhere: the study config alone takes well under a millisecond, a
    time the file system's latency swings by a factor of two between runs."""
    os.makedirs(input_dir, exist_ok=True)
    files = {"panel": os.path.join(input_dir, "panel.csv"),
             "config": os.path.join(input_dir, "study.json")}
    inputs.write_panel(files["panel"], seed)
    inputs.write_study_config(files["config"], seed, STUDY_ITERATIONS)
    return files


def commands(workload, files, out_dir, seed):
    """The (name, argv) pairs one iteration of the workload runs, in order."""
    k_range = f"{K_CANDIDATES[0]}..{K_CANDIDATES[-1]}"
    if workload == "pipeline":
        model = os.path.join(out_dir, "model.bin")
        return [
            ("estimate", ["estimate", "--input", files["panel"], "--grid-n", "512",
                          "--K-candidates", k_range, "--out", model]),
            ("forecast", ["forecast", "--model", model, "--input", files["panel"],
                          "--out-dir", os.path.join(out_dir, "forecast")]),
            ("analyze", ["analyze", "vardecomp", "--model", model,
                         "--out-dir", os.path.join(out_dir, "analyze"),
                         "--functional", "moment:1",
                         "--bootstrap", str(BOOTSTRAP_B), "--seed", str(seed)]),
        ]
    if workload == "backtest":
        return [
            ("backtest", ["backtest", "--input", files["panel"], "--grid-n", "512",
                          "--n-test", str(BACKTEST_N_TEST), "--K-candidates", k_range,
                          "--out", os.path.join(out_dir, "backtest.csv")]),
        ]
    return [("simulate", ["simulate", "--config", files["config"],
                          "--out", os.path.join(out_dir, "study.csv")])]


# -- reading outputs ---------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _floats(rows, column):
    return [float(r[column]) for r in rows]


# -- per-command observables and invariants ------------------------------------------
#
# Each function returns (observables, problems). Observables are the numbers
# compared with the recorded reference; problems are broken invariants.

def _estimate(out_dir, stdout):
    problems = []
    match = re.search(r"fitted K=(\d+)", stdout)
    K = int(match.group(1)) if match else None
    if K not in K_CANDIDATES:
        problems.append(f"estimate: selected K={K} outside the candidates")
    rows = _read_csv(os.path.join(out_dir, "model.bin.scree.csv"))
    eig = _floats(rows, "eigenvalue")
    if len(eig) != 10 or any(b > a for a, b in zip(eig, eig[1:])) or min(eig) < 0.0:
        problems.append("estimate: scree is not 10 descending nonnegative eigenvalues")
    return {"K": K, "scree": eig}, problems


def _forecast(out_dir, stdout):
    problems = []
    fc_dir = os.path.join(out_dir, "forecast")
    meta = _read_json(os.path.join(fc_dir, "forecast_meta.json"))
    grid = meta["grid"]
    f = _floats(_read_csv(os.path.join(fc_dir, "forecast.csv")), "f_step1")
    if len(f) != grid["n"]:
        problems.append("forecast: density length differs from the grid size")
    h = (grid["b"] - grid["a"]) / (grid["n"] - 1)
    mass = h * (math.fsum(f) - 0.5 * (f[0] + f[-1]))
    if not (min(f) >= 0.0 and abs(mass - 1.0) <= MASS_TOL):
        problems.append(f"forecast: density has negative values or mass {mass!r}")
    if meta["K"] not in K_CANDIDATES:
        problems.append(f"forecast: model K={meta['K']} outside the candidates")
    intervals = _read_csv(os.path.join(fc_dir, "intervals.csv"))
    lower, upper = _floats(intervals, "lower"), _floats(intervals, "upper")
    if len(intervals) != 2 or not all(lo <= hi for lo, hi in zip(lower, upper)):
        problems.append("forecast: an interval has lower > upper")
    observed = {
        "K": meta["K"],
        # every 8th grid point keeps the recorded reference small
        "density": f[::8],
        "center": _floats(intervals, "center"),
        "lower": lower,
        "upper": upper,
    }
    return observed, problems


def _analyze(out_dir, stdout):
    problems = []
    an_dir = os.path.join(out_dir, "analyze")
    meta = _read_json(os.path.join(an_dir, "analyze_meta.json"))
    rows = _read_csv(os.path.join(an_dir, "vardecomp_moment_1.csv"))
    lower, upper = _floats(rows, "lower"), _floats(rows, "upper")
    if len(rows) != 10 or not all(lo <= hi for lo, hi in zip(lower, upper)):
        problems.append("analyze: a band has lower > upper")
    if meta["K"] not in K_CANDIDATES:
        problems.append(f"analyze: model K={meta['K']} outside the candidates")
    observed = {
        "K": meta["K"],
        "dropped": meta["dropped"]["moment_1"],
        "r_squared": [meta["r_squared"]["moment_1"]["value"]],
        "point": _floats(rows, "point"),
        "lower": lower,
        "upper": upper,
    }
    return observed, problems


def _backtest(out_dir, stdout):
    problems = []
    path = os.path.join(out_dir, "backtest.csv")
    meta = _read_json(path + ".meta.json")
    selected = meta["selected_K"]
    if len(selected) != BACKTEST_N_TEST or any(k not in K_CANDIDATES for k in selected):
        problems.append(f"backtest: selected K {selected} outside the candidates")
    rows = _read_csv(path)
    values = _floats(rows, "mean") + _floats(rows, "median")
    if len(rows) != 18 or not all(math.isfinite(v) and v >= 0.0 for v in values):
        problems.append("backtest: report is not 18 rows of finite nonnegative errors")
    return {"selected_K": selected, "errors": values}, problems


def _simulate(out_dir, stdout):
    problems = []
    path = os.path.join(out_dir, "study.csv")
    meta = _read_json(path + ".meta.json")
    rows = _read_csv(path)
    values = [float(v) for r in rows for k, v in r.items() if k not in ("T", "measure")]
    if len(rows) != 12 or len(values) != 144 or not all(
        math.isfinite(v) and v >= 0.0 for v in values
    ):
        problems.append("simulate: table is not 12 rows of finite nonnegative errors")
    dropped = [meta["dropped"][key] for key in sorted(meta["dropped"])]
    return {"dropped": dropped, "table": values}, problems


_CHECKS = {
    "estimate": (_estimate, ["model.bin", "model.bin.scree.csv"]),
    "forecast": (_forecast, ["forecast/forecast.csv", "forecast/intervals.csv",
                             "forecast/forecast_meta.json"]),
    "analyze": (_analyze, ["analyze/vardecomp_moment_1.csv", "analyze/analyze_meta.json"]),
    "backtest": (_backtest, ["backtest.csv", "backtest.csv.meta.json"]),
    "simulate": (_simulate, ["study.csv", "study.csv.meta.json"]),
}


def observe(command, out_dir, stdout):
    """Check one command's outputs; returns (observables, problems)."""
    check, expected = _CHECKS[command]
    missing = [p for p in expected if not os.path.isfile(os.path.join(out_dir, p))]
    if missing:
        return None, [f"{command}: missing output files {missing}"]
    try:
        return check(out_dir, stdout)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return None, [f"{command}: unreadable output: {exc!r}"]


def compare(observed, reference, rtol):
    """Problems where observed numbers differ from the reference.

    Integers must match exactly. Floats in a list may differ by rtol times
    the largest magnitude in the reference list, which tolerates the
    last-digit changes a different summation order makes.
    """
    problems = []
    for key, ref in reference.items():
        got = observed.get(key)
        if isinstance(ref, list) and ref and isinstance(ref[0], float):
            scale = max(abs(v) for v in ref)
            if got is None or len(got) != len(ref) or not all(
                abs(g - r) <= rtol * scale for g, r in zip(got, ref)
            ):
                problems.append(f"{key} differs from the reference")
        elif got != ref:
            problems.append(f"{key}: {got!r} differs from the reference {ref!r}")
    return problems
