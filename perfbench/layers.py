"""Per-layer metrics derived from the spans of one traced workload iteration.

A span's self time is its duration minus the time its child spans cover.
Calls run serially, so children never overlap and their durations add up.
The layers are the modules of src/densfar; `threads` is `_threads`, renamed
because a metric name has to start with a letter.
"""

import statistics

from traced import ITEM_SPAN, ROOT_SPAN

SELF_TIMES = {
    "cli.self_s": ROOT_SPAN,
    "io.read_observations.self_s": "io.read_observations",
    "io.save_model.self_s": "io.save_model",
    "io.load_model.self_s": "io.load_model",
    "io.write_csv.self_s": "io.write_csv",
    "kde.estimate_panel.self_s": "kde.estimate_panel",
    "kde.kde.self_s": "kde.kde",
    "kde.select_support.self_s": "kde.select_support",
    "estimation.fit.self_s": "estimation.fit",
    "grid.eigh_operator.self_s": "grid.eigh_operator",
    "grid.compose.self_s": "grid.compose",
    "grid.apply_operator.self_s": "grid.apply_operator",
    "forecast.select_K_cv.self_s": "forecast.select_K_cv",
    "forecast.rolling_backtest.self_s": "forecast.rolling_backtest",
    "forecast.make_forecast.self_s": "forecast.make_forecast",
    "analysis.moment_basis.self_s": "analysis.moment_basis",
    "analysis.variance_decomposition.self_s": "analysis.variance_decomposition",
    "bootstrap.residual_bootstrap.self_s": "bootstrap.residual_bootstrap",
    "simulate.run_study.self_s": "simulate.run_study",
    "simulate.simulate_far.self_s": "simulate.simulate_far",
    "simulate.acceptance_sample.self_s": "simulate.acceptance_sample",
    "threads.parallel_map.self_s": "_threads.parallel_map",
}
CALLS = {
    "kde.kde.calls": "kde.kde",
    "estimation.fit.calls": "estimation.fit",
    "grid.eigh_operator.calls": "grid.eigh_operator",
    "grid.apply_operator.calls": "grid.apply_operator",
    "forecast.error_metrics.calls": "forecast.error_metrics",
    "simulate.noise_sampler.calls": "simulate.noise_sampler",
    "simulate.acceptance_sample.calls": "simulate.acceptance_sample",
    "threads.parallel_map.items": ITEM_SPAN,
}
UNITS = dict.fromkeys(SELF_TIMES, "s") | dict.fromkeys(CALLS, "count") | {
    "cli.import_s": "s",
    "io.bytes_written": "B",
    "kde.kernel_evals": "count",
    "estimation.fit.failed": "count",
    "grid.eigh_operator.n3": "count",
    "forecast.select_K_cv.fits": "count",
    "forecast.fit_prefix_ratio": "ratio",
    "bootstrap.replication_s": "s",
    "bootstrap.replications": "count",
    "bootstrap.dropped": "count",
    "simulate.iteration_s": "s",
    "simulate.dropped": "count",
    "trace.overhead_ratio": "ratio",
    # wall time of each CLI command with tracing off, from the same run
    "cmd.estimate_s": "s",
    "cmd.forecast_s": "s",
    "cmd.analyze_s": "s",
    "cmd.backtest_s": "s",
    "cmd.simulate_s": "s",
}


def _ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def _items_under(spans, loop):
    # work items of a parallel_map that `loop` called directly
    return [
        s for s in spans
        if s[0] == ITEM_SPAN and spans[s[3]][3] >= 0
        and spans[spans[s[3]][3]][0] == loop
    ]


def command_metrics(spans):
    """Sums and counts over the spans of one command (one process)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = {}
    calls = {}
    for (name, start, end, parent, attrs), covered in zip(spans, child_time):
        self_time[name] = self_time.get(name, 0.0) + (end - start - covered)
        calls[name] = calls.get(name, 0) + 1

    def attr_sum(name, key):
        return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name)

    m = {key: self_time.get(name, 0.0) for key, name in SELF_TIMES.items()}
    m.update({key: calls.get(name, 0) for key, name in CALLS.items()})
    m["io.bytes_written"] = sum(
        attr_sum(name, "bytes") for name in ("io.save_model", "io.write_csv", "io.write_json")
    )
    m["kde.kernel_evals"] = attr_sum("kde.kde", "evals")
    m["grid.eigh_operator.n3"] = sum(
        (s[4] or {}).get("n", 0) ** 3 for s in spans if s[0] == "grid.eigh_operator"
    )
    fits = [i for i, s in enumerate(spans) if s[0] == "estimation.fit"]
    m["estimation.fit.failed"] = sum("error" in (spans[i][4] or {}) for i in fits)
    forecast_fits = []
    m["forecast.select_K_cv.fits"] = 0
    for i in fits:
        above = set(_ancestors(spans, i))
        m["forecast.select_K_cv.fits"] += "forecast.select_K_cv" in above
        if above & {"forecast.select_K_cv", "forecast.rolling_backtest"}:
            forecast_fits.append(i)
    # a failed fit records no prefix and counts as a prefix of its own
    prefixes = {
        tuple((spans[i][4] or {}).get("prefix") or ("failed", i)) for i in forecast_fits
    }
    m["forecast.fit_prefix_ratio"] = (
        len(prefixes) / len(forecast_fits) if forecast_fits else 0.0
    )
    for loop, prefix in (("bootstrap.residual_bootstrap", "bootstrap"),
                         ("simulate.run_study", "simulate")):
        items = _items_under(spans, loop)
        m[f"{prefix}.dropped"] = sum(bool((s[4] or {}).get("dropped")) for s in items)
        durations = [s[2] - s[1] for s in items]
        if prefix == "bootstrap":
            m["bootstrap.replications"] = len(items)
            m["bootstrap.replication_s"] = statistics.median(durations) if durations else 0.0
        else:
            m["simulate.iteration_s"] = statistics.median(durations) if durations else 0.0
    return m


# Each of these comes from a single command of a workload, so the iteration
# takes the one nonzero value instead of a sum.
_NOT_ADDITIVE = ("bootstrap.replication_s", "simulate.iteration_s", "forecast.fit_prefix_ratio")


def iteration_metrics(command_traces):
    """Per-layer metrics of one traced iteration: sums over its commands,
    with import time as the median over its processes."""
    per_command = [command_metrics(t["spans"]) for t in command_traces] or [command_metrics([])]
    total = {
        key: (max if key in _NOT_ADDITIVE else sum)(m[key] for m in per_command)
        for key in per_command[0]
    }
    total["cli.import_s"] = statistics.median([t["import_s"] for t in command_traces] or [0.0])
    return total
