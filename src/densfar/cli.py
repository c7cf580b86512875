"""Command-line pipelines: estimate, forecast, analyze, backtest, simulate,
and sample.

Every command validates its inputs before computing, writes output files
atomically, and serializes numbers with 17 significant digits, so repeated
invocations with identical inputs and seeds produce byte-identical files.
Exit codes: 0 success, 1 validation error (bad usage, unreadable or
malformed inputs), 2 runtime error (the pipeline itself failed); every
error is one line on stderr.

A flag's default and range check live in its add_argument: its type
converter rejects a bad value while the command line is parsed. Only checks
that need two flags (--grid-a with --grid-b) or the loaded model (-m against
the grid size, --functional specs) run in the command body.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import io as dfio
from .analysis import (
    DEFAULT_KMAX,
    impulse_response,
    leading_features,
    moment_basis,
    moment_functional,
    tail_indicator,
    variance_decomposition,
)
from .bootstrap import (
    irf_statistic,
    residual_bootstrap,
    vardecomp_statistic,
)
from .errors import DensfarError, EmptyFile, FormatError, ParseError, TooFewPeriods
from .estimation import fit
from .forecast import (
    feature_interval,
    make_forecast,
    rolling_backtest,
    select_K_cv,
)
from .grid import (MAX_GRID_SIZE, MIN_GRID_SIZE, GridFunction, inner, make_grid,
                   project_zero_integral, quantile)
from .kde import KERNELS, RawPanel, estimate_panel, select_support
from .simulate import (
    FarGenerator,
    StudyConfig,
    acceptance_sample,
    make_cosine_generator,
    run_study,
)

__all__ = ["main", "cli_dispatch"]

DEFAULT_K_CANDIDATES = "1..8"
# a forecast keeps two grid functions and writes one CSV column per step
MAX_HORIZON = 1000
# sample holds its draws in memory and writes one CSV row per draw
MAX_SAMPLE_SIZE = 10_000_000


class _ValidationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # a usage error is one "error:" line with exit code 1, like every bad flag
    def error(self, message):
        raise _ValidationFailure(f"{self.prog}: {message}; see '{self.prog} --help' for usage")


def _flag(kind, ok, message):
    """Argparse type for one flag: ``kind(text)``, then unless ``ok(value)`` a
    validation failure with ``message.format(value)``.

    Argparse turns the ``ValueError`` of ``kind`` into a usage error and lets
    the failure through ``parse_args``, so a bad value stops the command
    before it reads any input.
    """
    def convert(text):
        value = kind(text)
        if not ok(value):
            raise _ValidationFailure(message.format(value))
        return value
    convert.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return convert


_EXISTING_PATH = _flag(str, os.path.exists, "input path does not exist: {}")


def _output_path(flag):
    # an output file's directory must exist, so a typo stops the command
    # before it reads or writes anything
    return _flag(str, lambda path: os.path.isdir(os.path.dirname(path) or os.curdir),
                 f"{flag}: directory of {{}} does not exist")


_N_VALIDATION = _flag(int, lambda n: n >= 1, "--n-validation must be >= 1")
# the interval's normal quantile is taken at 1 - alpha/2, which must differ from 1
_ALPHA = _flag(_flag(float, lambda a: 0.0 < a < 1.0, "--alpha must lie in (0, 1)"),
               lambda a: 1.0 - a / 2.0 < 1.0, "--alpha is too small for 1 - alpha/2 < 1, got {}")
_SEED = _flag(int, lambda s: s >= 0, "--seed must be >= 0, got {}")


def _K_candidates(text: str) -> list:
    text = text.strip()
    lo, dots, hi = text.partition("..")
    try:
        ends = [int(lo), int(hi)] if dots else [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise _ValidationFailure(
            f"cannot parse K candidates {text!r}; use e.g. '1..8' or '1,2,4'"
        ) from None
    # no K above the largest grid is within the usable rank min(T, n)
    if ends and max(ends) > MAX_GRID_SIZE:
        raise _ValidationFailure(f"--K-candidates must not exceed {MAX_GRID_SIZE}, got {text!r}")
    if dots:  # from 0 at most: a lower end below 1 fails below, so build no long range
        ends = list(range(max(ends[0], 0), ends[1] + 1))
    if not ends or min(ends) < 1:
        raise _ValidationFailure(f"K candidates must be >= 1, got {text!r}")
    return ends


def _validated(fn, *args, **kwargs):
    # input-phase helper: any library error here is a validation failure
    try:
        return fn(*args, **kwargs)
    except DensfarError as exc:
        raise _ValidationFailure(str(exc)) from exc


def _build_panel(args):
    if (args.grid_a is None) != (args.grid_b is None):
        raise _ValidationFailure("--grid-a and --grid-b must be given together")
    if args.grid_a is not None and not args.grid_a < args.grid_b:
        raise _ValidationFailure(f"need --grid-a < --grid-b, got {args.grid_a} >= {args.grid_b}")
    raw = _validated(dfio.read_observations, args.input)
    if args.grid_a is not None:
        a, b = args.grid_a, args.grid_b
    else:
        a, b = _validated(select_support, raw, args.coverage)
    grid = _validated(make_grid, a, b, args.grid_n)
    return _validated(estimate_panel, raw, grid, args.kernel)


def _make_out_dir(path):
    # the first write of the command, so a bad --out-dir leaves no output
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _ValidationFailure(f"cannot create --out-dir: {exc}") from exc


def _add_panel_options(p):
    p.add_argument("--input", required=True, type=_EXISTING_PATH,
                   help="observation CSV (period,value)")
    p.add_argument("--grid-n", default=512, help="grid size", type=_flag(
        int, lambda n: MIN_GRID_SIZE <= n <= MAX_GRID_SIZE,
        f"--grid-n must be in {MIN_GRID_SIZE}..{MAX_GRID_SIZE}, got {{}}"))
    p.add_argument("--grid-a", type=float, default=None, help="support lower bound")
    p.add_argument("--grid-b", type=float, default=None, help="support upper bound")
    p.add_argument(
        "--coverage",
        type=_flag(float, lambda c: 0.5 < c < 1.0, "--coverage must lie in (0.5, 1), got {}"),
        default=0.999,
        help="pooled-quantile coverage for automatic support selection",
    )
    p.add_argument("--kernel", choices=KERNELS, default="epanechnikov")


def _table_csv(path, key, keys, columns):
    # one row per key (grid point x or moment k), one float column per named array
    rows = [{key: k, **{name: float(col[i]) for name, col in columns.items()}}
            for i, k in enumerate(keys)]
    dfio.write_csv(path, [key, *columns], rows)


# -- estimate -------------------------------------------------------------------

def _cmd_estimate(args) -> int:
    panel = _build_panel(args)
    if args.K is not None:
        K = args.K
    else:
        K = select_K_cv(panel, args.K_candidates, args.n_validation)
    model = fit(panel, K, kernel=args.kernel)
    dfio.save_model(model, args.out)
    scree_path = args.scree or f"{args.out}.scree.csv"
    top = min(10, len(model.eigen))
    dfio.write_csv(
        scree_path,
        ["k", "eigenvalue"],
        [
            {"k": k + 1, "eigenvalue": float(model.eigen.eigenvalues[k])}
            for k in range(top)
        ],
    )
    print(f"fitted K={model.K} on T={model.sample_size} periods -> {args.out}")
    return 0


# -- forecast --------------------------------------------------------------------

def _cmd_forecast(args) -> int:
    model = _validated(dfio.load_model, args.model)
    raw = _validated(dfio.read_observations, args.input)
    # only the last period's density enters the forecast
    last = RawPanel(raw.labels[-1:], [raw.values[raw.offsets[-2]:]])
    # with the model's kernel, so the start state is estimated as the fit's densities were
    panel = _validated(estimate_panel, last, model.grid, model.kernel)
    w_T = project_zero_integral(
        GridFunction._wrap(model.grid, panel.values[-1]) - model.mean_density)
    results = make_forecast(model, w_T, args.horizon)
    _make_out_dir(args.out_dir)
    _table_csv(os.path.join(args.out_dir, "forecast.csv"), "x", model.grid.points.tolist(),
               {f"f_step{r.horizon}": r.f_forecast.values for r in results})
    int_rows = []
    for p in (1, 2):
        v = moment_functional(p, model.grid)
        lo, hi = feature_interval(model, v, results[0].w_forecast, args.alpha)
        int_rows.append(
            {
                "functional": f"moment_{p}",
                "center": inner(v, results[0].w_forecast),
                "lower": lo,
                "upper": hi,
            }
        )
    dfio.write_csv(
        os.path.join(args.out_dir, "intervals.csv"),
        ["functional", "center", "lower", "upper"],
        int_rows,
    )
    dfio.write_json(
        os.path.join(args.out_dir, "forecast_meta.json"),
        {
            "K": model.K,
            "T": model.sample_size,
            "horizon": args.horizon,
            "alpha": args.alpha,
            "grid": {"a": model.grid.a, "b": model.grid.b, "n": model.grid.n},
        },
    )
    print(f"wrote forecast for horizon {args.horizon} -> {args.out_dir}")
    return 0


# -- analyze ---------------------------------------------------------------------

def _parse_functional(spec: str, model):
    kind, _, arg = spec.partition(":")
    try:
        if kind == "moment":
            p = int(arg) if arg else 1
            return f"moment_{p}", moment_functional(p, model.grid)
        if kind in ("left", "right"):
            level = float(arg) if arg else (0.05 if kind == "left" else 0.95)
            tau = quantile(model.mean_density, level)
            return f"{kind}_tail_{level:g}", tail_indicator(model.grid, kind, tau)
    except ValueError as exc:
        raise _ValidationFailure(f"bad functional {spec!r}: {exc}") from None
    raise _ValidationFailure(
        f"unknown functional {spec!r}; use moment:P, left:Q, or right:Q"
    )


def _irf_table(model, stem, drop_key, v):
    return (stem, drop_key, irf_statistic(v), "x", model.grid.points.tolist(),
            impulse_response(model.A_hat, v).values)


def _vardecomp_table(args, model, basis, meta, stem, name, drop_key, v):
    # also records the R^2 of v in meta under name
    report = variance_decomposition(v, model.A_hat, model.Q_hat, basis, model.Sigma_hat)
    meta.setdefault("r_squared", {})[name] = {
        "value": report.r_squared,
        "unclipped": report.r_squared_unclipped,
    }
    return (stem, drop_key, vardecomp_statistic(v, args.kmax), "k",
            range(1, len(report.pi) + 1), report.pi)


def _cmd_analyze(args) -> int:
    model = _validated(dfio.load_model, args.model)
    if args.mode == "features" and args.m > model.grid.n:
        raise _ValidationFailure(f"-m must not exceed the grid size {model.grid.n}, got {args.m}")
    functionals = (
        [_parse_functional(spec, model) for spec in args.functional]
        if args.mode in ("irf", "vardecomp")
        else []
    )
    _make_out_dir(args.out_dir)
    meta = {
        "mode": args.mode,
        "K": model.K,
        "T": model.sample_size,
        "grid": {"a": model.grid.a, "b": model.grid.b, "n": model.grid.n},
    }
    if args.bootstrap:
        meta["bootstrap"] = {"B": args.bootstrap, "alpha": args.alpha, "seed": args.seed}

    if functionals:
        meta["functionals"] = [name for name, _ in functionals]

    tables = []  # (stem, drop_key, statistic, key, keys, point) per band table
    if args.mode == "features":
        feats = leading_features(model.A_hat, args.m)
        columns = {f"progressive_{k + 1}": f.values for k, f in enumerate(feats.progressive)}
        columns.update((f"regressive_{k + 1}", f.values) for k, f in enumerate(feats.regressive))
        _table_csv(os.path.join(args.out_dir, "features.csv"), "x",
                   model.grid.points.tolist(), columns)
        meta["strengths"] = [float(s) for s in feats.strengths]
    elif args.mode == "irf":
        tables = [_irf_table(model, f"irf_{name}", name, v) for name, v in functionals]
    elif args.mode == "vardecomp":
        basis = moment_basis(model.Q_hat, model.grid, args.kmax)
        tables = [_vardecomp_table(args, model, basis, meta, f"vardecomp_{name}", name, name, v)
                  for name, v in functionals]
    else:  # tails
        level = args.tail_quantile
        tau_lo = quantile(model.mean_density, level)
        tau_hi = quantile(model.mean_density, 1.0 - level)
        meta["thresholds"] = {"left": tau_lo, "right": tau_hi}
        basis = moment_basis(model.Q_hat, model.grid, args.kmax)
        for side, tau in (("left", tau_lo), ("right", tau_hi)):
            v = tail_indicator(model.grid, side, tau)
            tables += [_irf_table(model, f"tails_{side}_irf", f"{side}_irf", v),
                       _vardecomp_table(args, model, basis, meta, f"tails_{side}_vardecomp",
                                        side, f"{side}_vardecomp", v)]
    # <stem>.csv per table: the point value per key and, under --bootstrap, its
    # band, all from one set of B refits; dropped replications go to meta
    bands = {}
    if args.bootstrap and tables:
        bands = residual_bootstrap(model, {t[0]: t[2] for t in tables}, args.bootstrap,
                                   args.alpha, args.seed)
    for stem, drop_key, _, key, keys, point in tables:
        columns = {"point": point}
        if stem in bands:
            columns.update(lower=bands[stem].lower, upper=bands[stem].upper)
            meta.setdefault("dropped", {})[drop_key] = bands[stem].n_dropped
        _table_csv(os.path.join(args.out_dir, f"{stem}.csv"), key, keys, columns)
    dfio.write_json(os.path.join(args.out_dir, "analyze_meta.json"), meta)
    print(f"wrote {args.mode} analysis -> {args.out_dir}")
    return 0


# -- backtest --------------------------------------------------------------------

def _cmd_backtest(args) -> int:
    panel = _build_panel(args)
    report = rolling_backtest(panel, args.n_test, args.K_candidates, args.n_validation)
    dfio.write_csv(
        args.out, ["predictor", "measure", "mean", "median"], report.to_rows()
    )
    dfio.write_json(
        f"{args.out}.meta.json",
        {
            "n_test": report.n_test,
            "n_validation": args.n_validation,
            "K_candidates": args.K_candidates,
            "selected_K": list(report.selected_K),
            "labels": list(report.labels),
            "scaling": 1,
        },
    )
    print(f"backtested {report.n_test} periods -> {args.out}")
    return 0


# -- simulate --------------------------------------------------------------------

def _load_study_config(path) -> StudyConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            obj = json.load(fh)
        # StudyConfig's fields, whose defaults stand for the keys left out
        dfio._closed(path, obj, [f.name for f in dataclasses.fields(StudyConfig)], "the config")
        spec = obj["generator"]
        if not isinstance(spec, dict) or ("model" in spec) == ("synthetic" in spec):
            raise ValueError("generator must hold exactly one of 'model' and 'synthetic'")
        if "model" in spec:
            dfio._closed(path, spec, ("model", "noise"), "a model generator")
            noise = spec.get("noise", "residuals")
            if noise not in ("residuals", "gaussian"):
                raise ValueError(f"noise must be 'residuals' or 'gaussian', got {noise!r}")
            model = _validated(dfio.load_model, spec["model"])
            generator = FarGenerator.from_model(model)
            if noise == "gaussian":  # the fitted noise covariance in place of the pool
                generator = dataclasses.replace(generator, residual_pool=None,
                                                noise_covariance=model.Sigma_hat)
        else:
            dfio._closed(path, spec, ("synthetic",), "a synthetic generator")
            syn = dfio._closed(path, spec["synthetic"],
                               ("support", "strengths", "noise_sds", "grid_n"), "generator.synthetic")
            a, b = syn["support"]
            grid = _validated(make_grid, a, b, syn.get("grid_n", 128))
            generator = make_cosine_generator(
                grid, syn["strengths"], syn["noise_sds"]
            )
        return StudyConfig(**{**obj, "generator": generator})
    except OSError as exc:
        raise _ValidationFailure(f"cannot read {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise _ValidationFailure(f"{path}: invalid config: {exc}") from exc


def _cmd_simulate(args) -> int:
    config = _load_study_config(args.config)
    result = run_study(config)
    rows = result.to_rows()
    names = list(rows[0].keys())
    dfio.write_csv(args.out, names, rows)
    dfio.write_json(
        f"{args.out}.meta.json",
        {
            "iterations": result.iterations,
            "T_values": list(result.T_values),
            "N_values": list(result.N_values),
            "dropped": {f"T{t}_N{n}": d for (t, n), d in sorted(result.dropped.items())},
        },
    )
    print(f"study over {len(result.T_values) * len(result.N_values)} cells -> {args.out}")
    return 0


# -- sample ----------------------------------------------------------------------

def _cmd_sample(args) -> int:
    density = _validated(dfio.load_grid_function, args.density)
    draws = _validated(acceptance_sample, density, args.n, args.seed)
    dfio.write_csv(args.out, ["value"], [{"value": float(x)} for x in draws])
    print(f"sampled {args.n} draws -> {args.out}")
    return 0


# -- dispatcher --------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="densfar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="fit a model from an observation CSV")
    _add_panel_options(p)
    p.add_argument("--K", type=_flag(int, lambda K: K >= 1, "--K must be >= 1, got {}"),
                   default=None, help="fixed truncation level")
    p.add_argument(
        "--K-candidates",
        type=_K_candidates,
        default=DEFAULT_K_CANDIDATES,
        help="candidate set for cross-validated K, e.g. '1..8' or '2,4,6'",
    )
    p.add_argument("--n-validation", type=_N_VALIDATION, default=5)
    p.add_argument("--out", required=True, type=_output_path("--out"),
                   help="model file: JSON if the name ends in .json, else binary")
    p.add_argument("--scree", default=None, type=_output_path("--scree"), help="scree CSV path")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("forecast", help="forecast densities from a fitted model")
    p.add_argument("--model", required=True, type=_EXISTING_PATH)
    p.add_argument("--input", required=True, type=_EXISTING_PATH,
                   help="observation CSV (period,value)")
    p.add_argument("--horizon", default=1, type=_flag(
        int, lambda h: 1 <= h <= MAX_HORIZON, f"--horizon must lie in 1..{MAX_HORIZON}, got {{}}"))
    p.add_argument("--alpha", type=_ALPHA, default=0.05)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("analyze", help="feature/IRF/decomposition tables")
    p.add_argument("mode", choices=["features", "irf", "vardecomp", "tails"])
    p.add_argument("--model", required=True, type=_EXISTING_PATH)
    p.add_argument("--out-dir", required=True)
    p.add_argument("-m", type=_flag(int, lambda m: m >= 1, "-m must be >= 1"), default=3,
                   help="number of leading features")
    p.add_argument(
        "--functional",
        nargs="+",
        default=["moment:1", "moment:2"],
        help="functionals to probe: moment:P, left:Q, right:Q",
    )
    p.add_argument("--kmax", default=DEFAULT_KMAX, type=_flag(
        int, lambda k: 1 <= k <= DEFAULT_KMAX, f"--kmax must lie in 1..{DEFAULT_KMAX}, got {{}}"))
    # 1 - q must differ from 1, or the right threshold is the quantile at p = 1
    p.add_argument("--tail-quantile", default=0.05, type=_flag(
        _flag(float, lambda q: 0.0 < q < 0.5, "--tail-quantile must lie in (0, 0.5)"),
        lambda q: 1.0 - q < 1.0, "--tail-quantile is too small for 1 - q < 1, got {}"))
    p.add_argument("--bootstrap", default=0, help="replications B", type=_flag(
        _flag(int, lambda B: B >= 0, "--bootstrap must be >= 0"),
        lambda B: B == 0 or B >= 100, "--bootstrap needs >= 100 replications"))
    p.add_argument("--alpha", type=_ALPHA, default=0.05)
    p.add_argument("--seed", type=_SEED, default=0)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("backtest", help="rolling out-of-sample comparison")
    _add_panel_options(p)
    p.add_argument("--n-test", type=_flag(int, lambda n: n >= 1, "--n-test must be >= 1"),
                   default=50)
    p.add_argument("--K-candidates", type=_K_candidates, default=DEFAULT_K_CANDIDATES)
    p.add_argument("--n-validation", type=_N_VALIDATION, default=5)
    p.add_argument("--out", required=True, type=_output_path("--out"), help="report CSV path")
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("simulate", help="Monte Carlo forecast study")
    p.add_argument("--config", required=True, help="study config (JSON)")
    p.add_argument("--out", required=True, type=_output_path("--out"), help="report CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sample", help="draw observations from a stored density")
    p.add_argument("--density", required=True, help="grid-function file")
    p.add_argument("--n", type=_flag(int, lambda n: 1 <= n <= MAX_SAMPLE_SIZE,
                                     f"--n must lie in 1..{MAX_SAMPLE_SIZE}, got {{}}"),
                   required=True)
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument("--out", required=True, type=_output_path("--out"), help="draws CSV path")
    p.set_defaults(func=_cmd_sample)
    return parser


def cli_dispatch(argv=None) -> int:
    """Run one command; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (_ValidationFailure, ParseError, EmptyFile, FormatError, TooFewPeriods) as exc:
        # too few periods is a property of the input file, not of the run
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DensfarError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return cli_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
