"""Command-line pipelines: estimate, forecast, analyze, backtest, simulate,
and sample.

Every command validates its inputs before computing, writes output files
atomically, and serializes numbers with 17 significant digits, so repeated
invocations with identical inputs and seeds produce byte-identical files.
Exit codes: 0 success, 1 validation error (bad usage, unreadable or
malformed inputs), 2 runtime error (the pipeline itself failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

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

__all__ = ["main", "cli_dispatch", "PipelineConfig"]

DEFAULT_GRID_N = 512
DEFAULT_COVERAGE = 0.999
DEFAULT_K_CANDIDATES = "1..8"


class _UsageError(Exception):
    pass


class _ValidationFailure(Exception):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    """Validated settings for a panel-driven pipeline command.

    Construction fails (validation error, exit code 1) when referenced
    paths do not resolve or numeric settings fall outside the module
    preconditions; computation never starts on a bad configuration.
    """

    input_path: str | None = None
    model_path: str | None = None
    grid_n: int = DEFAULT_GRID_N
    grid_a: float | None = None
    grid_b: float | None = None
    coverage: float = DEFAULT_COVERAGE
    kernel: str = "epanechnikov"
    K: int | None = None
    K_candidates: tuple | None = None
    n_validation: int = 5
    horizon: int = 1
    n_test: int | None = None
    features_m: int = 3
    functionals: tuple = ()
    kmax: int = 10
    tail_quantile: float = 0.05
    bootstrap_B: int = 0
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for path in (self.input_path, self.model_path):
            if path is not None and not os.path.exists(path):
                raise _ValidationFailure(f"input path does not exist: {path}")
        lo, hi = MIN_GRID_SIZE, MAX_GRID_SIZE
        if not lo <= self.grid_n <= hi:
            raise _ValidationFailure(f"--grid-n must be in {lo}..{hi}, got {self.grid_n}")
        if (self.grid_a is None) != (self.grid_b is None):
            raise _ValidationFailure("--grid-a and --grid-b must be given together")
        if self.grid_a is not None and not self.grid_a < self.grid_b:
            raise _ValidationFailure(
                f"need --grid-a < --grid-b, got {self.grid_a} >= {self.grid_b}"
            )
        if not 0.5 < self.coverage < 1.0:
            raise _ValidationFailure(
                f"--coverage must lie in (0.5, 1), got {self.coverage}"
            )
        if self.kernel not in KERNELS:
            raise _ValidationFailure(f"unknown kernel {self.kernel!r}")
        if self.K is not None and self.K < 1:
            raise _ValidationFailure(f"--K must be >= 1, got {self.K}")
        if self.K_candidates is not None and (
            not self.K_candidates or min(self.K_candidates) < 1
        ):
            raise _ValidationFailure("K candidates must be integers >= 1")
        if self.n_validation < 1:
            raise _ValidationFailure("--n-validation must be >= 1")
        if self.horizon < 1:
            raise _ValidationFailure("--horizon must be >= 1")
        if self.n_test is not None and self.n_test < 1:
            raise _ValidationFailure("--n-test must be >= 1")
        if self.features_m < 1:
            raise _ValidationFailure("-m must be >= 1")
        if not 1 <= self.kmax <= DEFAULT_KMAX:
            raise _ValidationFailure(
                f"--kmax must lie in 1..{DEFAULT_KMAX}, got {self.kmax}"
            )
        if not 0.0 < self.tail_quantile < 0.5:
            raise _ValidationFailure("--tail-quantile must lie in (0, 0.5)")
        if self.bootstrap_B < 0:
            raise _ValidationFailure("--bootstrap must be >= 0")
        if self.bootstrap_B and self.bootstrap_B < 100:
            raise _ValidationFailure("--bootstrap needs >= 100 replications")
        if not 0.0 < self.alpha < 1.0:
            raise _ValidationFailure("--alpha must lie in (0, 1)")
        if self.seed < 0:
            raise _ValidationFailure(f"--seed must be >= 0, got {self.seed}")


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so the dispatcher controls exit codes
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _parse_candidates(text: str) -> list:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            vals = list(range(int(lo), int(hi) + 1))
        else:
            vals = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise _ValidationFailure(
            f"cannot parse K candidates {text!r}; use e.g. '1..8' or '1,2,4'"
        ) from None
    if not vals or min(vals) < 1:
        raise _ValidationFailure(f"K candidates must be >= 1, got {text!r}")
    return vals


def _validated(fn, *args, **kwargs):
    # input-phase helper: any library error here is a validation failure
    try:
        return fn(*args, **kwargs)
    except DensfarError as exc:
        raise _ValidationFailure(str(exc)) from exc


def _panel_config(args, **extra) -> PipelineConfig:
    return PipelineConfig(
        input_path=args.input,
        grid_n=args.grid_n,
        grid_a=args.grid_a,
        grid_b=args.grid_b,
        coverage=args.coverage,
        kernel=args.kernel,
        **extra,
    )


def _build_panel(config: PipelineConfig):
    raw = _validated(dfio.read_observations, config.input_path)
    if config.grid_a is not None:
        a, b = config.grid_a, config.grid_b
    else:
        a, b = _validated(select_support, raw, config.coverage)
    grid = _validated(make_grid, a, b, config.grid_n)
    return _validated(estimate_panel, raw, grid, config.kernel), raw


def _add_panel_options(p):
    p.add_argument("--input", required=True, help="observation CSV (period,value)")
    p.add_argument("--grid-n", type=int, default=DEFAULT_GRID_N, help="grid size")
    p.add_argument("--grid-a", type=float, default=None, help="support lower bound")
    p.add_argument("--grid-b", type=float, default=None, help="support upper bound")
    p.add_argument(
        "--coverage",
        type=float,
        default=DEFAULT_COVERAGE,
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
    config = _panel_config(
        args,
        K=args.K,
        K_candidates=None if args.K is not None else tuple(_parse_candidates(args.K_candidates)),
        n_validation=args.n_validation,
    )
    panel, _ = _build_panel(config)
    if config.K is not None:
        K = config.K
    else:
        K = select_K_cv(panel, config.K_candidates, config.n_validation)
    model = fit(panel, K)
    dfio.save_model(model, args.out, args.format)
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
    config = PipelineConfig(
        input_path=args.input,
        model_path=args.model,
        kernel=args.kernel,
        horizon=args.horizon,
        alpha=args.alpha,
    )
    model = _validated(dfio.load_model, config.model_path)
    raw = _validated(dfio.read_observations, config.input_path)
    # only the last period's density enters the forecast
    last = RawPanel(labels=raw.labels[-1:], blocks=raw.blocks[-1:])
    panel = _validated(estimate_panel, last, model.grid, config.kernel)
    w_T = project_zero_integral(
        GridFunction._wrap(model.grid, panel.values[-1]) - model.mean_density)
    results = make_forecast(model, w_T, config.horizon)
    os.makedirs(args.out_dir, exist_ok=True)
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
    config = PipelineConfig(
        model_path=args.model,
        features_m=args.m,
        functionals=tuple(args.functional),
        kmax=args.kmax,
        tail_quantile=args.tail_quantile,
        bootstrap_B=args.bootstrap,
        alpha=args.alpha,
        seed=args.seed,
    )
    model = _validated(dfio.load_model, config.model_path)
    if args.mode == "features" and config.features_m > model.grid.n:
        raise _ValidationFailure(
            f"-m must not exceed the grid size {model.grid.n}, got {config.features_m}"
        )
    functionals = (
        [_parse_functional(spec, model) for spec in config.functionals]
        if args.mode in ("irf", "vardecomp")
        else []
    )
    os.makedirs(args.out_dir, exist_ok=True)
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
    config = _panel_config(
        args,
        n_test=args.n_test,
        K_candidates=tuple(_parse_candidates(args.K_candidates)),
        n_validation=args.n_validation,
    )
    panel, _ = _build_panel(config)
    candidates = list(config.K_candidates)
    report = rolling_backtest(panel, config.n_test, candidates, config.n_validation)
    dfio.write_csv(
        args.out, ["predictor", "measure", "mean", "median"], report.to_rows()
    )
    dfio.write_json(
        f"{args.out}.meta.json",
        {
            "n_test": report.n_test,
            "n_validation": args.n_validation,
            "K_candidates": candidates,
            "selected_K": list(report.selected_K),
            "labels": list(report.labels),
            "scaling": 1,
        },
    )
    print(f"backtested {report.n_test} periods -> {args.out}")
    return 0


# -- simulate --------------------------------------------------------------------

def _load_study_config(path) -> StudyConfig:
    text_mode = os.fspath(path).endswith(".toml")
    try:
        if text_mode:
            try:
                import tomllib
            except ModuleNotFoundError:
                raise _ValidationFailure(
                    "TOML configs need Python >= 3.11; use JSON instead"
                ) from None
            with open(path, "rb") as fh:
                obj = tomllib.load(fh)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
    except OSError as exc:
        raise _ValidationFailure(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, ValueError) as exc:
        raise _ValidationFailure(f"{path}: invalid config: {exc}") from exc

    try:
        gen_spec = obj["generator"]
        if "model" in gen_spec:
            model = _validated(dfio.load_model, gen_spec["model"])
            if gen_spec.get("noise", "residuals") == "gaussian":
                generator = FarGenerator(
                    grid=model.grid,
                    transition=model.A_hat,
                    mean_density=model.mean_density,
                    noise_covariance=model.Sigma_hat,
                )
            else:
                generator = FarGenerator.from_model(model)
        elif "synthetic" in gen_spec:
            syn = gen_spec["synthetic"]
            a, b = syn["support"]
            grid = _validated(make_grid, a, b, syn.get("grid_n", 128))
            generator = make_cosine_generator(
                grid, syn["strengths"], syn["noise_sds"]
            )
        else:
            raise _ValidationFailure(
                "generator must contain a 'model' path or a 'synthetic' block"
            )
        return StudyConfig(
            generator=generator,
            T_values=obj["T_values"],
            N_values=obj["N_values"],
            iterations=obj["iterations"],
            seed=obj["seed"],
            burn_in=obj.get("burn_in"),
            K=obj.get("K", 4),
            kernel=obj.get("kernel", "normal"),
        )
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
    if args.n < 1:
        raise _ValidationFailure(f"--n must be >= 1, got {args.n}")
    if args.seed < 0:
        raise _ValidationFailure(f"--seed must be >= 0, got {args.seed}")
    density = _validated(dfio.load_grid_function, args.density)
    draws = acceptance_sample(density, args.n, args.seed)
    dfio.write_csv(args.out, ["value"], [{"value": float(x)} for x in draws])
    print(f"sampled {args.n} draws -> {args.out}")
    return 0


# -- dispatcher --------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="densfar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="fit a model from an observation CSV")
    _add_panel_options(p)
    p.add_argument("--K", type=int, default=None, help="fixed truncation level")
    p.add_argument(
        "--K-candidates",
        default=DEFAULT_K_CANDIDATES,
        help="candidate set for cross-validated K, e.g. '1..8' or '2,4,6'",
    )
    p.add_argument("--n-validation", type=int, default=5)
    p.add_argument("--out", required=True, help="model file (.json for text mode)")
    p.add_argument("--format", choices=["json", "binary"], default=None)
    p.add_argument("--scree", default=None, help="scree CSV path")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("forecast", help="forecast densities from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="observation CSV (period,value)")
    p.add_argument("--kernel", choices=KERNELS, default="epanechnikov")
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("analyze", help="feature/IRF/decomposition tables")
    p.add_argument("mode", choices=["features", "irf", "vardecomp", "tails"])
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("-m", type=int, default=3, help="number of leading features")
    p.add_argument(
        "--functional",
        nargs="+",
        default=["moment:1", "moment:2"],
        help="functionals to probe: moment:P, left:Q, right:Q",
    )
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--tail-quantile", type=float, default=0.05)
    p.add_argument("--bootstrap", type=int, default=0, help="replications B")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("backtest", help="rolling out-of-sample comparison")
    _add_panel_options(p)
    p.add_argument("--n-test", type=int, default=50)
    p.add_argument("--K-candidates", default=DEFAULT_K_CANDIDATES)
    p.add_argument("--n-validation", type=int, default=5)
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("simulate", help="Monte Carlo forecast study")
    p.add_argument("--config", required=True, help="study config (JSON or TOML)")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sample", help="draw observations from a stored density")
    p.add_argument("--density", required=True, help="grid-function file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="draws CSV path")
    p.set_defaults(func=_cmd_sample)
    return parser


def cli_dispatch(argv=None) -> int:
    """Run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, EmptyFile, FormatError, TooFewPeriods) as exc:
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
