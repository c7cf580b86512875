"""Run one densfar CLI command in-process with a span around every call into
each layer's public functions; the program's source is not changed.

    python3 perfbench/traced.py SPANS.json -- <densfar arguments>
    python3 perfbench/traced.py --check

The wrappers replace each function under every name its callers bound it to
(``densfar.forecast.fit``, ``densfar.bootstrap.fit``, ...). ``--check`` only
imports the program and prints the environment facts as JSON, with
``stale_sites`` set when a binding in PATCH_SITES is gone or an unlisted
module binds a wrapped function; a traced run refuses to start then. Spans
stay in memory as [name, start, end, parent, attrs] and are written to
SPANS.json when the command returns.
"""

import functools
import json
import os
import sys
import time

# Wrapped function -> the densfar modules whose globals bind it under the same
# name. The first module is the one that defines it.
PATCH_SITES = {
    "io.read_observations": ("io",),
    "io.save_model": ("io",),
    "io.load_model": ("io",),
    "io.write_csv": ("io",),
    "io.write_json": ("io",),
    "kde.estimate_panel": ("kde", "cli", "simulate"),
    "kde.kde": ("kde",),
    "kde.select_support": ("kde", "cli"),
    "estimation.fit": ("estimation", "bootstrap", "cli", "forecast", "simulate"),
    "grid.eigh_operator": ("grid", "estimation", "simulate"),
    "grid.compose": ("grid", "estimation"),
    "grid.apply_operator": ("grid", "analysis", "estimation", "forecast"),
    "forecast.select_K_cv": ("forecast", "cli"),
    "forecast.rolling_backtest": ("forecast", "cli"),
    "forecast.error_metrics": ("forecast", "simulate"),
    "forecast.make_forecast": ("forecast", "cli"),
    "analysis.moment_basis": ("analysis", "bootstrap", "cli"),
    "analysis.variance_decomposition": ("analysis", "bootstrap", "cli"),
    "bootstrap.residual_bootstrap": ("bootstrap", "cli"),
    "simulate.run_study": ("simulate", "cli"),
    "simulate.simulate_far": ("simulate",),
    "simulate.acceptance_sample": ("simulate", "cli"),
    "_threads.parallel_map": ("_threads", "bootstrap", "simulate"),
}
# Methods get a span under their class.
METHOD_SITES = {"simulate.noise_sampler": ("simulate", "FarGenerator", "noise_sampler")}
ITEM_SPAN = "_threads.item"
ROOT_SPAN = "cli"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _written_bytes(path_index):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, path_index, "path"))}
    return attrs


def _kde_evals(args, kwargs, result):
    observations = _arg(args, kwargs, 0, "observations")
    return {"evals": len(observations) * _arg(args, kwargs, 1, "grid").n}


def _eigh_size(args, kwargs, result):
    return {"n": _arg(args, kwargs, 0, "K").grid.n}


def _fit_prefix(args, kwargs, result):
    panel = _arg(args, kwargs, 0, "panel")
    return {"prefix": [panel.labels[0], panel.labels[-1], len(panel)]}


# Extra facts recorded on a span from its arguments and result.
ATTRS = {
    "io.save_model": _written_bytes(1),
    "io.write_csv": _written_bytes(0),
    "io.write_json": _written_bytes(0),
    "kde.kde": _kde_evals,
    "grid.eigh_operator": _eigh_size,
    "estimation.fit": _fit_prefix,
}


class SiteError(Exception):
    """A wrapped name no longer exists where the benchmark expects it."""


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = {"error": type(exc).__name__}
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return traced

    def wrap_parallel_map(self, fn):
        # Each work item (a bootstrap replication, a study iteration) gets its
        # own span; a None result is how both loops mark a dropped item.
        item_span = self.wrap
        outer = self.wrap("_threads.parallel_map", fn)

        def parallel_map(item_fn, items):
            traced_item = item_span(
                ITEM_SPAN, item_fn, lambda a, k, r: {"dropped": r is None}
            )
            return outer(traced_item, items)

        return functools.wraps(fn)(parallel_map)


def _modules():
    return {
        name.split(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("densfar.") and mod is not None
    }


def resolve_sites():
    """Every (module, attribute, function) the tracer patches; raises SiteError
    when a listed binding is gone or an unlisted module binds a wrapped function."""
    mods = _modules()
    sites = []
    for qualname, modules in PATCH_SITES.items():
        home, attr = qualname.split(".", 1)
        if home not in mods or not callable(getattr(mods[home], attr, None)):
            raise SiteError(f"densfar.{qualname} no longer exists")
        fn = getattr(mods[home], attr)
        for mod_name in modules:
            if getattr(mods.get(mod_name), attr, None) is not fn:
                raise SiteError(f"densfar.{mod_name}.{attr} no longer binds densfar.{qualname}")
        for mod_name, mod in mods.items():
            for name, value in vars(mod).items():
                if value is fn and (name != attr or mod_name not in modules):
                    raise SiteError(
                        f"densfar.{mod_name}.{name} binds densfar.{qualname} "
                        f"but is not in PATCH_SITES"
                    )
        sites.extend((mods[m], attr, qualname) for m in modules)
    for qualname, (home, cls_name, attr) in METHOD_SITES.items():
        cls = getattr(mods.get(home), cls_name, None)
        if not callable(getattr(cls, attr, None)):
            raise SiteError(f"densfar.{home}.{cls_name}.{attr} no longer exists")
        sites.append((cls, attr, qualname))
    return sites


def install(tracer, sites):
    wrapped = {}
    for owner, attr, qualname in sites:
        if qualname not in wrapped:
            fn = getattr(owner, attr)
            if qualname == "_threads.parallel_map":
                wrapped[qualname] = tracer.wrap_parallel_map(fn)
            else:
                wrapped[qualname] = tracer.wrap(qualname, fn, ATTRS.get(qualname))
        setattr(owner, attr, wrapped[qualname])


def environment():
    """Facts that decide how the numbers read: cores, versions, BLAS, threads."""
    from importlib.metadata import version

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "FAR_THREADS")},
    }


def main(argv):
    t0 = time.perf_counter()
    import densfar.cli

    import_s = time.perf_counter() - t0
    try:
        sites, stale = resolve_sites(), None
    except SiteError as exc:
        sites, stale = None, str(exc)
    if argv == ["--check"]:
        print(json.dumps({**environment(), "stale_sites": stale}))
        return 0
    if stale is not None:
        print(f"perfbench: {stale}", file=sys.stderr)
        return 3
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 3
    if os.environ.get("FAR_THREADS") is not None:
        print("perfbench: spans assume serial execution; unset FAR_THREADS", file=sys.stderr)
        return 3
    tracer = Tracer()
    install(tracer, sites)
    code = None
    try:
        code = tracer.wrap(ROOT_SPAN, densfar.cli.cli_dispatch)(argv[2:])
    finally:
        sys.stdout.flush()
        t1 = time.perf_counter()
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({"exit": code, "import_s": import_s, "spans": tracer.spans}, fh,
                      separators=(",", ":"))
        # the parent subtracts the time spent writing spans from the traced wall time
        print(f"perfbench-dump-s {time.perf_counter() - t1!r}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
