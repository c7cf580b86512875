"""densfar benchmark: seeded inputs, closed-loop CLI workloads, checked outputs.

    python3 perfbench/run.py --workload {pipeline,backtest,study} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds src/densfar. Every CLI command runs
in its own process on one BLAS thread with FAR_THREADS unset. A run measures a
fixed number of iterations per workload, scaled by S over the run_seconds of
BENCHMARK.json. With --trace 0 the end-to-end metrics are medians over them.
With --trace 1 the first runs untraced and the rest under perfbench/traced.py,
which gives the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Work files go to
.perfbench/ in the checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0
# Inputs cycle through this many seeds so that every run is checked against a
# recorded reference (reference.json holds one entry per seed class).
SEED_PERIOD = 32


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


@dataclass
class Child:
    """One finished child process: exit code, wall and CPU time, peak RSS."""

    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str


class Runner:
    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "FAR_THREADS"}
        self.env.update(
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONPATH=os.path.join(root, "src"),
        )
        self.n_children = 0

    def child(self, argv):
        """Run argv to completion and measure it with wait4."""
        self.n_children += 1
        log = os.path.join(self.work, f"child-{self.n_children}.out")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run time limit reached before a command could start")
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if status is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss, stdout)

    def cli(self, args):
        return self.child([sys.executable, "-m", "densfar.cli", *args])

    def traced(self, args, spans_path):
        return self.child([sys.executable, os.path.join(HERE, "traced.py"),
                           spans_path, "--", *args])

    def check_program(self, trace):
        """Import the program and return the environment facts. A traced run
        needs every wrapped binding; an untraced one only warns."""
        child = self.child([sys.executable, os.path.join(HERE, "traced.py"), "--check"])
        if child.code != 0:
            raise BenchError(f"program check failed:\n{child.stdout.strip()}")
        facts = json.loads(child.stdout.strip().splitlines()[-1])
        stale = facts.pop("stale_sites")
        if stale is not None:
            if trace:
                raise BenchError(f"{stale}; update PATCH_SITES in perfbench/traced.py")
            print(f"perfbench: warning: {stale}; --trace 1 will refuse to run", file=sys.stderr)
        return facts


def _dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _dir_contents(path):
    out = {}
    for d, _, files in os.walk(path):
        for f in files:
            full = os.path.join(d, f)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


def run_iteration(runner, workload, files, seed, index, traced, reference, rtol):
    """Run every command of one iteration and check its outputs, against the
    reference too unless it is None."""
    out_dir = os.path.join(runner.work, f"iter-{index}")
    os.makedirs(out_dir)
    result = {"out_dir": out_dir, "commands": {}, "observed": {}, "traces": [],
              "problems": [], "failed": 0}
    cmds = workloads.commands(workload, files, out_dir, seed)
    for pos, (name, args) in enumerate(cmds):
        if traced:
            spans_path = os.path.join(runner.work, f"spans-{index}-{name}.json")
            child = runner.traced(args, spans_path)
            if child.code == 3:
                raise BenchError(f"traced run refused:\n{child.stdout.strip()}")
            dump_s = float(child.stdout.rsplit("perfbench-dump-s", 1)[-1]) \
                if "perfbench-dump-s" in child.stdout else 0.0
            child.wall_s -= dump_s
            if os.path.isfile(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    result["traces"].append(json.load(fh))
        else:
            child = runner.cli(args)
        result["commands"][name] = child
        problems = []
        if child.code != 0:
            problems.append(f"{name}: exit code {child.code}: {child.stdout.strip()[-300:]}")
        else:
            observed, problems = workloads.observe(name, out_dir, child.stdout)
            result["observed"][name] = observed
            if observed is not None and reference is not None:
                ref = reference.get(name)
                if ref is None:
                    problems.append(f"{name}: no reference recorded for this seed")
                else:
                    problems += workloads.compare(observed, ref, rtol)
        if problems:
            result["problems"] += problems
            # later commands depend on this one's outputs; count them failed too
            result["failed"] = len(cmds) - pos
            break
    result["attempted"] = len(cmds)
    result["wall_s"] = sum(c.wall_s for c in result["commands"].values())
    result["cpu_s"] = sum(c.cpu_s for c in result["commands"].values())
    result["maxrss_kb"] = max(c.maxrss_kb for c in result["commands"].values())
    result["output_bytes"] = _dir_bytes(out_dir)
    return result


def measure(runner, workload, seed, count, trace, reference, rtol):
    """Run `count` iterations, a fixed number whatever the machine's speed;
    with tracing on, all but the first are traced. The inputs are generated
    before every iteration and once after the last, so the set-ups spread
    over the run like the iterations do and one short slow spell of the
    machine does not decide the set-up time. Returns the iterations and the
    set-up times."""
    iterations, setup_times = [], []
    for i in range(count + 1):
        start = time.perf_counter()
        files = workloads.write_inputs(seed, os.path.join(runner.work, "inputs"))
        setup_times.append(time.perf_counter() - start)
        if i < count:
            iterations.append(run_iteration(runner, workload, files, seed, i, trace and i > 0,
                                            reference, rtol))
    return iterations, setup_times


def end_to_end(iterations, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(it["wall_s"] for it in iterations), "s"),
        "cpu_s": (statistics.median(it["cpu_s"] for it in iterations), "s"),
        "peak_rss_mb": (max(it["maxrss_kb"] for it in iterations) / 1024.0, "MB"),
        "output_bytes": (statistics.median(it["output_bytes"] for it in iterations), "B"),
    }


def per_layer(iterations):
    plain, traced = iterations[0], iterations[1:]
    per_iter = [layers.iteration_metrics(it["traces"]) for it in traced]
    metrics = {key: (statistics.median(m[key] for m in per_iter), layers.UNITS[key])
               for key in per_iter[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(it["wall_s"] for it in traced) / plain["wall_s"], "ratio"
    )
    for name in ("estimate", "forecast", "analyze", "backtest", "simulate"):
        child = plain["commands"].get(name)
        metrics[f"cmd.{name}_s"] = (child.wall_s if child else 0.0, "s")
    # traced and untraced runs of the same inputs must write the same bytes
    expected = _dir_contents(plain["out_dir"])
    for it in traced:
        if _dir_contents(it["out_dir"]) != expected:
            it["problems"].append("traced run wrote different output files than the untraced run")
            it["failed"] = max(it["failed"], 1)
    return metrics


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(workload, seed):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["workloads"].get(workload, {}).get(str(seed), {}), ref["rtol"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "densfar", "cli.py")):
        raise BenchError(f"no densfar source under {root}/src; run from a checkout root")
    spec = load_spec(root)
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    count = max(1 + args.trace,
                round(workloads.ITERATIONS[args.workload] * args.seconds / spec["run_seconds"]))
    work = os.path.join(root, ".perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work, time.monotonic() + RUN_LIMIT_S)
    seed = args.seed % SEED_PERIOD
    reference, rtol = load_reference(args.workload, seed)
    try:
        print("env: " + json.dumps(runner.check_program(args.trace), sort_keys=True))
        iterations, setup_times = measure(runner, args.workload, seed, count, args.trace,
                                          reference, rtol)
        metrics = (per_layer(iterations) if args.trace
                   else end_to_end(iterations, statistics.median(setup_times)))
    finally:
        shutil.rmtree(os.path.join(work, "inputs"), ignore_errors=True)
    if sorted(metrics) != sorted(declared):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared))}")

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    for i, it in enumerate(iterations):
        kind = "traced" if args.trace and i else "untraced"
        times = " ".join(f"{n}={c.wall_s:.3f}s" for n, c in it["commands"].items())
        print(f"iteration {i} ({kind}): wall={it['wall_s']:.3f}s {times}")
        for problem in it["problems"]:
            print(f"  FAILED {problem}")
    # a child's maxrss includes this process's peak, so it must stay below peak_rss_mb
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("set-ups: " + " ".join(f"{t:.3f}s" for t in setup_times))
    print(f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4f}; "
          f"iterations: {len(iterations)}; benchmark peak rss: {own_mb:.1f} MB; "
          f"work dir: {os.path.relpath(work, root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    # keep the spans of a traced run for inspection; drop the bulky outputs
    for i in range(len(iterations)):
        shutil.rmtree(os.path.join(work, f"iter-{i}"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
