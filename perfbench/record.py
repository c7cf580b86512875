"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py

Run from the root of a checkout. For each workload and each seed class
0..SEED_PERIOD-1 it generates the inputs, runs one untraced iteration, checks
its invariants and stores the observed numbers in perfbench/reference.json.
Re-record only when the benchmark changes what it runs or how inputs are
made, never to make a changed program pass.
"""

import json
import os
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

RTOL = 1e-6
# each task only waits on its child processes, so two keep both cores busy
PARALLEL = 2


def record_one(root, workload, seed):
    work = os.path.join(root, ".perfbench", f"record-{workload}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = run.Runner(root, work, time.monotonic() + run.RUN_LIMIT_S)
        files = workloads.write_inputs(seed, os.path.join(work, "inputs"))
        it = run.run_iteration(runner, workload, files, seed, 0, False, None, RTOL)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if it["problems"]:
        raise SystemExit(f"{workload} seed {seed}: {it['problems']}")
    print(f"{workload} seed {seed}: {it['wall_s']:.1f}s", flush=True)
    return it["observed"]


def main():
    root = os.getcwd()
    tasks = [(w, s) for w in workloads.WORKLOADS for s in range(run.SEED_PERIOD)]
    with ThreadPoolExecutor(PARALLEL) as pool:
        results = list(pool.map(lambda t: record_one(root, *t), tasks))
    reference = {"rtol": RTOL, "workloads": {w: {} for w in workloads.WORKLOADS}}
    for (workload, seed), observed in zip(tasks, results):
        reference["workloads"][workload][str(seed)] = observed
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
