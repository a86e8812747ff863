"""Pin the results the benchmark gates on.

    python3 perfbench/pin.py

Runs every workload of perfbench/workloads.json once for each seed in
0 .. SEEDS-1 and for the held-out seed, JOBS children at a time, and
writes perfbench/pins.json: per workload, the exit code (which must be
the same for every seed), the report sha256 and number of checks per
seed, and the exact per-layer counts of one traced run at the default
and the held-out seed.

A change that makes sforge faster must reproduce these hashes.  Re-pin
only in a change that means to alter reports, and say so.
"""

import concurrent.futures
import hashlib
import json
import os
import shutil
import subprocess
import sys

import run

WORK = os.path.join(run.BUILD, "pin")
SEEDS = run.PINNED_SEEDS
JOBS = 2


def one(name, workload, seed, traced):
    work_dir = os.path.join(WORK, "%s-%d-%d" % (name, seed, traced))
    os.makedirs(work_dir, exist_ok=True)
    config_path = run.write_config(work_dir, name, workload, seed)
    marks_path = os.path.join(work_dir, "marks.json")
    argv = run.child_argv(workload, config_path, marks_path, traced=traced)
    proc = subprocess.run(argv, env=run.child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=run.KILL_AFTER_S)
    marks = run.load_json(marks_path)
    report = json.loads(proc.stdout)
    return {
        "name": name,
        "seed": seed,
        "exit_code": proc.returncode,
        "checks": run.count_checks(report["suites"]),
        "sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "leftover_bindings": marks.get("leftover_bindings", []),
        "counts": _counts(marks["trace"]) if traced else None,
    }


def _counts(trace):
    out = {k + ".calls": v for k, v in trace["calls"].items()}
    out.update(trace["counters"])
    return dict(sorted(out.items()))


def main():
    defs = run.load_json(os.path.join(run.HERE, "workloads.json"))
    counted = (defs["default_seed"], defs["held_out_seed"])
    seeds = sorted(set(range(SEEDS)) | set(counted))
    tasks = [(name, wl, seed, False)
             for name, wl in defs["workloads"].items() for seed in seeds]
    tasks += [(name, wl, seed, True)
              for name, wl in defs["workloads"].items() for seed in counted]

    pins = {name: {"seeds": {}, "exact_counts": {}} for name in defs["workloads"]}
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(lambda t: one(*t), tasks))
    for got in results:
        pin = pins[got["name"]]
        if pin.setdefault("exit_code", got["exit_code"]) != got["exit_code"]:
            sys.exit("%s: exit code differs at seed %d" % (got["name"], got["seed"]))
        if got["leftover_bindings"]:
            sys.exit("unwrapped bindings: %s" % got["leftover_bindings"])
        if got["counts"] is None:
            pin["seeds"][str(got["seed"])] = {k: got[k] for k in ("checks", "sha256")}
        else:
            pin["exact_counts"][str(got["seed"])] = got["counts"]
    for got in results:
        if got["sha256"] != pins[got["name"]]["seeds"][str(got["seed"])]["sha256"]:
            sys.exit("%s: the traced report differs at seed %d" % (got["name"], got["seed"]))
    shutil.rmtree(WORK, ignore_errors=True)
    with open(os.path.join(run.HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
