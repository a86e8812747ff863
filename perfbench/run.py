"""End-to-end and per-layer benchmark of the sforge CLI.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are the pinned instances in perfbench/workloads.json.  The
benchmark writes the workload's config with an sforge seed into
.bench_build/, so sforge sees only that config.  The sforge seed is N
when pins.json lists N, and otherwise the pinned seed N mod 64, so every
N gives the same inputs each time and every run is checked against a
pin.  It then runs a closed loop with one client: it spawns one child
process at a time (perfbench/child.py, which calls ``sforge.cli.main`` on
the config), waits for it to exit and spawns the next, until S seconds
have passed.  The
package is imported from ./src; nothing is built.

Every child run is gated on its exit code, the number of checks in its
report, and the report's sha256 pinned in perfbench/pins.json.  A run
that differs counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the
median over the timed runs:

    wall_s        child spawn to exit: the time a user waits for the verdict
    setup_s       spawn to the first check: interpreter start, import of
                  sforge.cli and InstanceConfig.load
    checks_per_s  certified checks in the report / (wall_s - setup_s)
    peak_rss_mb   the child's ru_maxrss

--trace 1 first runs the workload's --inject-fault variant once, untimed,
and requires the gate to flag it.  It then alternates untraced and
traced child runs, reports the per-layer metrics of BENCHMARK.json from
the traced ones (perfbench/tracer.py), and checks that tracing left the
report unchanged and wrapped every binding.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; failed / attempted is the share of runs
whose exit code, check count or report sha256 differs from the pin.  The
exit code is 0 only when every run and every self-check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

# A child still running this long after the invocation started is killed,
# so that the benchmark ends inside 180 s whatever --seconds says.
KILL_AFTER_S = 165.0
MIN_TIMED_RUNS = 3
# pins.json lists seeds 0 .. PINNED_SEEDS-1 and the held-out seed
PINNED_SEEDS = 64


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def count_checks(node):
    """Certified checks in a report's suites.

    The outermost ``reconstructed`` (Gauss) or ``checked`` count of each
    subtree; the per-case counts below an aggregate are not added again.
    """
    if not isinstance(node, dict):
        return 0
    for key in ("reconstructed", "checked"):
        value = node.get(key)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return sum(count_checks(v) for v in node.values())


def sforge_seed(seed, pinned):
    """The pinned sforge seed that benchmark seed ``seed`` runs."""
    return seed if str(seed) in pinned else seed % PINNED_SEEDS


def write_config(work_dir, name, workload, seed):
    path = os.path.join(work_dir, "%s-seed%d.json" % (name, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(workload["config"], seed=seed), fh, sort_keys=True)
    return path


def child_argv(workload, config_path, marks_path, traced=False, fault=None):
    argv = [sys.executable, os.path.join(HERE, "child.py"),
            "--src", SRC, "--marks", marks_path]
    if traced:
        argv.append("--trace")
    argv += ["--", workload["command"], "--config", config_path]
    argv += workload["flags"]
    if fault:
        argv += ["--inject-fault", fault]
    return argv


def child_env():
    """The caller's environment without settings that change what sforge
    or the interpreter does, plus the path to this checkout's sources."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "SFORGE_"))
    }
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD, "pycache")
    return env


class ChildRun:
    """One finished child process: exit code, report and timings."""

    def __init__(self, exit_code, report_bytes, spawned, exited, marks, maxrss_kib, stderr):
        self.exit_code = exit_code
        self.sha256 = hashlib.sha256(report_bytes).hexdigest()
        try:
            report = json.loads(report_bytes)
        except ValueError:
            report = None
        self.checks = count_checks(report.get("suites")) if isinstance(report, dict) else 0
        self.wall_s = exited - spawned
        first = marks.get("first_check")
        self.setup_s = first - spawned if first is not None else None
        self.peak_rss_mb = maxrss_kib * 1024 / 1e6
        self.marks = marks
        self.stderr = stderr

    @property
    def checks_per_s(self):
        return self.checks / (self.wall_s - self.setup_s)


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait(pid, timeout):
    """wait4 on pid, killing it if it outlives timeout seconds."""
    def kill(signum, frame):
        _kill(pid)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return status, usage


def run_child(work_dir, workload, config_path, kill_at, traced=False, fault=None):
    """Run one child to its exit; kill it at monotonic time kill_at."""
    out_path = os.path.join(work_dir, "report.json")
    err_path = os.path.join(work_dir, "stderr.txt")
    marks_path = os.path.join(work_dir, "marks.json")
    if os.path.exists(marks_path):
        os.remove(marks_path)
    argv = child_argv(workload, config_path, marks_path, traced, fault)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    env = child_env()
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        status, usage = _wait(pid, kill_at - spawned)
    except BaseException:
        # interrupted or terminated: leave no child running
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    exited = time.monotonic()
    with open(out_path, "rb") as fh:
        report_bytes = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    marks = load_json(marks_path) if os.path.exists(marks_path) else {}
    return ChildRun(
        os.waitstatus_to_exitcode(status), report_bytes, spawned, exited,
        marks, usage.ru_maxrss, stderr,
    )


def gate(run, exit_code, want):
    """Why the run does not reproduce its pinned result; empty when it does.

    want holds the pinned report ``sha256`` and ``checks``."""
    problems = []
    if run.exit_code != exit_code:
        problems.append("exit code %s, pinned %s" % (run.exit_code, exit_code))
    if run.checks != want["checks"]:
        problems.append("%d checks in the report, pinned %d" % (run.checks, want["checks"]))
    if run.sha256 != want["sha256"]:
        problems.append("report sha256 %s, pinned %s" % (run.sha256[:16], want["sha256"][:16]))
    if run.setup_s is None and not problems:
        problems.append("the child never reached its first check")
    return problems


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def percentile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(traced, plain):
    """Per-layer metrics from the traced runs; self times are medians over them."""
    snaps = [r.marks["trace"] for r in traced]
    first = snaps[0]
    out = {}
    for name, calls in first["calls"].items():
        out[name + ".calls"] = calls
        out[name + ".self_s"] = statistics.median(s["self_s"][name] for s in snaps)
    counters = first["counters"]
    out.update(counters)
    draws = counters["gauss.sample_gl.draws"]
    out["gauss.sample_gl.accept_ratio"] = (
        first["calls"]["gauss.sample_gl"] / draws if draws else 0.0
    )
    lifts = first["calls"]["crossed.lift"]
    out["crossed.lift.hit_ratio"] = counters["crossed.lift.hits"] / lifts if lifts else 0.0
    for q in (50, 90):
        out["gauss.gauss_decompose.p%d_ms" % q] = statistics.median(
            percentile_ms(s["durations"]["gauss.gauss_decompose"], q) for s in snaps
        )
    out["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced)
        - statistics.median(r.wall_s for r in plain)
    )
    return out


def trace_self_checks(name, workload, traced, plain):
    """(description, passed) for each check that the tracing is complete and
    leaves the program's behaviour alone."""
    snaps = [r.marks.get("trace") for r in traced]
    if any(s is None for s in snaps):
        return [("every traced child wrote its trace", False)]
    first = snaps[0]
    counts = {k + ".calls": v for k, v in first["calls"].items()}
    counts.update(first["counters"])
    out = [
        ("traced report sha256 equals the untraced one",
         all(r.sha256 == plain[0].sha256 for r in traced)),
        ("every binding of every layer function is wrapped",
         all(not r.marks["leftover_bindings"] for r in traced)),
        ("call counts repeat exactly across traced runs",
         all(s["calls"] == first["calls"] and s["counters"] == first["counters"]
             for s in snaps)),
        ("crossed.lift.hits + gauss.lift_to_st.calls == crossed.lift.calls",
         counts["crossed.lift.hits"] + counts["gauss.lift_to_st.calls"]
         == counts["crossed.lift.calls"]),
    ]
    for metric, want in sorted(workload["trace_expect"].items()):
        out.append(("%s == %d on %s (got %d)" % (metric, want, name, counts[metric]),
                    counts[metric] == want))
    for msg in traced[0].marks["leftover_bindings"]:
        print("unwrapped binding: %s" % msg, file=sys.stderr)
    return out


def main(argv=None):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "sforge", "cli.py")):
        print("perfbench: no sforge sources under %s" % SRC, file=sys.stderr)
        return 2
    defs = load_json(os.path.join(HERE, "workloads.json"))
    pin = load_json(os.path.join(HERE, "pins.json"))[args.workload]
    workload = defs["workloads"][args.workload]

    started = time.monotonic()
    env_start = environment()
    work_dir = os.path.join(BUILD, "perfbench", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        seed = sforge_seed(args.seed, pin["seeds"])
        config_path = write_config(work_dir, args.workload, workload, seed)
        pinned = pin["seeds"][str(seed)]
        runs, timed, traced, plain = [], [], [], []
        checks = []

        def one(**kwargs):
            run = run_child(work_dir, workload, config_path, kill_at, **kwargs)
            run.problems = gate(run, pin["exit_code"], pinned)
            for p in run.problems:
                print("FAILED run %d: %s" % (len(runs) + 1, p))
            if run.problems and run.stderr:
                print(run.stderr.rstrip(), file=sys.stderr)
            runs.append(run)
            return run

        deadline = started + args.seconds
        kill_at = started + KILL_AFTER_S
        if args.trace and workload["fault"]:
            fr = run_child(work_dir, workload, config_path, kill_at, fault=workload["fault"])
            flagged = gate(fr, pin["exit_code"], pinned)
            checks.append(("gate flags --inject-fault %s (%s)"
                           % (workload["fault"], "; ".join(flagged) or "not flagged"),
                           bool(flagged)))

        while True:
            if args.trace:
                plain.append(one())
                traced.append(one(traced=True))
                last = plain[-1].wall_s + traced[-1].wall_s
                enough = True
            else:
                timed.append(one())
                last = timed[-1].wall_s
                enough = len(timed) >= MIN_TIMED_RUNS
            now = time.monotonic()
            if (enough and now + last > deadline) or now + last > kill_at:
                break

        failed = sum(1 for r in runs if r.problems)
        values = {}
        if args.trace:
            checks += trace_self_checks(args.workload, workload, traced, plain)
            if all(ok for _, ok in checks):
                values = layer_metrics(traced, plain)
            wanted = bench["per_layer"]
        else:
            wanted = bench["end_to_end"]
            if all(r.setup_s is not None for r in timed):
                values = {
                    m["name"]: statistics.median(getattr(r, m["name"]) for r in timed)
                    for m in wanted
                }
        env_end = environment()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("workload %s, seed %d (sforge seed %d): sforge %s, config %s"
          % (args.workload, args.seed, seed, " ".join([workload["command"]] + workload["flags"]),
             json.dumps(workload["config"], sort_keys=True)))
    print("closed loop, 1 client, %d child runs (%s), report sha256 %s"
          % (len(runs), "%d untraced + %d traced" % (len(plain), len(traced))
             if args.trace else "untraced", runs[0].sha256))
    for desc, ok in checks:
        print("self-check %s: %s" % ("passed" if ok else "FAILED", desc))
    if not args.trace and values:
        for m in wanted:
            got = [getattr(r, m["name"]) for r in timed]
            print("%-13s median %.4f %s  (min %.4f, max %.4f, n=%d)"
                  % (m["name"], values[m["name"]], m["unit"], min(got), max(got), len(got)))
    if args.trace and values:
        base = statistics.median(r.wall_s for r in plain)
        print("wall_s median %.4f s untraced (n=%d), %.4f s traced (n=%d): "
              "tracing adds %.4f s (%.0f%%)"
              % (base, len(plain), statistics.median(r.wall_s for r in traced), len(traced),
                 values["trace.overhead_s"], 100 * values["trace.overhead_s"] / base))
    print("ops_failed_ratio %d/%d = %.4f" % (failed, len(runs), failed / len(runs)))
    print("environment: python %s, nproc %d, loadavg 1m %.2f at start, %.2f at end"
          % (env_start["python"], env_start["nproc"], env_start["loadavg_1m"],
             env_end["loadavg_1m"]))

    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = failed == 0 and all(ok for _, ok in checks) and not missing
    if missing and values:
        print("metrics not measured: %s" % ", ".join(missing), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in values
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
