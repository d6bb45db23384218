#!/usr/bin/env python3
"""The PAPAYA simulator benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload private-20k --seed 42 --seconds 60 --trace 0

It builds the measuring program (the Rust package next to this file) and
runs trials for ``--seconds`` (at least three; no trial is started that the
typical trial length says would end past the deadline).  Each trial
is a fresh process that builds the workload, runs it sequentially and then
threaded, and checks its outputs; its peak resident memory is read from the
kernel's accounting of that process.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics (medians over
trials); with ``--trace 1`` one traced trial gives the per-layer metrics and
untraced trials fill the rest of the time to measure the tracing overhead.
See README.md next to this file for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_TRIALS = 3
# One trial of any workload takes a few seconds; a stuck one is killed, so
# a run ends within ~2 minutes even if every trial hangs (a traced trial
# and MIN_TRIALS untraced ones, after which the median trial is too long
# to start another).
TRIAL_TIMEOUT_S = 30
# Fields of the program's output lines that are not metrics.
RECORD_FIELDS = ("workload", "seed", "workers", "traced_wall_s", "failures")


def load_spec():
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them (one value is its own quartiles)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def format_result(correct, attempted, failed, metrics):
    """The final output line; ``metrics`` maps name -> (value, unit)."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def last_json_line(text):
    """Parses the last non-empty line of ``text`` as a JSON object."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(nproc):
    """Training threads of the threaded run: one CPU is left to the event
    loop, so the run never uses more threads than CPUs.  None when fewer
    than two CPUs are usable."""
    return nproc - 1 if nproc >= 2 else None


def build():
    """Builds the measuring program; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(command, env=env, stdout=sys.stderr, check=False)
    except OSError as error:
        print(f"perfbench: cannot run cargo: {error}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run_child(argv):
    """Runs one trial process.  Returns (record or None, peak RSS in MiB)."""
    child = subprocess.Popen(argv, stdout=subprocess.PIPE)
    watchdog = threading.Timer(TRIAL_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
        child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    peak_mib = usage.ru_maxrss / 1024.0
    if child.returncode != 0:
        print(f"perfbench: {argv[1]} exited with {child.returncode}", file=sys.stderr)
        return None, peak_mib
    try:
        return last_json_line(out.decode()), peak_mib
    except ValueError as error:
        print(f"perfbench: unreadable {argv[1]} output: {error}", file=sys.stderr)
        return None, peak_mib


def trial_ok(record):
    if record is None:
        return False
    for failure in record["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    return not record["failures"]


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv):
    spec = load_spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    nproc = usable_cpus()
    workers = worker_count(nproc)
    if workers is None:
        print(f"perfbench: the threaded run needs at least 2 CPUs, {nproc} usable", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workers", str(workers)]

    start = time.monotonic()
    traced = None
    attempted = failed = 0
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        traced, _ = run_child([binary, "trace", *common, "--trace-out", trace_path])
        attempted += 1
        failed += not trial_ok(traced)
    trials = []
    untraced_attempts = 0
    trial_s = []
    while untraced_attempts < MIN_TRIALS or (
        time.monotonic() - start + statistics.median(trial_s) < args.seconds
    ):
        trial_start = time.monotonic()
        record, peak_mib = run_child([binary, "trial", *common])
        trial_s.append(time.monotonic() - trial_start)
        untraced_attempts += 1
        if trial_ok(record):
            record["peak_rss_mib"] = peak_mib
            trials.append(record)
        else:
            failed += 1
    attempted += untraced_attempts

    print(
        f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={nproc} workers={workers} trials={len(trials)} attempted={attempted} "
        f"failed={failed} failed_ratio={failed / attempted:.4f} "
        f"seconds={time.monotonic() - start:.1f}"
    )
    per_trial = {
        "setup_s": [t["setup_s"] for t in trials],
        "updates_per_s": [t["updates"] / t["seq_s"] for t in trials],
        "updates_per_s_mt": [t["updates"] / t["mt_s"] for t in trials],
        "peak_rss_mib": [t["peak_rss_mib"] for t in trials],
        "loss_remaining": [t["loss_remaining"] for t in trials],
    }
    units = dict(end_to_end, loss_remaining="ratio")
    if trials:
        print(f"# {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14}  unit  (over {len(trials)} trials)")
        for name, values in per_trial.items():
            q1, q2, q3 = quartiles(values)
            print(f"# {name:<18} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g}  {units[name]}")

    metrics = {}
    if args.trace and traced is not None and trials:
        walls = [t["seq_s"] + t["mt_s"] for t in trials]
        traced["trace.overhead_ratio"] = traced["traced_wall_s"] / statistics.median(walls)
        emitted = set(traced) - set(RECORD_FIELDS)
        expected = set(per_layer)
        if emitted != expected:
            print(f"perfbench: per-layer metrics differ: {sorted(emitted ^ expected)}", file=sys.stderr)
            return 2
        metrics = {name: (traced[name], unit) for name, unit in per_layer.items()}
        missing = [name for name, (value, _) in metrics.items() if value is None]
        if missing:
            print(f"perfbench: non-finite per-layer metrics: {missing}", file=sys.stderr)
            failed += 1
        for name, (value, unit) in metrics.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"# {name:<28} {shown:>16} {unit}")
    elif not args.trace and trials:
        metrics = {name: (statistics.median(per_trial[name]), unit) for name, unit in end_to_end.items()}
    correct = failed == 0 and bool(metrics)
    print(format_result(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
