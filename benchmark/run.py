#!/usr/bin/env python3
"""End-to-end benchmark of skewless.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test

Builds the library and the trial driver (benchmark/e2e.cpp) from this
checkout's sources with CMake into .bench_build/ at the checkout root, then
measures one workload for --seconds. Each trial runs in its own driver
process, so each one samples a fresh randomized address-space layout. The
run prints a context object, then one JSON result object as the last line
of stdout. The exit status is non-zero when the build fails or any check
fails.

--self-test runs every workload at a fraction of its size and asserts that
every metric BENCHMARK.json names is printed with its unit, that the
reference checks pass, and that a deliberately wrong expected checksum is
caught (negative control).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "skewless_e2e")
# Nominal seconds of one trial process per workload, as measured on the
# 4-vCPU host the benchmark was sized on. A run's trial count follows from
# --seconds and these constants only, never from how fast the build under
# test runs, so every run with the same --seconds covers the same key
# layouts and pools the same number of boundary stalls (a fixed tail
# percentile). At --seconds 30: 8, 3 and 4 trials.
WORKLOADS = {
    "steady-threaded": 3.5,
    "fluctuating-threaded": 9.5,
    "steady-net": 7.0,
}
WORKERS = 3
# A measured run must end within 180 s; leave room for start-up.
RUN_LIMIT_S = 170
# An untraced run whose trials take this many times --seconds warns on
# stderr: the nominal durations above no longer fit this machine or build.
OVERRUN_FACTOR = 1.5
# The fewest trials an untraced run makes. θ, migration and table size are
# averaged over exactly these, so they are bit-identical between runs of
# one seed.
QUALITY_TRIALS = 2
# setup_s is the median of SETUP_PROCESSES × SETUP_SAMPLES constructions
# without a run, spread over processes (layouts), plus one per trial.
SETUP_PROCESSES = 8
SETUP_SAMPLES = 4


class CheckFailed(Exception):
    pass


def build():
    """Configures (once) and builds into BUILD; build logs go to stderr so
    the result stays the last line of stdout. `cmake --build` re-runs the
    configure step by itself when a CMakeLists.txt changes."""
    steps = [["cmake", "--build", BUILD, "--parallel",
              str(min(4, os.cpu_count() or 1))]]
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release", *generator])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


class Run:
    """One measured run: spawns driver processes and keeps the tally."""

    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.attempted = 0
        self.failures = []

    def driver(self, *flags):
        cmd = [BINARY, "--workload", self.args.workload, *flags]
        if self.args.smoke:
            cmd.append("--smoke")
        if self.args.corrupt_reference:
            cmd.append("--corrupt-reference")
        budget = self.start + RUN_LIMIT_S - time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, budget))
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"{' '.join(cmd)} timed out")
        if proc.returncode != 0:
            raise CheckFailed(f"{' '.join(cmd)} exited {proc.returncode}")
        return json.loads(proc.stdout)

    def trial(self, index, *flags):
        r = self.driver("--seed", str(self.args.seed), "--trial", str(index),
                        *flags)
        self.attempted += r["offered"]
        if r["failure"]:
            self.failures.append(f"trial {index}: {r['failure']}")
        return r

    def trials(self, per_trial, minimum):
        """How many trials (or pairs, when `per_trial` is 2) fill --seconds
        at the workload's nominal trial duration; at least `minimum`, and
        one when smoke-testing."""
        if self.args.smoke:
            return 1
        nominal = WORKLOADS[self.args.workload] * per_trial
        return max(minimum, int(self.args.seconds // nominal))

    def warn_overrun(self):
        """Called for untraced runs only: traced trials and the 1-worker
        trial make a traced run longer by design."""
        elapsed = time.monotonic() - self.start
        if elapsed > OVERRUN_FACTOR * self.args.seconds:
            print(f"warning: the trials took {elapsed:.1f} s for --seconds "
                  f"{self.args.seconds:g}; the trial counts are sized for a "
                  "faster machine", file=sys.stderr)


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def per(num, den):
    return num / den if den > 0 else 0.0


def throughput(trials):
    """Tuples processed ÷ wall time of run(), summed over the trials. A
    sum rather than a median: each trial runs under its own random
    address-space layout, and layout alone moves a trial's throughput by
    up to ±20% (a few distinct modes), which a median of a few trials
    would jump between."""
    return (sum(r["offered"] for r in trials)
            / sum(r["wall_s"] for r in trials))


def pooled_stalls(trials):
    return [s for r in trials for s in r["stall_ms"]]


def tail(values):
    """The highest order statistic with at least 10 samples above it (the
    maximum with 10 or fewer samples), and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    idx = n - 11 if n > 10 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def end_to_end(untraced, setup_s):
    quality = untraced[:QUALITY_TRIALS]
    stalls = pooled_stalls(untraced)
    return {
        "throughput_tps": (throughput(untraced), "tuples/s"),
        "stall_p50_ms": (median(stalls), "ms"),
        "stall_tail_ms": (tail(stalls)[0], "ms"),
        # Interval 0 runs on pure hashing, before the first plan.
        "theta_mean": (mean([mean(r["theta"][1:]) for r in quality]),
                       "ratio"),
        "migrated_mb": (mean([r["migrated_bytes"] / 1e6 for r in quality]),
                        "MB"),
        "table_entries": (mean([p[2] for r in quality for p in r["plans"]]),
                          "count"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in untraced) / 1024.0,
                        "MB"),
        "setup_s": (median(setup_s), "s"),
    }


def per_layer(untraced, traced, one_worker):
    """Per-layer numbers from the traced trials, and the base of every
    ratio."""
    n = len(traced)
    wall_s = sum(r["wall_s"] for r in traced)
    stall_ms = sum(sum(r["stall_ms"]) for r in traced)
    boundaries = sum(len(r["stall_ms"]) for r in traced)
    tuples = sum(r["offered"] for r in traced)
    routed = sum(r["routed"] for r in traced)
    route_ns = sum(r["route_ns"] for r in traced)
    hits = sum(r["table_hits"] for r in traced)
    plans = [p for r in traced for p in r["plans"]]
    rebalances = sum(r["rebalances"] for r in traced)
    process_ns = sum(w[0] for r in traced for w in r["workers"])
    calls = sum(w[1] for r in traced for w in r["workers"])
    busy_max = busy_min = 0.0
    for r in traced:
        # A worker that never called process() holds no slot and is idle.
        busy = [w[0] / (r["wall_s"] * 1e9) for w in r["workers"]]
        busy += [0.0] * (WORKERS - len(busy))
        busy_max += max(busy)
        busy_min += min(busy)
    tps3 = throughput(untraced)
    tps_traced = throughput(traced)
    # The 1-worker trial runs the first pair's input, so scaling compares
    # it with that pair's untraced trial only.
    tps3_first = throughput(untraced[:1])
    tps1 = throughput([one_worker])
    route_per_tuple = per(route_ns, routed)
    bases = {
        "traced_trials": n, "traced_wall_s": wall_s, "traced_tuples": tuples,
        "boundaries": boundaries, "stall_ms_total": stall_ms,
        "process_calls": calls, "routed_tuples": routed, "table_hits": hits,
        "planner_calls": len(plans), "rebalances": rebalances,
        "untraced_tps": tps3, "traced_tps": tps_traced,
        "first_untraced_tps": tps3_first, "one_worker_tps": tps1,
    }
    metrics = {
        "engine.boundary.stall_share": (per(stall_ms / 1e3, wall_s), "ratio"),
        "engine.operator.process_ns_per_tuple": (per(process_ns, calls), "ns"),
        "engine.worker.busy_share_max": (busy_max / n, "ratio"),
        "engine.worker.busy_share_min": (busy_min / n, "ratio"),
        "engine.scaling_1w_x": (per(tps3_first, tps1), "x"),
        "core.assignment.route_ns_per_tuple": (route_per_tuple, "ns"),
        "core.assignment.table_hit_share": (per(hits, routed), "ratio"),
        "core.planner.plan_ms_p50": (median([p[0] for p in plans]), "ms"),
        "core.planner.calls": (len(plans) / n, "count"),
        "core.planner.moves_per_call": (
            per(sum(p[1] for p in plans), len(plans)), "count"),
        "core.controller.rebalances": (rebalances / n, "count"),
        "core.controller.migrated_keys_per_rebalance": (
            per(sum(r["moves"] for r in traced), rebalances), "count"),
        "sketch.merge_ms_per_boundary": (
            per(sum(r["merge_ms"] for r in traced), boundaries), "ms"),
        "sketch.promotions_per_boundary": (
            per(sum(r["promotions"] for r in traced), boundaries), "count"),
        "sketch.demotions_per_boundary": (
            per(sum(r["demotions"] for r in traced), boundaries), "count"),
        "sketch.stats_memory_mb": (
            mean([r["stats_memory_bytes"] / 1e6 for r in traced]), "MB"),
        "net.data_bytes_per_tuple": (
            per(sum(r["data_wire_bytes"] for r in traced), tuples), "B"),
        "net.ctrl_bytes_per_boundary": (
            per(sum(r["ctrl_wire_bytes"] for r in traced), boundaries), "B"),
        "net.migration_wire_mb": (
            mean([r["migration_wire_bytes"] / 1e6 for r in traced]), "MB"),
        "net.recoveries": (sum(r["recoveries"] for r in traced), "count"),
        "trace.overhead_pct": (per(tps3 - tps_traced, tps3) * 100.0, "%"),
        # Driver-thread time the measured layers account for: boundary
        # stall plus routing; the rest of run() is unattributed.
        "trace.attributed_share": (
            per(stall_ms * 1e6 + route_per_tuple * tuples, wall_s * 1e9),
            "ratio"),
    }
    return metrics, bases


def theta_digest(theta):
    return hashlib.sha256(json.dumps(theta).encode()).hexdigest()[:16]


def measure(run):
    args = run.args
    untraced, traced, one_worker, setup_s = [], [], None, []
    if args.trace == 0:
        for _ in range(SETUP_PROCESSES):
            setup_s += run.driver("--setup-samples",
                                  str(SETUP_SAMPLES))["setup_s"]
        for t in range(run.trials(1, QUALITY_TRIALS)):
            untraced.append(run.trial(t))
            setup_s.append(untraced[-1]["setup_s"])
        run.warn_overrun()
    else:
        # Pairs of trials, untraced then traced, on the same inputs; after
        # the first pair, one 1-worker trial on its input.
        for t in range(run.trials(2, 1)):
            untraced.append(run.trial(t))
            traced.append(run.trial(t, "--traced"))
            if t == 0:
                one_worker = run.trial(t, "--workers", "1")
            if (traced[-1]["plan_digest"] != untraced[-1]["plan_digest"]
                    or traced[-1]["theta"] != untraced[-1]["theta"]):
                run.failures.append(f"trial {t}: tracing changed the plan "
                                    "history or theta")

    first = untraced[0]
    context = {
        "hardware_threads": first["hardware_threads"],
        "kernel_tier": first["kernel_tier"],
        "workload": args.workload, "seed": args.seed,
        "trials": len(untraced),
        "boundaries_per_trial": len(first["stall_ms"]),
        "plan_digest_trial0": first["plan_digest"],
        "theta_digest_trial0": theta_digest(first["theta"]),
    }
    if args.trace == 0:
        stalls = pooled_stalls(untraced)
        context["stall_samples"] = len(stalls)
        context["stall_tail_percentile"] = round(tail(stalls)[1], 2)
    if args.workload == "steady-net":
        # steady-net must route exactly as steady-threaded does on the same
        # seed: re-run its first trial on the threaded engine and compare.
        ref = run.trial(0, "--engine", "threaded")
        context["threaded_plan_digest_trial0"] = ref["plan_digest"]
        if (ref["plan_digest"] != first["plan_digest"]
                or ref["theta"] != first["theta"]):
            run.failures.append("plan digest or theta differs from the "
                                "threaded engine on the same inputs")
    print(json.dumps(context, indent=2))

    if args.trace == 0:
        return end_to_end(untraced, setup_s)
    metrics, bases = per_layer(untraced, traced, one_worker)
    print(json.dumps({"bases": bases}))
    return metrics


def main_run(args):
    run = Run(args)
    try:
        metrics = measure(run)
    except (CheckFailed, json.JSONDecodeError, KeyError, IndexError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = not run.failures
    # A run that fails any check counts all its tuples as failed.
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": 0 if correct else run.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    def invoke(workload, trace, *extra):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", "1", "--seconds", "1", "--trace",
               str(trace), "--smoke", *extra]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S + 10)
        lines = proc.stdout.strip().splitlines()
        try:
            return proc.returncode, json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return proc.returncode, None

    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            rc, result = invoke(workload, trace)
            if rc != 0 or result is None:
                failures.append(f"{label}: exit {rc}, result {result}")
                continue
            if not (result["correct"] is True and result["failed"] == 0
                    and result["attempted"] >= 1):
                failures.append(f"{label}: reference check did not pass")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics {units} != {expected[trace]}")
            for name, m in result["metrics"].items():
                if not (isinstance(m["value"], (int, float))
                        and math.isfinite(m["value"])):
                    failures.append(f"{label}: {name} = {m['value']}")
        # Negative control: a wrong expected checksum must fail the run.
        rc, result = invoke(workload, 0, "--corrupt-reference")
        if rc == 0 or result is None or result["correct"] is not False \
                or result["failed"] != result["attempted"]:
            failures.append(f"{workload}: corrupted reference was not caught "
                            f"(exit {rc}, result {result})")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if failures else "pass",
                      "failures": len(failures)}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    # Used by --self-test: a twentieth of the tuples, 3 intervals, one
    # trial (or one traced pair); and a wrong expected checksum.
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 2
    return self_test() if args.self_test else main_run(args)


if __name__ == "__main__":
    sys.exit(main())
