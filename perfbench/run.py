#!/usr/bin/env python3
"""Benchmark of the shard service and the Spawn/Merge runtime.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds perfbench/main.exe with
dune, then runs rounds of workload W (each round a process of its own, all
with seed N) until S seconds have passed, at least MIN_ROUNDS times.  Every
round checks its outputs; across rounds the final contents and the
deterministic counts must repeat exactly.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics, each the median over rounds (a
latency percentile is taken per round, then the median over rounds), except
setup_s: the interquartile mean of every set-up the run measured (each round
sets up 9 times).  --trace 1 alternates traced and untraced rounds, prints
the per-layer metrics of the traced ones plus the tracing overhead, writes
the spans of the first traced round to .perfbench/, and prints on stderr the
share of wall time the named layers cover.

Metric names, units and the layer -> end-to-end interaction table are in
perfbench/metrics.json.  Exit code 0: outputs correct; 1: a check failed;
2: usage; 3: the build failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ("collab-edit", "collab-follow", "spawn-sim")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 120


def catalogue():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def build():
    """Build the benchmark from the checkout's sources; False on failure."""
    try:
        proc = subprocess.run(
            # The shared dune cache lives outside the checkout: keep it off.
            ["dune", "build", "--root", ROOT, "--cache=disabled", "--display", "quiet", "./perfbench/main.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return proc.returncode == 0 and os.path.exists(EXE)


def call(args):
    """Run main.exe; return (exit code, last stdout line)."""
    try:
        proc = subprocess.run(
            [EXE] + args, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: main.exe {' '.join(args)} timed out", file=sys.stderr)
        return None, ""
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def run_round(workload, seed, traced, reference, spans):
    args = ["round", "--workload", workload, "--seed", str(seed)]
    args += ["--trace", str(int(traced)), "--spans", str(int(spans))]
    if reference is not None:
        args += ["--reference", reference]
    code, line = call(args)
    try:
        outcome = json.loads(line)
    except json.JSONDecodeError:
        outcome = None
    if outcome is None:
        return None, [f"round exited {code} without an outcome"]
    errors = [f"{c['name']}: {c['detail']}" for c in outcome["checks"] if not c["ok"]]
    if code != 0 and not errors:
        errors.append(f"round exited {code}")
    return outcome, errors


def cross_round_errors(outcomes, label):
    """Final contents and deterministic counts must repeat in every round."""
    errors = []
    if len({o["content"] for o in outcomes}) > 1:
        errors.append(f"{label}: final contents differ across rounds of one seed")
    keys = sorted(set().union(*(o["det"].keys() for o in outcomes)))
    for k in keys:
        values = [o["det"].get(k) for o in outcomes]
        if len(set(values)) > 1:
            errors.append(f"{label}: nondeterminism: {k} differs across rounds: {values}")
    return errors


def median_of(outcomes, name):
    return statistics.median(o["metrics"].get(name, 0.0) for o in outcomes)


def interquartile_mean(xs):
    xs = sorted(xs)
    q = len(xs) // 4
    return statistics.mean(xs[q : len(xs) - q])


def e2e_value(outcomes, name):
    """setup_s is the interquartile mean of every set-up in the run: set-up
    is a short burst, and on a shared host its samples fall into fast and
    slow modes that a median would snap between.  The rest are medians
    over rounds."""
    if name == "setup_s":
        return interquartile_mean([x for o in outcomes for x in o["setups"]])
    return median_of(outcomes, name)


def coverage_report(workload, traced):
    """What share of a round's wall time the named layers' spans cover; the
    rest is the benchmark's own loop (driver_s) plus unattributed time."""
    m = {k: median_of(traced, k) for k in ("attr.wall_s", "attr.layer_share", "driver_s", "attr.unattributed_s")}
    print(
        f"perfbench: {workload}: named layers cover {100 * m['attr.layer_share']:.1f}% of "
        f"{m['attr.wall_s']:.3f} s wall; driver_s {m['driver_s']:.3f} s; "
        f"unattributed {m['attr.unattributed_s']:.3f} s",
        file=sys.stderr,
    )


def measure(workload, seed, seconds, trace):
    errors = []
    reference = None
    if workload == "spawn-sim":
        code, reference = call(["reference", "--seed", str(seed)])
        if code != 0 or not reference:
            return None, ["reference simulation failed"]
    if trace:
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        # With --trace 1 the rounds alternate untraced / traced.
        want_traced = trace and len(traced) < len(plain)
        outcome, errs = run_round(workload, seed, want_traced, reference, want_traced and not traced)
        errors += errs
        if outcome is None:
            break
        (traced if want_traced else plain).append(outcome)
        enough = len(plain) >= MIN_ROUNDS and (not trace or len(traced) >= MIN_ROUNDS)
        if enough and time.monotonic() - start >= seconds:
            break
        if errs:
            break
    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            errors += cross_round_errors(group, label)
    if plain and traced and plain[0]["content"] != traced[0]["content"]:
        errors.append("traced and untraced rounds reached different contents")
    return (plain, traced), errors


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    cat = catalogue()
    if not build():
        return 3
    groups, errors = measure(a.workload, a.seed, a.seconds, a.trace == 1)
    if groups is None:
        for e in errors:
            print(f"perfbench: {e}", file=sys.stderr)
        return 1
    plain, traced = groups
    metrics = {}
    if a.trace == 0:
        for m in cat["end_to_end"]:
            metrics[m["name"]] = {"value": e2e_value(plain, m["name"]), "unit": m["unit"]}
    elif traced:
        for m in cat["per_layer"]:
            metrics[m["name"]] = {"value": median_of(traced, m["name"]), "unit": m["unit"]}
        fast, slow = median_of(plain, "ops_per_s"), median_of(traced, "ops_per_s")
        metrics["trace.overhead_frac"]["value"] = 1.0 - slow / fast if fast > 0 else 0.0
        coverage_report(a.workload, traced)
    rounds = plain + traced
    attempted = sum(o["attempted"] for o in rounds)
    failed = sum(o["failed"] for o in rounds)
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    correct = not errors and bool(rounds)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
