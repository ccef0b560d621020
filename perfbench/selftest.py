#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Builds the benchmark, runs
selftest.exe (each per-round output check fails on a deliberately wrong
output and passes on the real one; small-scale reference runs agree), then
tests run.py's cross-round checks on real rounds: a different seed's
content and a drifting deterministic count must both be caught.  Also
checks that BENCHMARK.json lists exactly the metrics of metrics.json.
Exits 1 if any test failed.
"""

import copy
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

failures = 0


def expect(name, cond):
    global failures
    print(("ok   " if cond else "FAIL ") + name, flush=True)
    if not cond:
        failures += 1


def main():
    built = subprocess.run(
        ["dune", "build", "--root", run.ROOT, "--cache=disabled", "./perfbench/main.exe", "./perfbench/selftest.exe"],
        cwd=run.ROOT,
    )
    if built.returncode != 0:
        print("FAIL build")
        return 1
    ocaml = subprocess.run([os.path.join(run.ROOT, "_build", "default", "perfbench", "selftest.exe")])
    expect("selftest.exe: per-round checks and reference runs", ocaml.returncode == 0)

    # Cross-round checks on real spawn-sim rounds.
    rounds = {}
    for seed in (1, 2):
        code, ref = run.call(["reference", "--seed", str(seed)])
        outcome, errors = run.run_round("spawn-sim", seed, False, ref, False)
        expect(f"spawn-sim seed {seed}: a real round passes its checks", outcome is not None and not errors)
        rounds[seed] = outcome
    again, errors = run.run_round("spawn-sim", 1, False, run.call(["reference", "--seed", "1"])[1], False)
    expect("cross-round: two rounds of one seed agree", not run.cross_round_errors([rounds[1], again], "t"))
    expect(
        "cross-round: a different seed's content is caught",
        any("contents differ" in e for e in run.cross_round_errors([rounds[1], rounds[2]], "t")),
    )
    drifted = copy.deepcopy(again)
    drifted["det"]["cycles"] += 1
    expect(
        "cross-round: a deterministic count off by one is reported as nondeterminism",
        any("nondeterminism" in e for e in run.cross_round_errors([rounds[1], drifted], "t")),
    )
    _, errors = run.run_round("spawn-sim", 1, False, "not-the-reference", False)
    expect(
        "a round against a wrong reference digest reports the failed check",
        any(e.startswith("event_digest_eq_conventional") for e in errors),
    )

    # BENCHMARK.json and metrics.json name the same metrics.
    cat = run.catalogue()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    strip = lambda ms: [(m["name"], m["unit"], m["better"]) for m in ms]  # noqa: E731
    expect("BENCHMARK.json end_to_end matches metrics.json", strip(bench["end_to_end"]) == strip(cat["end_to_end"]))
    expect("BENCHMARK.json per_layer matches metrics.json", strip(bench["per_layer"]) == strip(cat["per_layer"]))
    expect(
        "BENCHMARK.json workloads are run.py's",
        [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
    )
    if failures:
        print(f"{failures} test(s) failed")
        return 1
    print("all tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
