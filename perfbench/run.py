#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: paper-sim, serve-cold, fleet-mixed (see perfbench/README.md).
The script builds perfbench/bench.exe with dune from the sources next to
it, then runs it in one process with the library's OMPSIMD_* knobs
pinned: every inherited OMPSIMD_* variable is dropped and the NAME=VALUE
pins listed in BENCHMARK.json's "command" are set, so an inherited knob
cannot reshape a workload.  The default seed and the held-out seed for
confirming claims are named there too (PERFBENCH_SEED,
PERFBENCH_HELDOUT_SEED).

The benchmark's output is passed through; its last line is the result as
one JSON object, whose metric names and units are checked against
BENCHMARK.json.  The exit code is the benchmark's (1 on a wrong output
or a drifted exact value), or 2 when the build fails or BENCHMARK.json
is missing, or 3 when the metrics disagree with BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
TIMEOUT_S = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, "cannot read BENCHMARK.json: %s" % e)


def pins(spec):
    """NAME=VALUE tokens of the command, in order."""
    out = {}
    for token in spec["command"]:
        name, eq, value = token.partition("=")
        if eq and name.replace("_", "").isalnum() and name.isupper():
            out[name] = value
    return out


def main():
    spec = load_spec()
    pinned = pins(spec)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int,
                    default=int(pinned.get("PERFBENCH_SEED", "1")))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # the shared dune cache lives outside the checkout: keep it out
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail(2, "build failed")

    env = {k: v for k, v in os.environ.items() if not k.startswith("OMPSIMD_")}
    env.update(pinned)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             timeout=TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(1, "timed out after %d s" % TIMEOUT_S)

    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(run.returncode or 1, "no result line")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(3, "metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(want.items())))
    print(lines[-1], flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
