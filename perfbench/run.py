#!/usr/bin/env python3
"""The benchmark's entry point: builds `perfbench` and runs it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

An untraced run (`--trace 0`) is split across PROCESSES fresh processes,
one after the other, each given the same seed and S / PROCESSES seconds;
every end-to-end metric is the median of the processes' values, the
operation counts are summed, and the run is correct only if every
process was. A process's memory placement stays fixed for its life and
moves its times by 10-15% on this kind of shared host; the median over
fresh processes takes that out. A traced run, or a smoke run, is one
process with the arguments as given.

The last line of standard output is the result JSON; the processes'
own reports go to standard error. Any build or process failure exits
non-zero without a result.
"""

import json
import os
import statistics
import subprocess
import sys

# Fresh processes per untraced run.
PROCESSES = 5
# Longest a single process may take before the run is abandoned, s.
PROCESS_TIMEOUT = 150

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse(argv):
    opts = {"smoke": False}
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--smoke":
            opts["smoke"] = True
            i += 1
            continue
        if a not in ("--workload", "--seed", "--seconds", "--trace") or i + 1 >= len(argv):
            fail(f"unexpected argument {a!r}")
        opts[a[2:]] = argv[i + 1]
        i += 2
    for k in ("workload", "seed", "seconds", "trace"):
        if k not in opts:
            fail(f"--{k} is required")
    return opts


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd).returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"no binary at {binary}")
    return binary


def run_one(binary, args):
    """Runs one process; returns its result object."""
    try:
        p = subprocess.run(
            [binary] + args, stdout=subprocess.PIPE, timeout=PROCESS_TIMEOUT, text=True
        )
    except subprocess.TimeoutExpired:
        fail(f"a process ran past {PROCESS_TIMEOUT} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"a process exited with {p.returncode} and {len(lines)} output lines")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"a process printed no result: {lines[-1]!r}")


def main():
    opts = parse(sys.argv[1:])
    binary = build()
    base = ["--workload", opts["workload"], "--seed", opts["seed"], "--trace", opts["trace"]]
    if opts["smoke"]:
        base.append("--smoke")
    try:
        seconds = float(opts["seconds"])
    except ValueError:
        fail("--seconds must be a number")
    if opts["trace"] != "0" or opts["smoke"]:
        result = run_one(binary, base + ["--seconds", opts["seconds"]])
        print(json.dumps(result))
        return
    each = repr(seconds / PROCESSES)
    results = [run_one(binary, base + ["--seconds", each]) for _ in range(PROCESSES)]
    names = list(results[0]["metrics"])
    if any(list(r["metrics"]) != names for r in results):
        fail("the processes reported different metrics")
    metrics = {}
    print(f"== median of {PROCESSES} processes ==", file=sys.stderr)
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        shown = " ".join(f"{v:.6g}" for v in values)
        print(f"  {name:<20} {metrics[name]['value']:>14.6g} {unit:<8} [{shown}]", file=sys.stderr)
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
