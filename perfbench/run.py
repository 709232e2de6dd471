#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload int|fp --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The build goes to .bench_build/ and run
artifacts (Chrome traces, the daemon's temporary store) to .perfbench/,
both inside the checkout. The last line of standard output is the JSON
result. See README.md in this directory.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        sys.exit("perfbench: no dune-project and lib/ beside perfbench/; run from a full checkout")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "-j", "2", "./perfbench/main.exe"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
    except OSError as e:
        sys.exit(f"perfbench: cannot run dune: {e}")
    if code != 0 or not os.path.isfile(EXE):
        sys.exit(f"perfbench: build failed (dune exit {code})")


def pin_one_cpu():
    """Keep the client, the forked daemon and its worker on one CPU: the
    loop is closed and single-threaded, and cross-CPU wake-ups on a
    shared host add more noise than they save."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
    except (AttributeError, OSError):
        pass


def run(args, capture=False):
    """Run the benchmark binary in its own process group, so a timeout
    also stops the daemon it forks."""
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, start_new_session=True,
                            preexec_fn=pin_one_cpu,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S}s")
    return proc.returncode, out


def self_check():
    """A tiny run of every workload, traced and untraced: each must print
    every metric BENCHMARK.json names, with its unit, and fail nothing."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace)]
            code, out = run(args, capture=True)
            where = f"{w['name']} --trace {trace}"
            if code != 0:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
                    problems.append(f"{where}: {name} = {m}")
                elif section == "end_to_end" and m["value"] == 0:
                    problems.append(f"{where}: {name} is 0")
            print(f"self-check {where}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check:", "FAILED" if problems else "ok", file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_check:
        return self_check()
    if a.workload is None:
        ap.error("--workload is required")
    code, _ = run(["--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
