#!/usr/bin/env python3
"""Build and run the end-to-end benchmark described in BENCHMARK.json.

Run from the root of a checkout:

    python3 hembench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 hembench/run.py --all [SEED]
    python3 hembench/run.py --self-test

The first form builds hembench/hembench.exe from source with dune and
runs one workload; the last line of its output is the JSON result.  The
second runs every workload, untraced and traced, at BENCHMARK.json's
run_seconds and prints every report.  The third runs every workload at
a tiny size and checks that each named metric prints with its unit,
that the checks pass, that a deliberately wrong expected answer counts
as a failed op, and that a HEMLOCK_* variable in the environment stops
the run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "hembench", "hembench.exe")
BILLED = os.path.join("hembench", "billed.txt")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("hembench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("run from the root of a full checkout: dune-project and lib/ are missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(["dune", "build", "--root", ROOT, "./hembench/hembench.exe"],
                           cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def run_exe(args, env=None):
    try:
        return subprocess.run([EXE] + args, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_all(seed):
    spec = load_spec()
    failures = 0
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in ("0", "1"):
            r = run_exe(["--workload", w, "--seed", seed, "--seconds", str(spec["run_seconds"]),
                         "--trace", trace, "--rev", source_rev(), "--billed", BILLED])
            sys.stdout.write(r.stdout + "\n")
            res = last_json(r.stdout) if r.returncode == 0 else None
            if res is None or not res["correct"]:
                failures += 1
                print("hembench: %s trace %s did not pass its checks" % (w, trace))
    return 1 if failures else 0


def self_test():
    spec = load_spec()
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    base = ["--seed", "7", "--seconds", "1", "--ops", "12"]
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            r = run_exe(["--workload", w, "--trace", str(trace)] + base)
            res = last_json(r.stdout) if r.returncode == 0 else None
            if res is None:
                problems.append("%s trace %d: no result (exit %d)" % (w, trace, r.returncode))
                continue
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append("%s trace %d: metrics/units differ from BENCHMARK.json: %s"
                                % (w, trace, sorted(set(got.items()) ^ set(want[trace].items()))))
            if not all(isinstance(v.get("value"), (int, float)) for v in res["metrics"].values()):
                problems.append("%s trace %d: a metric value is not a number" % (w, trace))
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s trace %d: checks failed" % (w, trace))
        r = run_exe(["--workload", w, "--trace", "0", "--sabotage", "3"] + base)
        res = last_json(r.stdout) if r.returncode == 0 else None
        if res is None or res["failed"] < 1 or res["correct"]:
            problems.append("%s: a wrong expected answer was not counted as a failed op" % w)
        print("self-test %s: done" % w, flush=True)
    r = run_exe(["--workload", "compute", "--trace", "0"] + base,
                env=dict(os.environ, HEMLOCK_NO_JIT="1"))
    if r.returncode == 0 or r.stdout.strip():
        problems.append("a HEMLOCK_* variable did not stop the run")
    for p in problems:
        print("self-test FAILED: " + p)
    print("self-test %s" % ("passed" if not problems else "failed"))
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--self-test"]:
        sys.exit(self_test())
    if argv[:1] == ["--all"] and len(argv) <= 2:
        sys.exit(run_all(argv[1] if len(argv) == 2 else "1"))
    r = run_exe(argv + ["--rev", source_rev(), "--billed", BILLED])
    sys.stdout.write(r.stdout)
    sys.stderr.write(r.stderr)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
