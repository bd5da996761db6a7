#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 hembench/spread.py --workload W [--seeds 1-10] [--record]

Runs the benchmark once per seed (trace 0, BENCHMARK.json's
run_seconds) and prints, for every end-to-end metric, the median and
the distance between the first and third quartiles as a share of the
median, next to a third of the metric's bound.  --record appends each
run's billed-cost digest to hembench/billed.txt, so later runs of the
same seed must bill the same simulated costs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        a, _, b = part.partition("-")
        out.extend(range(int(a), int(b or a) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    billed = []
    for s in seeds(args.seeds):
        r = subprocess.run([sys.executable, os.path.join("hembench", "run.py"),
                            "--workload", args.workload, "--seed", str(s),
                            "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                           cwd=ROOT, capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.exit("seed %d: run failed (exit %d)\n%s" % (s, r.returncode, r.stderr))
        res = json.loads(lines[-1])
        if not res["correct"]:
            sys.exit("seed %d: run not correct\n%s" % (s, r.stdout))
        for k, v in res["metrics"].items():
            values[k].append(v["value"])
        billed += [l[len("billed: "):] for l in lines if l.startswith("billed: ")]
        print("seed %d: %s" % (s, " ".join("%s=%.4g" % (k, v["value"])
                                           for k, v in res["metrics"].items())), flush=True)
    if args.record:
        with open(os.path.join(HERE, "billed.txt"), "a") as fh:
            for line in billed:
                fh.write(line + "\n")
    if len(values["setup_s"]) < 2:
        return
    print("%-14s %12s %10s %10s" % ("metric", "median", "iqr/med", "bound/3"))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print("%-14s %12.5g %10.4f %10.4f" % (m["name"], med, (q3 - q1) / med, m["bound"] / 3))


if __name__ == "__main__":
    main()
