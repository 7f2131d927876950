#!/usr/bin/env python3
"""Run one workload under several seeds and report, per metric, the
median and the quartile spread (third minus first quartile over the
median, statistics.quantiles(n=4)) against the metric's bound.

  python3 perfbench/spread.py --workload flow-j2 --seeds 1-10
  python3 perfbench/spread.py --workload eco-route --seeds 3,5,8 --seconds 5

Run it from the repository root; runs are sequential, so timings do not
contend with each other.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True)
        if res.returncode != 0:
            sys.exit(f"seed {seed}: exit {res.returncode}\n{res.stderr}")
        out = json.loads(res.stdout.strip().splitlines()[-1])
        first = next(iter(out["metrics"].items()), None)
        shown = f" {first[0]}={first[1]['value']:.6g}" if first else ""
        print(f"seed {seed}: correct={out['correct']} attempted={out['attempted']} "
              f"failed={out['failed']}{shown}", flush=True)
        if not out["correct"]:
            print(res.stdout)
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':44} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        mark = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        third = "" if bound is None else f"{bound / 3:.4f}"
        print(f"{name:44} {med:14.6g} {spread:8.4f} {third:>8} {mark}")


if __name__ == "__main__":
    main()
