#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 hirep_bench/repeat.py --seeds 1-10
    python3 hirep_bench/repeat.py --workloads churn_faulty_2k --seeds 1-5 \
        --record hirep_bench/results/trajectory.jsonl

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) as a
share of the median, and that metric's bound from BENCHMARK.json.  A spread
above a third of its bound is flagged; setup_s is exempt, as its bound only
limits drift between medians.  With --record, one JSON line per workload
(medians, quartiles, per-seed records_digest and the machine: nproc,
compiler, build type) is appended to the given file, the committed perf
trajectory.  Exits 1 when a run fails or its output check fails.
"""

import argparse
import datetime
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(run.BENCH_JSON) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--record", help="append a trajectory line per workload")
    args = ap.parse_args()

    binary = run.build()
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        digests = {}
        last = None
        for seed in seeds:
            result, _ = run.measure(binary, workload, seed, args.seconds, 0)
            line = run.summary(result, 0)
            if not line["correct"]:
                ok = False
                print(f"{workload} seed {seed}: output check FAILED",
                      file=sys.stderr)
            for name in values:
                values[name].append(line["metrics"][name]["value"])
            digests[str(seed)] = result["records_digest"]
            last = result
        print(f"\n{workload}: {len(seeds)} seeds, {args.seconds:g} s runs")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        stats = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  <- above bound/3"
            print(f"  {m['name']:<20} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {m['bound']:6.3f}{flag}")
            stats[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "unit": m["unit"],
                                "values": v}
        if args.record:
            entry = {
                "date": datetime.date.today().isoformat(),
                "workload": workload,
                "seeds": seeds,
                "run_seconds": args.seconds,
                "nproc": os.cpu_count(),
                "compiler": last["compiler"],
                "build_type": last["build_type"],
                "obs": last["obs"],
                "execution": last["execution"],
                "nodes": last["nodes"],
                "metrics": stats,
                "records_digest": digests,
            }
            with open(args.record, "a") as f:
                f.write(json.dumps(entry) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
