#!/usr/bin/env python3
"""Self-tests of the benchmark, on every workload at tiny N (a few seconds).

    python3 hirep_bench/selftest.py

Checks, per workload:
  1. serial and sharded execution give the same records_digest;
  2. two runs of one seed give bit-identical deterministic metrics and
     records_digest;
  3. every metric BENCHMARK.json names is printed with its unit, untraced
     (end_to_end) and traced (per_layer);
  4. bypass evidence: no run-phase RSA op on the fast_* workloads, no
     reliable retry on the full_crypto_* workloads, and sybil joins,
     whitewash rotations and retries all nonzero on churn_faulty_2k.
Exits 1 if any check fails.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Small enough to finish in seconds, large enough that churn_faulty_2k's
# sybil waves (every 400 ticks) and whitewash rotations fire.
TINY = {
    "fast_serial_10k": ["--nodes", "400", "--transactions", "600"],
    "full_crypto_serial_2k": ["--nodes", "150", "--transactions", "60"],
    "churn_faulty_2k": ["--nodes", "300", "--transactions", "2000"],
    "fast_sharded_10k": ["--nodes", "400", "--transactions", "600"],
    "full_crypto_2k": ["--nodes", "150", "--transactions", "60"],
}
DETERMINISTIC = ("trust_mse", "trust_msgs_per_txn", "served_txn_ratio",
                 "failed_txn_ratio")
RSA_OPS = ("sign", "verify", "encrypt", "decrypt", "generate")

failures = []


def check(ok, what):
    print(f"  [{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def tiny_run(binary, workload, trace=0, seed=7, extra=()):
    args = TINY[workload] + ["--setups", "1"] + list(extra)
    result, report = run.measure(binary, workload, seed, 0, trace, args)
    if not (result["correct"] and result["exit_code"] == 0):
        check(False, f"{workload} trace={trace} {extra}: output check")
    return result, report


def printed(report, name, unit):
    return any(line.split()[:1] == [name] and line.split()[-1:] == [unit]
               for line in report.splitlines())


def main():
    binary = run.build()
    for workload in TINY:
        print(workload)
        plain, report = tiny_run(binary, workload)
        again, _ = tiny_run(binary, workload)
        serial, _ = tiny_run(binary, workload, extra=("--execution", "serial"))
        sharded, _ = tiny_run(binary, workload,
                              extra=("--execution", "sharded"))
        traced, traced_report = tiny_run(binary, workload, trace=1)

        check(serial["records_digest"] == sharded["records_digest"],
              f"serial and sharded (ran {sharded['execution']}) give one "
              f"records_digest: {serial['records_digest']}")
        same = all(repr(plain["metrics"][k]["value"]) ==
                   repr(again["metrics"][k]["value"]) for k in DETERMINISTIC)
        check(same and plain["records_digest"] == again["records_digest"],
              "same seed twice: deterministic metrics and digest bit-identical")
        for trace, res, rep in ((0, plain, report),
                                (1, traced, traced_report)):
            missing = [m["name"] for m in run.declared_metrics(trace)
                       if m["name"] not in res["metrics"]
                       or res["metrics"][m["name"]]["unit"] != m["unit"]
                       or not printed(rep, m["name"], m["unit"])]
            check(not missing, f"trace={trace}: every declared metric printed "
                  f"with its unit {missing or ''}")

        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        if workload.startswith("fast_"):
            ops = sum(layer[f"crypto.rsa_{op}_ops"] for op in RSA_OPS)
            check(ops == 0, f"0 run-phase RSA ops (got {ops:g})")
        elif workload.startswith("full_crypto_"):
            check(layer["net.reliable_retries"] == 0,
                  f"0 reliable retries (got {layer['net.reliable_retries']:g})")
        else:
            for name in ("sim.sybil_joins", "sim.whitewash_rotations",
                         "net.reliable_retries"):
                check(layer[name] > 0, f"{name} nonzero (got {layer[name]:g})")

    print(f"\n{len(failures)} check(s) failed" if failures
          else "\nall checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
