#!/usr/bin/env python3
"""hirep-bench: build the benchmark binary from this checkout and run one workload.

    python3 hirep_bench/run.py --workload full_crypto_serial_2k --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout.  The first run configures and builds
hirep_bench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build; later runs only re-check the build.  The workload runs in one
child process; its peak resident memory is read here, from the child's
rusage, so the program is measured from outside.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
Exits 1 when the build, the run or the output check fails.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_JSON = os.path.join(HERE, "..", "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "hirep_bench")


def build():
    """Configures and builds the benchmark binary; returns the binary's path."""
    src = os.path.normpath(os.path.join(HERE, "..", "src", "CMakeLists.txt"))
    if not os.path.isfile(src):
        fail(f"{src} not found: run from the root of a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    # One build at a time per build tree.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "hirep_bench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            left = deadline - time.monotonic()
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=max(1.0, left))
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-8000:])
                fail(f"build failed: {' '.join(cmd)}")
    binary = os.path.join(out, "hirep_bench")
    if not os.access(binary, os.X_OK):
        fail(f"{binary} was not built")
    return binary


def run_child(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the binary; returns (result dict, stdout text, peak RSS in MiB)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        text = proc.stdout.read()
    finally:
        timer.cancel()
        # wait4, not wait: the child's own rusage, free of the build's.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        fail(f"run exceeded {timeout} s")
    lines = [l for l in text.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(text[-4000:])
        fail(f"hirep_bench exited {proc.returncode} without a result")
    result["exit_code"] = proc.returncode
    # ru_maxrss is KiB on Linux.
    return result, text, usage.ru_maxrss / 1024.0


def measure(binary, workload, seed, seconds, trace, extra=()):
    """One run of the binary; returns (its result dict, its report text).

    Untraced, the result's metrics gain peak_rss_mb."""
    result, text, peak_rss_mb = run_child(
        binary, ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)] + list(extra))
    report = text.rstrip("\n").rsplit("\n", 1)[0] + "\n"  # minus its JSON
    if not trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
        report += f"{'peak_rss_mb':<36} {peak_rss_mb:22.6f} MiB\n"
    return result, report


def declared_metrics(trace):
    with open(BENCH_JSON) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def summary(result, trace):
    """The result line: exactly the declared metrics, each with its unit."""
    metrics = {}
    for m in declared_metrics(trace):
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = got
    return {"correct": bool(result["correct"]) and result["exit_code"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    result, report = measure(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    line = summary(result, args.trace)
    sys.stdout.write(report)
    print(json.dumps(line))
    sys.exit(0 if line["correct"] else 1)


if __name__ == "__main__":
    main()
