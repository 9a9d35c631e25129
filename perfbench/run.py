#!/usr/bin/env python3
"""End-to-end benchmark of the RPTCN stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <fleet|drift> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/CMakeLists.txt (the library
sources under src/ plus perfbench/driver.cpp) into .bench_build/perfbench;
later runs only rebuild what changed. The driver binary then runs the
workload for --seconds of measured time and checks its outputs. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A traced run also writes the obs registry
and span forest to .bench_build/perfbench/trace-<workload>-<seed>.json.
The workloads are described at the top of perfbench/driver.cpp.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
WORKLOADS = ("fleet", "drift")
BUILD_TIMEOUT_S = 840
# Allowance beyond the measured window: the set-ups, warm-up and checks.
RUN_OVERHEAD_S = 100


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout the whole group (the
    compilers under cmake included) is killed and reaped."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(cmd[0]).name} exited with code "
                           f"{proc.returncode}")
    return out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    run(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
         "-j", jobs],
        BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)


def validate(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"unexpected result keys: {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise RuntimeError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise RuntimeError("failed must be a whole number >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        raise RuntimeError(
            f"metrics {sorted(result['metrics'])} != {sorted(want)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    cmd = [str(DRIVER), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        trace_out = BUILD / f"trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace-out", str(trace_out)]
    stdout = run(cmd, args.seconds + RUN_OVERHEAD_S, cwd=ROOT,
                 stdout=subprocess.PIPE, text=True)
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no result")
    result = json.loads(lines[-1])
    validate(result, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
