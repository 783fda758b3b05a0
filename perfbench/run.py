#!/usr/bin/env python3
"""Farm benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first call configures and
builds perfbench/ (which builds libqosctrl from the checkout's sources)
into .bench_build/perfbench; later calls reuse that build.

--trace 0 measures the end-to-end metrics: timed farm runs, one fresh
process each, for S seconds (a run that would end past them is not
started).  --trace 1 runs traced passes of the layer replay for S
seconds and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  README.md in this directory explains
the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("steady-qcif", "faulted-qcif", "join-storm")
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        build_dir.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    return build_dir / "farm_bench"


def run_child(argv):
    """Runs one benchmark process to completion; returns (exit code,
    stdout, resource usage, spawn time on the monotonic clock)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    status = None
    try:
        out = proc.stdout.read()
        # Reap with wait4 so the child's own peak RSS is known.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        if status is None:  # interrupted: stop the child before leaving
            proc.kill()
            os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage, spawned


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(binary, workload, seed, seconds, extra):
    """Timed runs for `seconds`; prints the human summary and returns
    the result object."""
    base = [str(binary), "run", "--workload", workload, "--seed", str(seed),
            *extra]
    pool_workers = max(1, min(os.cpu_count() or 1, 4))

    # Once per invocation: the pooled data plane must give the same
    # report as one worker.  Also warms the page cache for the binary.
    code, out, _, _ = run_child(base + ["--workers", str(pool_workers)])
    pooled = last_json(out) if code == 0 else None

    runs, failed = [], 0
    first_digest = None
    durations = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or (
            time.monotonic() - start + statistics.median(durations)
            <= seconds):
        code, out, usage, spawned = run_child(base + ["--workers", "1"])
        durations.append(time.monotonic() - spawned)
        r = last_json(out) if code == 0 else None
        ok = r is not None and not r["failed_checks"]
        if ok:
            first_digest = first_digest or r["digest"]
            ok = r["digest"] == first_digest
        if ok:
            r["setup_s"] = r["ready_mono"] - spawned
            r["peak_rss_mb"] = usage.ru_maxrss / 1024.0
            runs.append(r)
        else:
            failed += 1
            print(f"perfbench: run failed (exit {code}): {out.strip()[-300:]}",
                  file=sys.stderr)
            runs.append(None)
            if len(runs) >= MIN_RUNS:
                break
    attempted = len(runs)
    good = [r for r in runs if r is not None]
    pooled_ok = (pooled is not None and first_digest is not None
                 and pooled["digest"] == first_digest)
    correct = failed == 0 and pooled_ok
    if not good:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}

    first = good[0]
    miss_rate = first["display_misses"] / max(1, first["encoded_frames"])
    print(f"workload {workload} seed {seed}: digest={first_digest} "
          f"total_frames={first['total_frames']} "
          f"admitted={first['admitted']} "
          f"report_bytes={first['report_bytes']} "
          f"trace_bytes={first['trace_bytes']}; {pool_workers}-worker "
          f"report {'matches' if pooled_ok else 'DIFFERS'}")
    metrics = {}
    for name, unit, vals in (
            ("stream_frames_per_s", "frames/s",
             [r["total_frames"] / r["wall_s"] for r in good]),
            ("setup_s", "s", [r["setup_s"] for r in good]),
            ("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in good])):
        med = statistics.median(vals)
        q1, q3 = quartiles(vals)
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:22s} {med:14.6g} {unit:9s} median of {len(vals)}; "
              f"q1={q1:.6g} q3={q3:.6g} max={max(vals):.6g}")
    # failed_run_ratio and display_miss_rate read 0 when healthy; the
    # result carries their complements, which keep a relative bound
    # meaningful.  Both forms are printed.
    for name, unit, val, in_result in (
            ("run_ok_ratio", "ratio", 1.0 - failed / attempted, True),
            ("display_ontime_ratio", "ratio", 1.0 - miss_rate, True),
            ("mean_quality_level", "level", first["mean_quality"], True),
            ("failed_run_ratio", "ratio", failed / attempted, False),
            ("display_miss_rate", "ratio", miss_rate, False)):
        if in_result:
            metrics[name] = {"value": val, "unit": unit}
        print(f"  {name:22s} {val:14.6g} {unit:9s}")
    print(f"  ({failed} of {attempted} runs failed; "
          f"{first['display_misses']} display misses in "
          f"{first['encoded_frames']} encoded frames)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(binary, workload, seed, seconds, extra, out_dir):
    pool_workers = max(1, min(os.cpu_count() or 1, 4))
    span_file = out_dir / f"spans-{workload}-{seed}.json"
    code, out, _, _ = run_child(
        [str(binary), "trace", "--workload", workload, "--seed", str(seed),
         "--workers", str(pool_workers), "--seconds", str(seconds),
         "--out", str(span_file), *extra])
    r = last_json(out) if code == 0 else None
    for line in out.splitlines()[:-1]:
        print(line)
    if r is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(f"span trace (Chrome trace-event JSON): {span_file}")
    ok = not r["failed_checks"]
    if not ok:
        print(f"perfbench: failed checks: {r['failed_checks']}",
              file=sys.stderr)
    return {"correct": ok, "attempted": 1, "failed": 0 if ok else 1,
            "metrics": r["metrics"]}


def main():
    # Turn SIGTERM into an exception, so a running child is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--allow-unrepresentative", action="store_true",
                    help="record from a non-Release build or with a SIMD "
                         "override instead of refusing")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail("run from the root of a qosctrl source checkout "
             "(CMakeLists.txt and src/ not found)")
    build_dir = root / ".bench_build" / "perfbench"
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    extra = ["--allow-unrepresentative"] if args.allow_unrepresentative else []
    code, out, _, _ = run_child([str(binary), "info"])
    if code != 0:
        fail("farm_bench info failed")
    info = last_json(out)
    if info["unrepresentative"] and not args.allow_unrepresentative:
        fail("refusing to record: " + "; ".join(info["unrepresentative"]) +
             " (pass --allow-unrepresentative to measure anyway)", code=3)
    print("provenance: nproc={nproc} compiler={compiler} simd={simd_backend} "
          "build={build_type} version={version}".format(**info))

    if args.trace:
        result = traced(binary, args.workload, args.seed, args.seconds, extra,
                        build_dir)
    else:
        result = end_to_end(binary, args.workload, args.seed, args.seconds,
                            extra)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
