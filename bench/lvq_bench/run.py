#!/usr/bin/env python3
"""Build lvq_bench from this checkout's sources, run one workload, and print
one JSON result line.

    python3 bench/lvq_bench/run.py --workload wallet-hot --seed 1 \
        --seconds 25 --trace 0 [--blocks 4096]

The build is the repository's own top-level CMake project with
bench/lvq_bench attached (attach.cmake), configured in
$CARGO_TARGET_DIR/lvq_bench (default .bench_build/), relative to the
repository root; only the lvq_bench target is built, to bench/lvq_bench in
that directory. Every progress line goes to stderr; the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the BENCHMARK.json end-to-end metrics (--trace 0) or per-layer
metrics (--trace 1). Exits non-zero, without a result line, when the sources
are missing or the build fails; exits non-zero after the result line when a
run's output was wrong.
"""
import argparse
import fcntl
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "lvq_bench")


def build(out):
    """Configures (once) the repository's own build with lvq_bench attached
    (attach.cmake) and builds the lvq_bench target; True on success."""
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", out,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                          "-DCMAKE_PROJECT_lvq_INCLUDE="
                          + os.path.join(HERE, "attach.cmake")])
        steps.append(["cmake", "--build", out, "--target", "lvq_bench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return True


def manifest_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return manifest["per_layer" if traced else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blocks", type=int, default=4096)
    args = ap.parse_args()

    if not all(os.path.exists(os.path.join(ROOT, d, "CMakeLists.txt"))
               for d in ("", "src", "bench")):
        log("run.py: no repository build under", ROOT)
        return 2
    out = build_dir()
    if not build(out):
        log("run.py: build failed")
        return 2

    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    cmd = [os.path.join(out, "bench", "lvq_bench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--blocks=%d" % args.blocks,
           "--seconds=%d" % args.seconds,
           "--out=" + stem + ".json"]
    if args.trace:
        cmd.append("--trace=" + stem + ".trace.json")
    # LVQ_* variables are flag fallbacks and store test hooks (kill points,
    # sync modes); a measured run must not inherit any of them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LVQ_")}
    if os.path.exists(stem + ".json"):
        os.remove(stem + ".json")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: lvq_bench exceeded", RUN_TIMEOUT_S, "s")
        return 1
    finally:  # also on SIGTERM/SIGINT: never leave the benchmark running
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not os.path.exists(stem + ".json"):
        log("run.py: lvq_bench wrote no result (exit %d)" % proc.returncode)
        return 1
    with open(stem + ".json") as f:
        run = json.load(f)

    metrics = {}
    ok = proc.returncode == 0 and run["correct"]
    for m in manifest_metrics(args.trace):
        got = run["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]) \
                or got["unit"] != m["unit"]:
            log("run.py: metric %s missing or malformed: %r" % (m["name"], got))
            ok = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": ok, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so main()'s cleanup stops the child.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
