#!/usr/bin/env python3
"""Build graphport_perf from this checkout and run one benchmark workload.

    python3 bench/perf/run.py --workload W --seed N --seconds T --trace 0|1
                              [--save FILE]

Run from the root of a checkout. The first run configures and builds the
benchmark (bench/perf/CMakeLists.txt) into .bench_build/; later runs
rebuild only when a source file changed. The harness prints its progress
and every metric it took; the last line printed here is one JSON object
with the keys correct, attempted, failed and metrics, where metrics holds
BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer metrics
(--trace 1). A run whose checks failed reports "correct": false with the
metrics it took before it stopped. --save FILE keeps the harness's full
record (fingerprint, every metric) for compare.py.

Exits 0 when a result was printed, whatever it says; otherwise non-zero
without printing one.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
HARNESS = os.path.join(CMAKE_DIR, "graphport_perf")
# Sources the benchmark binaries are built from.
SOURCE_DIRS = ["src", "tools", os.path.join("bench", "perf")]
SOURCE_FILES = [os.path.join("bench", "alloc_hook.cpp")]
# One run must finish within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """Digest of every file the build reads."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f == "CMakeLists.txt"
                      or f.endswith((".cpp", ".hpp", ".h"))]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def build():
    stamp_path = os.path.join(BUILD, "source.stamp")
    stamp = source_stamp()
    if os.path.exists(HARNESS) and os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return
    os.makedirs(BUILD, exist_ok=True)
    configure = ["cmake", "-S", os.path.join(ROOT, "bench", "perf"),
                 "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", CMAKE_DIR, "-j", jobs]):
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("building the benchmark failed: " + " ".join(cmd))
    with open(stamp_path, "w") as f:
        f.write(stamp)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="keep the full record here")
    args = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no graphport sources next to bench/perf (expected src/)")
    if not os.path.exists(bench_path):
        fail("BENCHMARK.json is missing")
    with open(bench_path) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    build()
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    record_path = os.path.join(BUILD, "results", tag + ".json")
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--work", os.path.join(BUILD, "work"),
           "--json", record_path, "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD, "trace", tag)]

    # Own process group, so a timeout stops the pass and shard workers
    # the harness started too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("the harness did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if not os.path.exists(record_path):
        fail("the harness exited with code %d and no result"
             % proc.returncode)
    with open(record_path) as f:
        record = json.load(f)
    if args.save:
        shutil.copyfile(record_path, args.save)

    result = record["result"]
    metrics = {}
    for m in wanted:
        if m["name"] in result["metrics"]:
            metrics[m["name"]] = result["metrics"][m["name"]]
        elif result["correct"]:
            # A failed run may stop before it measures everything; a
            # correct one may not.
            fail("the harness did not report %s" % m["name"])
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
