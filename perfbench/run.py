#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim_gd --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the faascache libraries
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset, then runs the benchmark binary with the
same arguments. The binary's last stdout line is the result object.
Build output goes to stderr. Scratch trace files live under the build
directory and are removed when the run ends.

    python3 perfbench/run.py --record-references FIRST LAST

rewrites perfbench/reference_digests.txt with the payload digest of every
workload for seeds FIRST..LAST (run it when a change is meant to alter
results).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_gd", "server_ttl", "cluster_sharded")
REFERENCES = os.path.join(HERE, "reference_digests.txt")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no faascache sources under {ROOT}/src; run from a checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir


def record_references(binary, work_dir, first, last):
    lines = []
    for workload in WORKLOADS:
        for seed in range(first, last + 1):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--work-dir", work_dir, "--digest"],
                stdout=subprocess.PIPE, text=True, check=False)
            if out.returncode != 0:
                fail(f"digest of {workload} seed {seed} failed")
            lines.append(out.stdout.strip().splitlines()[-1])
            print(lines[-1], file=sys.stderr)
    with open(REFERENCES, "w", encoding="utf-8") as f:
        f.write("# <workload> <seed> <fnv1a64 of the result payload>\n")
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--record-references", nargs=2, type=int,
                        metavar=("FIRST", "LAST"))
    args = parser.parse_args()
    if args.workload is None and args.record_references is None:
        parser.error("--workload is required")

    build_dir = build()
    binary = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    if args.record_references:
        record_references(binary, work_dir, *args.record_references)
        return 0
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--work-dir", work_dir, "--references", REFERENCES],
        check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
