#!/usr/bin/env python3
"""Builds the HGS benchmark driver from source and runs one workload.

Run from the repository root:

  python3 hgsbench/run.py --workload <name> --seed <n> --seconds <s> \\
      --trace <0|1> [--json <path>] [--trace-out <path>] [--commit <sha>]

The build goes to $CARGO_TARGET_DIR/hgsbench (default .bench_build/hgsbench,
relative to the working directory) and is reused by later runs. Build output
goes to standard error; the driver's last line of standard output is the
result object. A traced run (--trace 1) writes its spans to --trace-out,
default <build dir>/traces/<workload>-seed<n>.json. The exit code is the
driver's, or 1 when the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--json")
    parser.add_argument("--trace-out")
    parser.add_argument("--commit")
    args = parser.parse_args()

    # A terminated run stops the driver too: SystemExit unwinds through
    # subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "hgsbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"hgsbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "hgs_bench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        trace_out = args.trace_out or os.path.join(
            build_dir, "traces", f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(os.path.abspath(trace_out)), exist_ok=True)
        cmd += ["--trace-out", trace_out]
    if args.json:
        cmd += ["--json", args.json]
    if args.commit:
        cmd += ["--commit", args.commit]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
