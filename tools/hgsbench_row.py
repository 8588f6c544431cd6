#!/usr/bin/env python3
"""Appends one row of HGS benchmark numbers to BENCH_hgs.json.

Run from the repository root:

  python3 tools/hgsbench_row.py --label <text> --seeds 9401-9405 \\
      [--workloads warm-snapshots,cold-history,live-ingest,taf-evolution] \\
      [--commit <sha>] [--runs <dir>]

Each (workload, seed) runs `hgsbench/run.py` untraced for BENCHMARK.json's
run_seconds, which builds hgs_bench from the source in the working
directory. The row holds the commit, the label, the host fields of the
runs' headers (nproc, build type), the seeds and window, and per workload
the run count, whether every run was correct, the failed operations, and
the median and quartiles of each end-to-end metric of BENCHMARK.json
(quartiles as compare.py computes them). --runs keeps the per-run records
in <dir> (a temporary directory otherwise); a record already there is read
instead of run again, so a row can summarize the runs of a compare.py
comparison. Every record must be untraced, of the benchmark's window, and
of the row's commit (or of commit "unknown"). The commit defaults to
`git rev-parse HEAD`. The row is appended to BENCH_hgs.json at the
repository root. Exit status 1 when a run fails or reads wrong, or a
record does not fit the row.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "hgsbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ under hgsbench/
import compare  # noqa: E402  (hgsbench/compare.py: its quartiles)

WORKLOADS = ["warm-snapshots", "cold-history", "live-ingest", "taf-evolution"]
HOST_FIELDS = ["nproc", "build_type"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, commit, path):
    if os.path.exists(path):
        return 0
    cmd = [sys.executable, os.path.join(ROOT, "hgsbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--json", path,
           "--commit", commit]
    print(f"hgsbench_row: {workload} seed {seed}", file=sys.stderr)
    return subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode


def header_mismatch(header, seconds, commit):
    """Why a run record cannot be summarized into the row, or None."""
    if header["trace"] != 0:
        return "traced"
    if header["window_s"] != seconds:
        return f"window {header['window_s']} s, not {seconds} s"
    if header["commit"] not in (commit, "unknown"):
        return f"commit {header['commit']}, not {commit}"
    return None


def summarize(records, end_to_end):
    out = {"runs": len(records),
           "correct": all(r["correct"] for r in records),
           "failed_ops": sum(r["failed"] for r in records),
           "metrics": {}}
    for name, unit in end_to_end:
        values = [m["value"] for r in records for m in r["metrics"]
                  if m["name"] == name]
        if not values:
            continue
        med, q1, q3 = compare.summary(values)
        out["metrics"][name] = {"unit": unit, "median": med, "q1": q1,
                                "q3": q3}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--commit")
    parser.add_argument("--runs")
    args = parser.parse_args()

    commit = args.commit or subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True, check=True).stdout.strip()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    end_to_end = [(m["name"], m["unit"]) for m in benchmark["end_to_end"]]
    workloads = args.workloads.split(",")

    with tempfile.TemporaryDirectory() as scratch:
        runs_dir = args.runs or scratch
        os.makedirs(runs_dir, exist_ok=True)
        records = {w: [] for w in workloads}
        for seed in args.seeds:
            for w in workloads:
                path = os.path.join(runs_dir, f"{w}-seed{seed}.json")
                code = run_once(w, seed, seconds, commit, path)
                if code != 0 or not os.path.exists(path):
                    print(f"hgsbench_row: {w} seed {seed} exited {code}",
                          file=sys.stderr)
                    return 1
                with open(path) as f:
                    record = json.load(f)
                why = header_mismatch(record["header"], seconds, commit)
                if why is not None:
                    print(f"hgsbench_row: {path}: {why}", file=sys.stderr)
                    return 1
                records[w].append(record)

    headers = [r["header"] for rs in records.values() for r in rs]
    host = {k: sorted({h[k] for h in headers}, key=str) for k in HOST_FIELDS}
    row = {"commit": commit, "label": args.label,
           "date": datetime.date.today().isoformat(),
           "host": {k: v[0] if len(v) == 1 else v for k, v in host.items()},
           "window_s": seconds, "seeds": args.seeds,
           "workloads": {w: summarize(rs, end_to_end)
                         for w, rs in records.items()}}

    out = os.path.join(ROOT, "BENCH_hgs.json")
    table = {"benchmark": "hgsbench", "rows": []}
    if os.path.exists(out):
        with open(out) as f:
            table = json.load(f)
    table["rows"].append(row)
    with open(out, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")
    bad = [w for w, s in row["workloads"].items()
           if not s["correct"] or s["failed_ops"]]
    if bad:
        print(f"hgsbench_row: wrong answers or failed ops in {bad}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
