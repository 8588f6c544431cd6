#!/usr/bin/env python3
"""Compares two sets of HGS benchmark runs, metric by metric and workload by
workload.

  python3 hgsbench/compare.py BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
  python3 hgsbench/compare.py --self-test

Each directory holds the per-run records hgs_bench writes with --json (one
file per run; any *.json file with a "header" is read). Runs are paired by
seed, in file-name order within a seed. For every (workload, metric) the
report gives each side's median and quartiles and one verdict:

  regression    the change's median is worse than the base median by more
                than the metric's bound in BENCHMARK.json
  unresolved    no regression, but the run-to-run spread (quartile distance
                over median, the wider side) exceeds the bound, and not every
                change run beats every base run
  gain          the change wins at least 9 of every 10 pairs (ties count for
                neither side) and the medians differ by more than the base
                side's quartile distance
  same / ok     within the bound (per-layer metrics have no bound: ok)
  drift         a seed-deterministic count (stored bytes per event) differs
                for the same seed without improving on every seed; one that
                improves on every seed is a gain

Exit status 1 when any regression or drift is found.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Metrics that depend only on the seed (the stored index; live ingest reads
# it after a fixed number of batches). The same seed must give the same
# value on both sides.
DETERMINISTIC = {"stored_bytes_per_event"}

GAIN_PAIR_SHARE = 0.9


def load_benchmark(path):
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def load_runs(directory):
    """{(workload, metric): [(seed, file, value)]} from one directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            record = json.load(f)
        if "header" not in record or not isinstance(record["metrics"], list):
            continue
        workload = record["header"]["workload"]
        seed = record["header"]["seed"]
        for m in record["metrics"]:
            runs.setdefault((workload, m["name"]), []).append(
                (seed, name, m["value"]))
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return med, q1, q3


def relative_spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def pairs(base, change):
    """Runs paired by seed, in file order within a seed."""
    by_seed = {}
    for seed, name, value in sorted(base):
        by_seed.setdefault(seed, ([], []))[0].append(value)
    for seed, name, value in sorted(change):
        by_seed.setdefault(seed, ([], []))[1].append(value)
    out = []
    for seed in sorted(by_seed):
        b, c = by_seed[seed]
        out.extend((seed, x, y) for x, y in zip(b, c))
    return out


def verdict(metric, base, change, better, bound):
    """One report row: (verdict, base summary, change summary, detail)."""
    bvals = [v for _, _, v in base]
    cvals = [v for _, _, v in change]
    bsum, csum = summary(bvals), summary(cvals)
    sign = 1 if better == "lower" else -1
    # Positive `worse` means the change reads worse than the base.
    worse = sign * (csum[0] - bsum[0]) / abs(bsum[0]) if bsum[0] else 0.0
    paired = pairs(base, change)

    if metric in DETERMINISTIC:
        changed = [s for s, x, y in paired if x != y]
        if not changed:
            return "same", bsum, csum, "exact"
        if all(sign * (y - x) < 0 for _, x, y in paired):
            return "gain", bsum, csum, f"exact count, {-worse:+.1%}"
        return "drift", bsum, csum, f"seeds {changed}"

    wins = sum(1 for _, x, y in paired if sign * (y - x) < 0)
    base_iqr = bsum[2] - bsum[1]
    if (paired and wins >= GAIN_PAIR_SHARE * len(paired) and
            abs(csum[0] - bsum[0]) > base_iqr):
        return "gain", bsum, csum, f"{wins}/{len(paired)} pairs, {-worse:+.1%}"
    if bound is None:
        return "ok", bsum, csum, f"{-worse:+.1%}"
    if worse > bound:
        return "regression", bsum, csum, f"{worse:+.1%} worse, bound {bound:.0%}"
    spread = max(relative_spread(bvals), relative_spread(cvals))
    all_better = all(sign * (c - b) < 0 for b in bvals for c in cvals)
    if spread > bound and not all_better:
        return ("unresolved", bsum, csum,
                f"spread {spread:.1%} > bound {bound:.0%}")
    return "same", bsum, csum, f"{-worse:+.1%}"


def compare(base_runs, change_runs, metrics):
    rows = []
    for key in sorted(set(base_runs) & set(change_runs)):
        workload, metric = key
        if metric not in metrics:
            continue
        better, bound = metrics[metric]
        rows.append((workload, metric) +
                    verdict(metric, base_runs[key], change_runs[key], better,
                            bound))
    return rows


def report(rows, out=sys.stdout):
    print(f"{'workload':15s} {'metric':44s} {'base median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} verdict", file=out)
    for workload, metric, v, b, c, detail in rows:
        fmt = lambda s: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"
        print(f"{workload:15s} {metric:44s} {fmt(b):32s} {fmt(c):32s} "
              f"{v} ({detail})", file=out)
    return 1 if any(r[2] in ("regression", "drift") for r in rows) else 0


def self_test():
    metrics = {"op_p50_ms": ("lower", 0.10),
               "throughput_per_s": ("higher", 0.10),
               "stored_bytes_per_event": ("lower", 0.10),
               "tgi.decodes_per_op": ("lower", None)}

    def runs(metric, values):
        return {("cold-history", metric): [(s, f"r{s:02d}.json", v)
                                           for s, v in enumerate(values, 1)]}

    def one(metric, base, change):
        rows = compare(runs(metric, base), runs(metric, change), metrics)
        assert len(rows) == 1, rows
        return rows[0][2]

    steady = [100 + (i % 3) for i in range(10)]
    assert one("op_p50_ms", steady, steady) == "same"
    assert one("op_p50_ms", steady, [v * 1.3 for v in steady]) == "regression"
    assert one("throughput_per_s", steady,
               [v * 0.8 for v in steady]) == "regression"
    assert one("op_p50_ms", steady, [v * 0.7 for v in steady]) == "gain"
    assert one("throughput_per_s", steady,
               [v * 1.3 for v in steady]) == "gain"
    # 8 of 10 pairs better is not a gain, and stays within the bound.
    eight = [v * 0.95 for v in steady[:8]] + [v * 1.05 for v in steady[8:]]
    assert one("op_p50_ms", steady, eight) == "same"
    noisy = [60, 140, 70, 130, 80, 120, 90, 110, 65, 135]
    assert one("op_p50_ms", noisy,
               [v * 1.05 for v in reversed(noisy)]) == "unresolved"
    assert one("stored_bytes_per_event", steady, steady) == "same"
    assert one("stored_bytes_per_event", steady,
               steady[:9] + [steady[9] + 1]) == "drift"
    assert one("stored_bytes_per_event", steady,
               [v - 1 for v in steady]) == "gain"
    assert one("tgi.decodes_per_op", steady,
               [v * 2 for v in steady]) == "ok"
    print("compare.py self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.change:
        parser.error("BASE_DIR and CHANGE_DIR are required")
    rows = compare(load_runs(args.base), load_runs(args.change),
                   load_benchmark(args.benchmark))
    return report(rows)


if __name__ == "__main__":
    sys.exit(main())
