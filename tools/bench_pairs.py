#!/usr/bin/env python3
"""Paired parent/change runs of lppa_bench, summarised for noisy metrics.

On a shared host a single run of either side says little: several
end-to-end metrics spread between runs of one commit by more than their
bounds.  This script runs ``lppa_bench/run.py`` alternately from two
checkouts (pair i runs the parent first when i is even, the change first
when it is odd, so slow drift hits both sides alike) and reports, per
metric:

* the median and quartiles of each side;
* the parent's interquartile range (how far one commit spreads);
* the median of the paired differences (change - parent), which cancels
  the drift both runs of a pair share;
* the win count: pairs in which the change is better, in the direction
  BENCHMARK.json gives (``better: lower`` or ``higher``).

Usage::

    bench_pairs.py --parent ../parent --change . --workload city_sparse \\
        [--pairs 10] [--seconds 25] [--seed 1] [--trace 0] [--rate 6000] \\
        [--metrics submit_ack_us_p50,round_ms_p50] [--json pairs.json]
    bench_pairs.py --self-test

Each checkout builds its own benchmark (``.bench_build/``) on its first
run.  Nothing under lppa_bench/ is read or changed except by invoking its
run.py.  Exits 1 if any run fails to produce a result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quantile(values, q):
    """Linear-interpolation quantile (numpy's default) of a non-empty list."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def directions(benchmark_json):
    """Metric name -> "lower" / "higher" from a BENCHMARK.json document."""
    out = {}
    for section in ("end_to_end", "per_layer"):
        for metric in benchmark_json.get(section, []):
            out[metric["name"]] = metric.get("better", "lower")
    return out


def parse_result(stdout):
    """The contract line run.py prints last: {"metrics": {name: {value}}}."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed no result line")
    record = json.loads(lines[-1])
    return {name: float(m["value"]) for name, m in record["metrics"].items()}


def summarise(pairs, better, names=None):
    """pairs: list of (parent_metrics, change_metrics) dicts.

    Returns one row per metric present on both sides of every pair.
    """
    if not pairs:
        return []
    shared = set(pairs[0][0]) & set(pairs[0][1])
    for parent, change in pairs[1:]:
        shared &= set(parent) & set(change)
    if names:
        shared &= set(names)
    rows = []
    for name in sorted(shared):
        p = [parent[name] for parent, _ in pairs]
        c = [change[name] for _, change in pairs]
        diffs = [ci - pi for pi, ci in zip(p, c)]
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for d in diffs if (d < 0 if lower else d > 0))
        p_med = statistics.median(p)
        c_med = statistics.median(c)
        rows.append({
            "metric": name,
            "better": "lower" if lower else "higher",
            "pairs": len(pairs),
            "parent_median": p_med,
            "change_median": c_med,
            "change_pct": (100.0 * (c_med - p_med) / p_med) if p_med else 0.0,
            "parent_quartiles": [quantile(p, 0.25), quantile(p, 0.75)],
            "change_quartiles": [quantile(c, 0.25), quantile(c, 0.75)],
            "parent_iqr": quantile(p, 0.75) - quantile(p, 0.25),
            "median_paired_diff": statistics.median(diffs),
            "wins": wins,
            "parent": p,
            "change": c,
        })
    return rows


def format_rows(rows):
    header = ("metric", "parent_med", "parent_q1..q3", "change_med",
              "change_q1..q3", "change%", "parent_IQR", "med_pair_diff",
              "wins")
    table = [header]
    for r in rows:
        table.append((r["metric"], "%.6g" % r["parent_median"],
                      "%.4g..%.4g" % tuple(r["parent_quartiles"]),
                      "%.6g" % r["change_median"],
                      "%.4g..%.4g" % tuple(r["change_quartiles"]),
                      "%+.1f" % r["change_pct"], "%.4g" % r["parent_iqr"],
                      "%+.4g" % r["median_paired_diff"],
                      "%d/%d" % (r["wins"], r["pairs"])))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     for row in table)


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join("lppa_bench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.rate is not None:
        cmd += ["--rate", str(args.rate)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return parse_result(proc.stdout)


def run_pairs(args):
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        better = directions(json.load(f))
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        result = {}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            try:
                result[side] = run_once(checkout, args)
            except (ValueError, KeyError, json.JSONDecodeError) as e:
                print("bench_pairs: %s run %d failed: %s" % (side, i, e),
                      file=sys.stderr)
                return 1
        pairs.append((result["parent"], result["change"]))
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)
    names = args.metrics.split(",") if args.metrics else None
    rows = summarise(pairs, better, names)
    print(format_rows(rows))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "rows": rows}, f, indent=2, allow_nan=False)
            f.write("\n")
    return 0


def self_test():
    """The summary arithmetic on canned result lines."""
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    def line(**metrics):
        return json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {k: {"value": v, "unit": "x"}
                                       for k, v in metrics.items()}})

    better = directions({
        "end_to_end": [{"name": "lat", "better": "lower"},
                       {"name": "ok_ratio", "better": "higher"}],
        "per_layer": [{"name": "layer.ms", "better": "lower"}]})
    expect(better == {"lat": "lower", "ok_ratio": "higher",
                      "layer.ms": "lower"}, "directions")

    parent_lines = [line(lat=10, ok_ratio=1, only_parent=3),
                    line(lat=12, ok_ratio=0.9),
                    line(lat=11, ok_ratio=1),
                    line(lat=14, ok_ratio=1)]
    change_lines = [line(lat=8, ok_ratio=1),
                    line(lat=13, ok_ratio=1),
                    line(lat=9, ok_ratio=0.95),
                    line(lat=10, ok_ratio=1)]
    pairs = [(parse_result("build noise\n" + p), parse_result(c))
             for p, c in zip(parent_lines, change_lines)]
    rows = {r["metric"]: r for r in summarise(pairs, better)}
    expect(set(rows) == {"lat", "ok_ratio"}, "shared metrics only: %s" % rows)

    lat = rows["lat"]
    expect(lat["parent_median"] == 11.5, "parent median %s" % lat)
    expect(lat["change_median"] == 9.5, "change median %s" % lat)
    # Parent 10, 11, 12, 14: q1 = 10.75, q3 = 12.5.
    expect(abs(lat["parent_iqr"] - 1.75) < 1e-12, "parent IQR %s" % lat)
    expect(lat["parent_quartiles"] == [10.75, 12.5], "parent quartiles %s" % lat)
    # Change 8, 9, 10, 13: q1 = 8.75, q3 = 10.75.
    expect(lat["change_quartiles"] == [8.75, 10.75], "change quartiles %s" % lat)
    # Differences -2, +1, -2, -4: median -2, three wins for "lower".
    expect(lat["median_paired_diff"] == -2, "paired diff %s" % lat)
    expect(lat["wins"] == 3, "wins %s" % lat)

    ok = rows["ok_ratio"]
    # Differences 0, +0.1, -0.05, 0: one win for "higher", ties are not.
    expect(ok["wins"] == 1, "higher-is-better wins %s" % ok)

    expect(len(summarise(pairs, better, ["lat"])) == 1, "metric filter")
    expect(summarise([], better) == [], "no pairs")
    expect(quantile([5], 0.25) == 5.0, "one-sample quantile")
    expect("3/4" in format_rows([lat]), "table shows the win count")

    try:
        parse_result("\n\n")
        failures.append("empty output must fail")
    except ValueError:
        pass

    for failure in failures:
        print("bench_pairs self-test: FAIL " + failure, file=sys.stderr)
    if not failures:
        print("bench_pairs self-test: ok")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--rate", type=float, default=None,
                        help="passed to run.py (BENCHMARK.json uses 6000)")
    parser.add_argument("--metrics", help="comma-separated metric names")
    parser.add_argument("--json", help="also write the rows (with raw runs)")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
