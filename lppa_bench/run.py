#!/usr/bin/env python3
"""One run of the LPPA round benchmark (see README.md).

    python3 lppa_bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--rate <SUs/s>]
    python3 lppa_bench/run.py --self-test

Run from the repository root.  Builds the driver from ../src into
.bench_build/ (CMake), runs it, strict-parses its JSON line, writes the
full record to .bench_build/results/, and prints the contract line: the
end-to-end metrics named in BENCHMARK.json (--trace 0) or the per-layer
ones (--trace 1).  Exits nonzero after printing when an output check
failed, and without printing when the benchmark cannot build or run.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "lppa_bench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
# The driver's own runs end well inside this; the contract allows 180 s.
RUN_TIMEOUT_S = 170


def die(message):
    print("lppa_bench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no repository sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(BUILD_DIR, target)


def _reject_constant(name):
    raise ValueError("non-finite number %s" % name)


def strict_parse(line):
    """Parses one JSON document; rejects NaN/Infinity literals and any
    metric whose value is not a finite number."""
    record = json.loads(line, parse_constant=_reject_constant)
    if not isinstance(record, dict):
        raise ValueError("result is not a JSON object")

    def walk(value, path):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("non-finite number at " + path)
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, path + "." + key)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, "%s[%d]" % (path, i))

    walk(record, "$")
    for name, metric in record.get("metrics", {}).items():
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("metric %s has no numeric value" % name)
    return record


def write_result_file(record, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")


def contract_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def contract_line(record, names, exit_code):
    metrics = {}
    for name in names:
        if name not in record["metrics"]:
            raise ValueError("the run did not measure " + name)
        metrics[name] = record["metrics"][name]
    return {
        "correct": bool(record["correct"]) and exit_code == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def run(args):
    binary = build("lppa_bench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rate", str(args.rate)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        die("the driver printed no result (exit code %d)" % proc.returncode)
    try:
        record = strict_parse(lines[-1])
    except ValueError as e:
        die("malformed result: %s" % e)

    record["exit_code"] = proc.returncode
    record["command"] = cmd[1:]
    write_result_file(record, os.path.join(
        RESULTS_DIR, "%s-seed%d-trace%d.json" %
        (args.workload, args.seed, args.trace)))
    for failure in record.get("failures", []):
        print("lppa_bench: check failed: " + failure, file=sys.stderr)

    try:
        line = contract_line(record, contract_names(args.trace),
                             proc.returncode)
    except (ValueError, KeyError, OSError) as e:
        die(str(e))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def self_test():
    """The benchmark's own helpers: the C++ checks, then the result-line
    contract (strict parse, finite numbers, metric selection)."""
    binary = build("lppa_bench_selftest")
    if subprocess.run([binary]).returncode != 0:
        return 1
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    sample = subprocess.run([binary, "--emit-sample"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.strip()
    try:
        strict_parse(sample)
        expect(False, "a NaN metric (written as null) must be rejected")
    except ValueError:
        pass
    for bad in ['{"metrics": {"m": {"value": NaN}}}',
                '{"metrics": {"m": {"value": Infinity}}}',
                '{"metrics": {"m": {"value": "1"}}}',
                '{"metrics": {"m": {"value": 1}}', '[1, 2]']:
        try:
            strict_parse(bad)
            expect(False, "accepted malformed result " + bad)
        except ValueError:
            pass
    good = strict_parse(sample.replace('"value": null', '"value": 2.5'))
    path = os.path.join(RESULTS_DIR, "selftest.json")
    write_result_file(good, path)
    with open(path) as f:
        expect(strict_parse(f.read()) == good,
               "the result file strict-parses back to the record")
    os.remove(path)
    line = contract_line(good, ["finite_metric", "nan_metric"], 0)
    expect(set(line) == {"correct", "attempted", "failed", "metrics"},
           "contract line has exactly its four keys")
    expect(line["metrics"]["nan_metric"]["value"] == 2.5,
           "contract line carries the measured value")
    try:
        contract_line(good, ["absent_metric"], 0)
        expect(False, "a missing metric must be an error")
    except ValueError:
        pass
    expect(not contract_line(good, ["finite_metric"], 1)["correct"],
           "a nonzero driver exit is never correct")
    for failure in failures:
        print("FAIL: " + failure, file=sys.stderr)
    if not failures:
        print("run.py self-test: all checks passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["city_sparse", "paper_churn", "socket_ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--rate", type=float, default=0.0,
                        help="socket release rate, SUs per second")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
