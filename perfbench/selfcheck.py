#!/usr/bin/env python3
"""Self-check of the DVF benchmark; run from the root of a checkout.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json once at minimal length, with and
without tracing, and fails unless each run is correct and prints exactly
the metrics BENCHMARK.json names, each with its unit.  Then runs
verify_cold against a deliberately wrong expected table, which must be
reported as a failed operation, and runs the benchmark in a directory
holding only BENCHMARK.json and the benchmark, which must fail without a
result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SCRATCH = os.path.join(".bench_build", "perfbench-selfcheck")
GOLDEN = os.path.join("test", "golden", "verify_default.txt")


def run(bench, workload, trace, *extra, cwd="."):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                              "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_result(result, wanted):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"metrics differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            continue
        if v.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {v.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{m['name']}: value {v.get('value')!r}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(bench, workload, trace)
            result = result_of(proc) if proc.returncode == 0 else None
            problems = (check_result(result, wanted) if result is not None
                        else [f"exit {proc.returncode}: {proc.stderr[-500:]}"])
            print(f"{workload} --trace {trace}: {'ok' if not problems else problems}")
            failures += problems

    os.makedirs(SCRATCH, exist_ok=True)
    wrong = os.path.join(SCRATCH, "wrong_verify_table.txt")
    with open(GOLDEN) as f:
        table = f.read()
    with open(wrong, "w") as f:
        f.write(table.replace("|     0.0 |", "|     0.1 |", 1))
    result = result_of(run(bench, "verify_cold", 0, "--golden", wrong))
    caught = (result is not None and result["failed"] > 0 and not result["correct"]
              and result["metrics"]["success_rate"]["value"] < 1.0)
    print(f"wrong expected table: {'caught' if caught else 'NOT caught'}")
    if not caught:
        failures.append("a wrong expected table was not reported")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    proc = run(bench, bench["workloads"][0]["name"], 0, cwd=bare)
    refused = proc.returncode != 0 and result_of(proc) is None
    print(f"directory without the program: {'refused' if refused else 'NOT refused'}")
    if not refused:
        failures.append("the benchmark ran without the program")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print("selfcheck:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
