#!/usr/bin/env python3
"""The benchmark's own test: tiny-scale runs of every workload.

    python3 perfbench/smoke_test.py

Run from the repository root. For each workload run.py knows (the ones
BENCHMARK.json gates and corpus_cold), untraced and traced, runs
perfbench/run.py --smoke for one second and checks the result line:
exactly the keys correct, attempted, failed and metrics; every metric
BENCHMARK.json names for that mode, each with its unit and nothing else;
no failed operation or output check (an error rate of 0). Exits non-zero
on any mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # importing run.py leaves no __pycache__
from run import WORKLOADS  # noqa: E402


def check_run(spec, workload, trace):
    """Errors found in one smoke run (empty when it passes)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit code %d" % (where, proc.returncode)]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: correct=%s failed=%s (error rate must be 0)"
                      % (where, result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted=%s" % (where, result.get("attempted")))

    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != expected:
        errors.append("%s: metrics differ from BENCHMARK.json: missing %s, "
                      "extra %s, wrong unit %s"
                      % (where, sorted(set(expected) - set(got)),
                         sorted(set(got) - set(expected)),
                         sorted(k for k in got.keys() & expected.keys()
                                if got[k] != expected[k])))
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)):
            errors.append("%s: %s has no numeric value" % (where, name))
        elif not trace and value == 0:
            errors.append("%s: end-to-end metric %s is 0" % (where, name))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            errors += found
            print("%-12s trace=%d %s" % (workload, trace,
                                         "FAIL" if found else "ok"),
                  flush=True)
    for e in errors:
        print("smoke_test: " + e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
