#!/usr/bin/env python3
"""Fast self-check of the benchmark: every workload at toy size, both modes.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload run.py knows, gated in BENCHMARK.json or not, it runs
`run.py --tiny` for one second untraced and traced, and checks the result
line against BENCHMARK.json: exactly the keys correct/attempted/failed/
metrics, a correct run with no failed operations, and exactly the declared
end-to-end (untraced) or per-layer (traced) metrics with their declared
units. Exits non-zero on the first mismatch.
"""
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def check(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    what = "%s trace=%d" % (workload, trace)
    if out.returncode != 0:
        sys.exit("%s: exit code %d\n%s" % (what, out.returncode, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("%s: result keys %s" % (what, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        failures = [l for l in out.stdout.splitlines() if l.startswith("FAILED")]
        sys.exit("%s: not a clean run: %s\n%s" % (what, result, "\n".join(failures)))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        sys.exit("%s: metrics differ from BENCHMARK.json\n  missing %s\n  extra %s\n"
                 "  unit mismatch %s" % (
                     what, sorted(set(declared) - set(got)), sorted(set(got) - set(declared)),
                     sorted(k for k in got if k in declared and got[k] != declared[k])))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            sys.exit("%s: %s is not a number" % (what, name))
    print("ok  %-22s trace=%d  attempted=%d" % (workload, trace, result["attempted"]))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check(spec, workload, trace)
    print("selftest passed")


if __name__ == "__main__":
    main()
