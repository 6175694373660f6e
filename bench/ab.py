#!/usr/bin/env python3
"""Alternated parent/change A/B of the repository benchmark.

    python3 bench/ab.py --parent DIR --change DIR --seeds 11,12,13 \\
        [--holdout 1000003] [--seconds 20] [--workload NAME ...] \\
        [--traced-seconds 20] --out BENCH.json
    python3 bench/ab.py --compare A.json B.json

DIR is a full checkout of each side (for the parent, e.g. `git archive`
of the parent commit unpacked into a scratch directory). For every workload
and every seed, one pair of `perfbench/run.py --trace 0` runs goes out, the
side that runs first alternating from pair to pair; the hold-out seed gets
one more pair, reported apart from the development seeds. With
--traced-seconds, three alternated traced runs per side on the hold-out seed
add the per-layer metrics: each side's value of a metric is its best of the
three (lowest or highest, by the metric's `better` in BENCHMARK.json), which
damps one slow run's noise; the metrics are ranked by how far each moved.

The JSON written to --out holds the host fingerprint, every run's result
line, and per workload and end-to-end metric: each side's median and
quartiles over the development seeds, the pairs the change won, the parent's
own spread in the same hour (its quartile distance over its median), the
hold-out pair, and a verdict against the metric's BENCHMARK.json bound:

- "worse": the change's median is worse than the parent's by more than the
  bound (relative);
- "gain": the change won at least nine pairs in ten and its median beats the
  parent's by more than the parent's quartile distance;
- "same": anything else.

Each run.py builds its side into that checkout's .bench_build/ first; build
time is not measured.

--compare reads two files this tool wrote (say the A/B of one change and of
a later one) and runs no benchmark. Per workload it prints every per-layer
metric whose traced hold-out value moved from A's change side to B's, ranked
by the size of the relative move, so a shift between two committed A/Bs is
pinned to a layer. Traced runs of different files ran in different hours, so
a move inside either file's own parent/change noise means little.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

TRACED_RUNS = 3


def run_one(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("ab: %s %s seed %d failed (exit %d)\n%s" % (
            checkout, workload, seed, out.returncode, out.stderr[-2000:]))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def host_fingerprint():
    flags, model = set(), ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags") and not flags:
                    flags = set(line.split(":", 1)[1].split())
                elif line.startswith("model name") and not model:
                    model = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "sse4_2": "sse4_2" in flags,
            "avx2": "avx2" in flags, "machine": platform.machine(),
            "python": platform.python_version(),
            "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds")}


def summarise(spec_metric, parent_runs, change_runs):
    name, higher = spec_metric["name"], spec_metric["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in parent_runs]
    c = [r["metrics"][name]["value"] for r in change_runs]
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    won = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
    rel = (cmed - pmed) / pmed if pmed else 0.0
    worse_by = -rel if higher else rel
    if worse_by > spec_metric["bound"]:
        verdict = "worse"
    elif won * 10 >= 9 * len(p) and abs(cmed - pmed) > (pq3 - pq1) and worse_by < 0:
        verdict = "gain"
    else:
        verdict = "same"
    return {"unit": spec_metric["unit"], "better": spec_metric["better"],
            "bound": spec_metric["bound"],
            "parent": {"median": pmed, "q1": pq1, "q3": pq3, "values": p},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "values": c},
            "change_rel": rel, "pairs_won": won, "pairs": len(p),
            "parent_spread": (pq3 - pq1) / pmed if pmed else 0.0,
            "verdict": verdict}


def best_of(runs, better):
    """Per metric, the best value over \p runs (dicts of name -> value)."""
    best = {}
    for name in sorted(set().union(*runs)):
        values = [r[name] for r in runs if name in r]
        best[name] = max(values) if better.get(name) == "higher" else min(values)
    return best


def traced_change(report, workload):
    return report["workloads"].get(workload, {}).get("per_layer_holdout", {}).get("change")


def compare(path_a, path_b):
    """Print the per-layer metrics that moved from file A to file B."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        ta, tb = traced_change(a, workload), traced_change(b, workload)
        if not ta or not tb:
            print("%s: no traced hold-out run in %s" % (
                workload, " and ".join(p for p, t in ((path_a, ta), (path_b, tb)) if not t)))
            continue
        moved = []
        for name in sorted(set(ta) & set(tb)):
            va, vb = ta[name], tb[name]
            if va != vb:
                moved.append((name, va, vb, vb / va - 1.0 if va else float("inf")))
        moved.sort(key=lambda m: -abs(m[3]))
        print("%s: %d of %d per-layer metrics moved (%s -> %s, change side)" % (
            workload, len(moved), len(set(ta) & set(tb)), path_a, path_b))
        for name, va, vb, rel in moved:
            print("  %-40s %12.4g -> %-12.4g %+8.1f%%" % (name, va, vb, 100 * rel))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="rank the per-layer metrics that moved from A to B; runs nothing")
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--seeds", help="comma-separated development seeds")
    ap.add_argument("--holdout", type=int, default=1000003)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--traced-seconds", type=float, default=0)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload BENCHMARK.json gates")
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    missing = [o for o in ("parent", "change", "seeds", "out") if getattr(args, o) is None]
    if missing:
        ap.error("the A/B run needs " + ", ".join("--" + o for o in missing))

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    report = {"host": host_fingerprint(), "seconds": args.seconds, "seeds": seeds,
              "holdout_seed": args.holdout, "runs": [], "workloads": {}}
    for workload in workloads:
        results = {"parent": [], "change": []}
        holdout = {}
        for i, seed in enumerate(seeds + [args.holdout]):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                r = run_one(sides[side], workload, seed, args.seconds, 0)
                report["runs"].append({"workload": workload, "side": side, "seed": seed,
                                       "trace": 0, "result": r})
                if seed == args.holdout and i == len(seeds):
                    holdout[side] = r
                else:
                    results[side].append(r)
                print("%-20s %-6s seed %-8d correct=%s failed=%s" % (
                    workload, side, seed, r["correct"], r["failed"]), file=sys.stderr)
        summary = {"metrics": {}, "holdout": {}, "all_correct": all(
            r["correct"] and r["failed"] == 0
            for r in results["parent"] + results["change"] + list(holdout.values()))}
        for m in spec["end_to_end"]:
            summary["metrics"][m["name"]] = summarise(m, results["parent"], results["change"])
            summary["holdout"][m["name"]] = {
                side: holdout[side]["metrics"][m["name"]]["value"] for side in holdout}
        if args.traced_seconds > 0:
            better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
            traced_runs = {"parent": [], "change": []}
            for i in range(TRACED_RUNS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run_one(sides[side], workload, args.holdout, args.traced_seconds, 1)
                    report["runs"].append({"workload": workload, "side": side,
                                           "seed": args.holdout, "trace": 1, "result": r})
                    traced_runs[side].append({k: v["value"] for k, v in r["metrics"].items()})
            traced = {side: best_of(runs, better) for side, runs in traced_runs.items()}
            summary["per_layer_holdout"] = traced
            # Which layer moved: per-layer change over parent, largest first.
            moved = {k: traced["change"][k] / v - 1.0
                     for k, v in traced["parent"].items() if v and k in traced["change"]}
            summary["per_layer_moved"] = sorted(
                ([k, rel] for k, rel in moved.items()), key=lambda kv: -abs(kv[1]))
        report["workloads"][workload] = summary

    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    for workload, summary in report["workloads"].items():
        for name, m in summary["metrics"].items():
            print("%-20s %-15s parent %.4g change %.4g (%+.1f%%) won %d/%d spread %.3f %s" % (
                workload, name, m["parent"]["median"], m["change"]["median"],
                100 * m["change_rel"], m["pairs_won"], m["pairs"], m["parent_spread"],
                m["verdict"]))


if __name__ == "__main__":
    main()
