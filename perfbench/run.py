#!/usr/bin/env python3
"""Build and run one perfbench workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/CMakeLists.txt (which pulls
in the repository's library) into .bench_build/perfbench; later calls only
re-check the build. Build output goes to stderr. perfbench_driver's standard
output is passed through, so the last line is the result object.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
WORKLOADS = ("tealeaf-csr-secded", "tealeaf-ell-crctile", "service-sell-crc")
BUILD_TIMEOUT_S = 840
# Seconds a run may take beyond --seconds: reference runs, set-ups, the
# traced run's layer probe, and the last repetition finishing.
RUN_SLACK_S = 120


def git_commit():
    """The checkout's commit, or "none" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO))
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_id():
    """Short hash of every file the build reads: the library and the bench."""
    h = hashlib.sha256()
    roots = [os.path.join(REPO, "src"), HERE]
    files = [os.path.join(REPO, "CMakeLists.txt")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")):
        sys.exit("perfbench: no CMakeLists.txt at the repository root; "
                 "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            sys.exit("perfbench: build failed: %s" % e)
    return os.path.join(BUILD_DIR, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="toy problem sizes, for the self-check")
    args = ap.parse_args()

    driver = build()
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR,
           "--source-id", "git=%s sources=%s" % (git_commit(), source_id())]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in time" % args.workload)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
