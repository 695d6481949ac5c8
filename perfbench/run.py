#!/usr/bin/env python3
"""Builds and runs the PEM benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (and with it the pem
library, from the repository's own CMake build) in .bench_build/, runs
one workload in its own process, checks that the exact counts of this
(workload, seed, seconds) match every earlier run of the same binary,
and prints the result JSON as the last line of standard output.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "pem_perfbench")
COUNTS = os.path.join(ROOT, ".bench_build", "perfbench-counts")
JOBS = "4"
# Keep compiler temporaries inside the checkout, and stop git from
# searching above it for a repository that is not this one.
TMP = os.path.join(ROOT, ".bench_build", "tmp")
ENV = dict(os.environ, TMPDIR=TMP,
           GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(TMP, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "pem_perfbench",
                  "-j", JOBS])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=ENV).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                log("build failed")
                sys.exit(1)


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=ENV,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def check_exact(key, counts):
    """Compares this run's exact counts with the first run of the same
    binary, workload, seed and seconds; returns False on any difference."""
    with open(BINARY, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    os.makedirs(COUNTS, exist_ok=True)
    path = os.path.join(COUNTS, f"{binary}-{key}.json")
    if not os.path.exists(path):
        tmp = path + f".{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(counts, f, sort_keys=True)
        os.replace(tmp, path)
        return True
    with open(path) as f:
        first = json.load(f)
    same = first == counts
    if not same:
        print(f"ERROR: exact counts differ from an earlier run of {key}: "
              f"{first} != {counts}")
    return same


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()

    build()
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--git-sha", git_sha()]
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True,
                          text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    if not any(line.startswith("EXACT ") for line in lines):
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
        if line.startswith("EXACT "):
            exact = json.loads(line[len("EXACT "):])
            key = f"{a.workload}-s{a.seed}-t{a.seconds}"
            # The measured run's counts are shared by --trace 0 and 1; the
            # traced replay adds the per-tag counts of its own.
            traced = {k: exact.pop(k) for k in list(exact)
                      if k == "frames" or k.startswith("tag")}
            ok = check_exact(key, exact)
            if traced:
                ok = check_exact(key + "-traced", traced) and ok
            result["correct"] = result["correct"] and ok
    print(json.dumps(result))


if __name__ == "__main__":
    main()
