#!/usr/bin/env python3
"""Build and run the trisim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later calls only rebuild what changed. All build
output goes to stderr, so the binary's last stdout line — one JSON object
with `correct`, `attempted`, `failed` and `metrics` — stays the last line.

--self-test runs a short smoke pass of every workload in BENCHMARK.json,
traced and untraced, and checks that the printed metric names and units
match BENCHMARK.json and that a deliberately wrong expected digest is
counted as a failed check.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    for needed in ("src/CMakeLists.txt", "bench/bench_common.hpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} is missing; the benchmark builds the "
                "simulator from the repository's sources")
            sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(2)


def source_id():
    """The commit, or a digest of the sources when there is no git tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def run_binary(args, capture=False):
    cmd = [BINARY] + args
    try:
        if capture:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: benchmark binary exceeded {RUN_TIMEOUT_S} s:", " ".join(cmd))
        sys.exit(3)


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = json.loads(run_binary(["--list-metrics"], capture=True).stdout)
    failures = []

    def check(ok, what):
        log(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    def shape(entries):
        return [(m["name"], m["unit"], m["better"]) for m in entries]

    for key in ("end_to_end", "per_layer"):
        check(shape(listed[key]) == shape(spec[key]),
              f"the binary's {key} metrics match BENCHMARK.json")
    units = {key: {m["name"]: m["unit"] for m in spec[key]}
             for key in ("end_to_end", "per_layer")}
    base = ["--seed", str(DEFAULT_SEED), "--seconds", "0.5", "--smoke"]
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run_binary(["--workload", w, "--trace", trace] + base,
                              capture=True)
            result = last_json(proc.stdout)
            check(proc.returncode == 0 and result is not None and
                  sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"] and
                  result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{w} --trace {trace}: runs clean")
            got = {} if result is None else {
                name: m["unit"] for name, m in result["metrics"].items()}
            check(got == units[key],
                  f"{w} --trace {trace}: prints every {key} metric")
        proc = run_binary(["--workload", w, "--trace", "0",
                           "--corrupt-expected"] + base, capture=True)
        result = last_json(proc.stdout)
        check(proc.returncode != 0 and result is not None and
              not result["correct"] and result["failed"] >= 1,
              f"{w}: a wrong expected digest fails the run")
    log("self-test:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    build()
    if a.self_test:
        return self_test()
    sys.stdout.flush()
    return run_binary(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", a.trace,
                       "--commit", source_id()]).returncode


if __name__ == "__main__":
    sys.exit(main())
