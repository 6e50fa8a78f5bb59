#!/usr/bin/env python3
"""Regenerate the committed replay golden library in replays/.

Runs the record modes of audo-profile and audo-faultcamp from a build
directory and writes one golden per library entry:

  engine_superblock.json       engine workload, superblock tier
  engine_accurate.json         engine workload, accurate tier
  transmission_superblock.json transmission workload, superblock tier
  transmission_flow.json       transmission workload with the program-flow
                               and irq trace and the session DAG on, so
                               flow/irq/sync messages and the DAG hash
                               are pinned too
  faultcamp_engine.json        seeded fault campaign classification on
                               the busy engine, which never parks
  faultcamp_idle.json          seeded fault campaign on the WFI engine,
                               so idle-node attribution and
                               fast-forwarded scenarios are pinned too

Goldens only need regenerating when simulator behaviour intentionally
changes; CI replays the committed set bit-identically under both exec
tiers (the replay-goldens job) and fails on any drift.

Usage:  make_goldens.py [build_dir] [out_dir]
"""
import os
import subprocess
import sys


GOLDENS = [
    ("engine_superblock.json", "audo-profile",
     ["--engine", "--cycles", "120000", "--exec-tier", "superblock"]),
    ("engine_accurate.json", "audo-profile",
     ["--engine", "--cycles", "120000", "--exec-tier", "accurate"]),
    ("transmission_superblock.json", "audo-profile",
     ["--transmission", "--cycles", "120000", "--exec-tier", "superblock"]),
    ("transmission_flow.json", "audo-profile",
     ["--transmission", "--cycles", "120000", "--flow", "--irq", "--dag"]),
    ("faultcamp_engine.json", "audo-faultcamp",
     ["--scenarios", "8", "--seed", "11", "--jobs", "2",
      "--cycles", "200000", "--bg", "120"]),
    ("faultcamp_idle.json", "audo-faultcamp",
     ["--idle-revs", "2", "--scenarios", "32", "--seed", "1", "--jobs", "2"]),
]


def main(argv):
    build = argv[1] if len(argv) > 1 else "build"
    repo = os.path.dirname(os.path.dirname(os.path.abspath(argv[0])))
    out_dir = argv[2] if len(argv) > 2 else os.path.join(repo, "replays")
    os.makedirs(out_dir, exist_ok=True)
    for name, tool, args in GOLDENS:
        binary = os.path.join(build, "tools", tool)
        out = os.path.join(out_dir, name)
        cmd = [binary] + args + ["--record", out]
        print("+", " ".join(cmd))
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        print(f"  wrote {out}")
    check = os.path.join(repo, "tools", "check_replay_schema.py")
    paths = [os.path.join(out_dir, name) for name, _, _ in GOLDENS]
    subprocess.run([sys.executable, check] + paths, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
