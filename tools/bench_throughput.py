#!/usr/bin/env python3
"""CI perf smoke: run bench_throughput and emit BENCH_throughput.json.

Runs the bench binary, parses its `THROUGHPUT key=value` tail, derives the
headline numbers (single-run cycles/sec and serial-vs-parallel sweep wall
clock), and writes them as one JSON artifact.

Checks applied:
  - the parallel sweep must be bit-identical to the serial one (always);
  - sweep speedup >= --min-speedup, but only when the host actually has
    enough cores for the requested job count — on a 1- or 2-core CI
    runner a 4-job >=2x target is physically impossible, so the check is
    recorded as "skipped" instead of failing the build;
  - the idle fast-forward run must be bit-identical to the stepped one
    and >= --min-ff-speedup faster (single-process, so no core gate).

Usage:
  tools/bench_throughput.py --bench build/bench/bench_throughput \
      --out BENCH_throughput.json [--jobs 4] [--cycles N] \
      [--min-speedup 2.0]
"""

import argparse
import json
import subprocess
import sys


def parse_throughput_lines(text):
    values = {}
    for line in text.splitlines():
        if not line.startswith("THROUGHPUT "):
            continue
        key, _, raw = line[len("THROUGHPUT "):].partition("=")
        try:
            values[key.strip()] = float(raw)
        except ValueError:
            pass
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", required=True,
                    help="path to the bench_throughput binary")
    ap.add_argument("--out", required=True,
                    help="output JSON path (BENCH_throughput.json)")
    ap.add_argument("--jobs", type=int, default=4,
                    help="worker threads for the parallel sweep")
    ap.add_argument("--cycles", type=int, default=0,
                    help="single-run cycle budget (0 = bench default)")
    ap.add_argument("--min-speedup", type=float, default=2.0,
                    help="required sweep speedup when cores allow")
    ap.add_argument("--min-ff-speedup", type=float, default=2.0,
                    help="required idle fast-forward speedup")
    ap.add_argument("--min-dense-speedup", type=float, default=3.0,
                    help="required superblock-tier speedup on the dense "
                         "kernels (single-process ratio, host-independent)")
    args = ap.parse_args()

    cmd = [args.bench, "--jobs", str(args.jobs)]
    if args.cycles:
        cmd += ["--cycles", str(args.cycles)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)

    values = parse_throughput_lines(proc.stdout)
    required = [
        "single_run_cps", "sweep_serial_seconds", "sweep_parallel_seconds",
        "sweep_jobs", "hardware_jobs", "sweep_identical",
        "ff_on_seconds", "ff_off_seconds", "ff_identical",
    ]
    missing = [k for k in required if k not in values]
    if proc.returncode != 0 or missing:
        print("bench_throughput failed (rc=%d, missing=%s)"
              % (proc.returncode, missing), file=sys.stderr)
        return 1

    serial_s = values["sweep_serial_seconds"]
    parallel_s = values["sweep_parallel_seconds"]
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    hardware_jobs = int(values["hardware_jobs"])
    sweep_jobs = int(values["sweep_jobs"])
    identical = values["sweep_identical"] == 1

    ff_on_s = values["ff_on_seconds"]
    ff_off_s = values["ff_off_seconds"]
    ff_speedup = ff_off_s / ff_on_s if ff_on_s > 0 else 0.0
    ff_identical = values["ff_identical"] == 1

    # Warm-forked fault campaign (optional: absent from older binaries).
    wf_cold_s = values.get("warm_fork_cold_seconds", 0.0)
    wf_warm_s = values.get("warm_fork_warm_seconds", 0.0)
    wf_speedup = wf_cold_s / wf_warm_s if wf_warm_s > 0 else 0.0
    wf_identical = values.get("warm_fork_identical", 1) == 1

    # Campaign jobs scaling (optional: absent from older binaries).
    camp_runs = int(values.get("campaign_scenarios", 0))
    camp_seconds = {j: values.get("campaign_jobs%d_seconds" % j, 0.0)
                    for j in (1, 2, 8)}
    camp_identical = values.get("campaign_jobs_identical", 1) == 1
    camp_per_sec = values.get("campaign_scenarios_per_sec", 0.0)

    # Dense-kernel execution tiers (optional: absent from older binaries).
    dense_acc_ns = values.get("dense_accurate_ns_per_cycle", 0.0)
    dense_sb_ns = values.get("dense_superblock_ns_per_cycle", 0.0)
    dense_speedup = dense_acc_ns / dense_sb_ns if dense_sb_ns > 0 else 0.0
    dense_identical = values.get("dense_identical", 1) == 1
    dense_present = "dense_superblock_ns_per_cycle" in values

    # The speedup criterion only makes sense when the host can actually
    # run the requested workers in parallel.
    enough_cores = hardware_jobs >= sweep_jobs and sweep_jobs >= 2
    speedup_ok = speedup >= args.min_speedup
    ff_speedup_ok = ff_speedup >= args.min_ff_speedup
    checks = {
        "sweep_identical": "pass" if identical else "fail",
        "sweep_speedup": ("pass" if speedup_ok else "fail")
                         if enough_cores else "skipped (host has %d cores "
                         "for a %d-job sweep)" % (hardware_jobs, sweep_jobs),
        "ff_identical": "pass" if ff_identical else "fail",
        "ff_speedup": "pass" if ff_speedup_ok else "fail",
        "warm_fork_identical": "pass" if wf_identical else "fail",
        "campaign_jobs_identical": "pass" if camp_identical else "fail",
        "dense_identical": "pass" if dense_identical else "fail",
        # The dense speedup is a single-process ratio on one host, so
        # unlike the sweep there is no core-count gate.
        "dense_speedup": ("pass" if dense_speedup >= args.min_dense_speedup
                          else "fail") if dense_present else "skipped "
                         "(bench binary has no dense-kernel section)",
    }

    report = {
        "schema": "trisim-bench-throughput/1",
        "single_run": {
            "cycles": int(values.get("single_run_cycles", 0)),
            "cycles_per_second": values["single_run_cps"],
            # Dense run with the execution-DAG observer attached (0 when
            # produced by an older bench binary).
            "dag_observer_cycles_per_second":
                values.get("single_run_dag_cps", 0.0),
        },
        "sweep": {
            "jobs": sweep_jobs,
            "hardware_jobs": hardware_jobs,
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": speedup,
            "identical_to_serial": identical,
            "min_speedup_required": args.min_speedup,
        },
        "fast_forward": {
            "cycles": int(values.get("ff_cycles", 0)),
            "on_seconds": ff_on_s,
            "off_seconds": ff_off_s,
            "speedup": ff_speedup,
            "skipped_cycles": int(values.get("ff_skipped_cycles", 0)),
            "wakeups": int(values.get("ff_wakeups", 0)),
            "identical_to_stepped": ff_identical,
            "min_speedup_required": args.min_ff_speedup,
        },
        "warm_fork": {
            "runs": int(values.get("warm_fork_runs", 0)),
            "fork_cycle": int(values.get("warm_fork_cycle", 0)),
            "cold_seconds": wf_cold_s,
            "warm_seconds": wf_warm_s,
            "speedup": wf_speedup,
            "identical_to_cold": wf_identical,
        },
        "campaign_scaling": {
            "runs": camp_runs,
            "jobs_scaling": {
                "1": camp_seconds[1],
                "2": camp_seconds[2],
                "8": camp_seconds[8],
            },
            "campaign_scenarios_per_sec": camp_per_sec,
            "identical_across_jobs": camp_identical,
        },
        "exec_tiers": {
            "cycles": int(values.get("dense_cycles", 0)),
            "accurate_ns_per_cycle": dense_acc_ns,
            "superblock_ns_per_cycle": dense_sb_ns,
            "speedup": dense_speedup,
            "identical_to_accurate": dense_identical,
            "min_speedup_required": args.min_dense_speedup,
        },
        "checks": checks,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print("wrote %s (sweep speedup %.2fx at %d jobs, fast-forward "
          "speedup %.2fx, checks: %s)"
          % (args.out, speedup, sweep_jobs, ff_speedup, checks))

    if not identical:
        print("FAIL: parallel sweep diverged from serial", file=sys.stderr)
        return 1
    if enough_cores and not speedup_ok:
        print("FAIL: sweep speedup %.2fx < required %.2fx"
              % (speedup, args.min_speedup), file=sys.stderr)
        return 1
    if not ff_identical:
        print("FAIL: fast-forward run diverged from stepped run",
              file=sys.stderr)
        return 1
    if not ff_speedup_ok:
        print("FAIL: fast-forward speedup %.2fx < required %.2fx"
              % (ff_speedup, args.min_ff_speedup), file=sys.stderr)
        return 1
    if not wf_identical:
        print("FAIL: warm-forked campaign diverged from cold boots",
              file=sys.stderr)
        return 1
    if not camp_identical:
        print("FAIL: campaign classification changed with the job count",
              file=sys.stderr)
        return 1
    if not dense_identical:
        print("FAIL: superblock tier diverged from the accurate stepper",
              file=sys.stderr)
        return 1
    if dense_present and dense_speedup < args.min_dense_speedup:
        print("FAIL: dense-kernel superblock speedup %.2fx < required %.2fx"
              % (dense_speedup, args.min_dense_speedup), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
