#!/usr/bin/env python3
"""Guard the committed throughput baseline against silent regressions.

Compares a freshly produced BENCH_throughput.json artifact (from
tools/bench_throughput.py) against the baseline committed at the repo
root. Absolute cycles/second numbers are host-dependent — CI runners and
developer machines differ by integer factors — so the comparison is
deliberately generous:

  - structural checks are hard: both files must carry the
    trisim-bench-throughput/1 schema, and the fresh run's bit-identity
    checks (parallel sweep vs serial, fast-forward vs stepped) must pass;
  - deterministic counters are exact: the fast-forward run must skip the
    same simulated cycles and take the same wakeups as the baseline —
    these depend only on the workload, so any drift is a real behaviour
    change, not noise;
  - throughput is banded: single-run cycles/second and the fast-forward
    speedup may drop to --tolerance (default 0.5, i.e. half) of the
    baseline before the check fails. Within the band, changes are
    reported but accepted as host noise;
  - the execution tiers are held tighter: the dense-kernel run measures
    both tiers back to back in one process, so their ns/cycle trajectory
    is comparable run-to-run — either tier slowing down by more than
    --dense-tolerance (default 1.15, i.e. +15%) over the baseline fails,
    as does the superblock tier's speedup dropping below
    --min-dense-speedup (default 3.0).

Usage:
  tools/check_bench_trend.py fresh.json [--baseline BENCH_throughput.json]
      [--tolerance 0.5]
"""

import argparse
import json
import sys


def fail(msg):
    print("FAIL: " + msg, file=sys.stderr)
    return False


def check(fresh, base, tolerance, dense_tolerance, min_dense_speedup):
    ok = True
    for name, doc in (("fresh", fresh), ("baseline", base)):
        if doc.get("schema") != "trisim-bench-throughput/1":
            ok = fail("%s artifact has schema %r" % (name, doc.get("schema")))
    if not ok:
        return False

    # Hard: bit-identity never regresses, on any host.
    if not fresh["sweep"]["identical_to_serial"]:
        ok = fail("parallel sweep diverged from serial")
    if not fresh["fast_forward"]["identical_to_stepped"]:
        ok = fail("fast-forward run diverged from stepped run")
    if not fresh.get("warm_fork", {}).get("identical_to_cold", True):
        ok = fail("warm-forked campaign diverged from cold boots")
    if not fresh.get("campaign_scaling", {}).get("identical_across_jobs",
                                                 True):
        ok = fail("campaign classification changed with the job count")

    # Exact: simulated-work counters are host-independent.
    for key in ("cycles", "skipped_cycles", "wakeups"):
        fv = fresh["fast_forward"][key]
        bv = base["fast_forward"][key]
        if fv != bv:
            ok = fail("fast_forward.%s changed: baseline %d, fresh %d "
                      "(deterministic counter — this is a behaviour change)"
                      % (key, bv, fv))
    if fresh["single_run"]["cycles"] != base["single_run"]["cycles"]:
        ok = fail("single_run.cycles changed: baseline %d, fresh %d"
                  % (base["single_run"]["cycles"],
                     fresh["single_run"]["cycles"]))

    # Banded: throughput may wobble with the host, not collapse.
    banded = [
        ("single_run.cycles_per_second",
         fresh["single_run"]["cycles_per_second"],
         base["single_run"]["cycles_per_second"]),
        ("fast_forward.speedup",
         fresh["fast_forward"]["speedup"],
         base["fast_forward"]["speedup"]),
        ("single_run.dag_observer_cycles_per_second",
         fresh["single_run"].get("dag_observer_cycles_per_second", 0),
         base["single_run"].get("dag_observer_cycles_per_second", 0)),
        ("warm_fork.speedup",
         fresh.get("warm_fork", {}).get("speedup", 0),
         base.get("warm_fork", {}).get("speedup", 0)),
        ("campaign_scaling.campaign_scenarios_per_sec",
         fresh.get("campaign_scaling", {}).get("campaign_scenarios_per_sec",
                                               0),
         base.get("campaign_scaling", {}).get("campaign_scenarios_per_sec",
                                              0)),
    ]
    for name, fv, bv in banded:
        if bv <= 0:
            continue
        ratio = fv / bv
        status = "ok" if ratio >= tolerance else "REGRESSED"
        print("  %-42s baseline %12.1f  fresh %12.1f  (%.2fx, %s)"
              % (name, bv, fv, ratio, status))
        if ratio < tolerance:
            ok = fail("%s fell to %.2fx of baseline (floor %.2fx)"
                      % (name, ratio, tolerance))

    # Execution tiers (absent from pre-superblock baselines): the dense
    # run is a same-process A/B, so hold both tiers' ns/cycle to the
    # tight band and the tier speedup to its hard floor.
    ft = fresh.get("exec_tiers", {})
    bt = base.get("exec_tiers", {})
    if ft and bt:
        if not ft.get("identical_to_accurate", True):
            ok = fail("superblock tier diverged from the accurate stepper")
        for key in ("accurate_ns_per_cycle", "superblock_ns_per_cycle"):
            fv, bv = ft.get(key, 0.0), bt.get(key, 0.0)
            if bv <= 0 or fv <= 0:
                continue
            ratio = fv / bv  # ns/cycle: higher is worse
            status = "ok" if ratio <= dense_tolerance else "REGRESSED"
            print("  %-42s baseline %12.2f  fresh %12.2f  (%.2fx, %s)"
                  % ("exec_tiers." + key, bv, fv, ratio, status))
            if ratio > dense_tolerance:
                ok = fail("exec_tiers.%s slowed to %.2fx of baseline "
                          "(ceiling %.2fx)" % (key, ratio, dense_tolerance))
        speedup = ft.get("speedup", 0.0)
        if speedup > 0 and speedup < min_dense_speedup:
            ok = fail("exec_tiers.speedup %.2fx < required %.2fx"
                      % (speedup, min_dense_speedup))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh", help="freshly produced bench artifact")
    ap.add_argument("--baseline", default="BENCH_throughput.json",
                    help="committed baseline (default BENCH_throughput.json)")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="minimum fresh/baseline ratio for throughput "
                         "numbers (default 0.5)")
    ap.add_argument("--dense-tolerance", type=float, default=1.15,
                    help="maximum fresh/baseline ns-per-cycle ratio for "
                         "either execution tier (default 1.15 = +15%%)")
    ap.add_argument("--min-dense-speedup", type=float, default=3.0,
                    help="hard floor for the superblock tier's dense-kernel "
                         "speedup (default 3.0)")
    args = ap.parse_args()

    with open(args.fresh) as f:
        fresh = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)

    print("bench trend: %s vs baseline %s (tolerance %.2fx)"
          % (args.fresh, args.baseline, args.tolerance))
    if not check(fresh, base, args.tolerance, args.dense_tolerance,
                 args.min_dense_speedup):
        return 1
    print("bench trend: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
