#!/usr/bin/env python3
"""Crash-recovery smoke test for the resumable fault-campaign service.

Three phases, all against the same campaign (idle-background engine,
every scenario booted cold):

1. reference  — run the campaign uninterrupted and record its
                classification hash;
2. kill -9    — start a journaled run, wait until at least a few
                scenarios are fsynced to the manifest, SIGKILL the
                process mid-campaign, then `--resume` from the manifest
                and require the merged classification hash to be
                bit-identical to the reference;
3. SIGINT     — start another journaled run, interrupt it, and require a
                graceful partial flush (exit 130, "aborted" in the
                output, a loadable manifest) that also resumes to the
                reference hash.

Exits nonzero (with a diagnostic) on any mismatch.
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

CLASSIFICATION = re.compile(r"classification (0x[0-9a-f]+)")
RESUMED = re.compile(r"resume: (\d+) of (\d+) scenarios journaled")


def fail(message):
    print(f"crash_recovery_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, check=True):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if check and proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def classification_of(output, what):
    match = CLASSIFICATION.search(output)
    if not match:
        fail(f"no classification hash in {what} output:\n{output}")
    return match.group(1)


def wait_for_manifest_lines(path, want, proc, timeout_s):
    """Poll until the manifest has `want` lines or the campaign exits."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return  # finished before we could interfere; still a valid run
        try:
            with open(path, "rb") as f:
                if f.read().count(b"\n") >= want:
                    return
        except FileNotFoundError:
            pass
        time.sleep(0.01)
    fail(f"manifest {path} never reached {want} lines")


def resume_and_check(args, base, manifest, reference, label):
    proc = run(base + ["--resume", manifest])
    match = RESUMED.search(proc.stdout)
    if not match:
        fail(f"{label}: no resume line in output:\n{proc.stdout}")
    replayed, planned = int(match.group(1)), int(match.group(2))
    if planned != args.scenarios:
        fail(f"{label}: resumed campaign plans {planned} scenarios, "
             f"expected {args.scenarios}")
    got = classification_of(proc.stdout, label)
    if got != reference:
        fail(f"{label}: classification {got} != uninterrupted {reference}")
    print(f"  {label}: replayed {replayed}/{planned} journaled scenarios, "
          f"classification {got} matches")
    return replayed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--faultcamp", default="build/tools/audo-faultcamp",
                        help="path to the audo-faultcamp binary")
    parser.add_argument("--scenarios", type=int, default=48)
    parser.add_argument("--idle-revs", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--timeout-s", type=float, default=120.0,
                        help="overall per-phase safety timeout")
    args = parser.parse_args()

    base = [args.faultcamp,
            "--idle-revs", str(args.idle_revs),
            "--scenarios", str(args.scenarios),
            "--jobs", str(args.jobs),
            "--seed", str(args.seed)]

    # Phase 1: uninterrupted reference.
    reference = classification_of(run(base).stdout, "reference")
    print(f"  reference classification {reference}")

    with tempfile.TemporaryDirectory(prefix="audo-crashsmoke-") as tmp:
        # Phase 2: kill -9 mid-campaign, then resume.
        manifest = os.path.join(tmp, "killed.jsonl")
        victim = subprocess.Popen(base + ["--manifest", manifest],
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        # Header + at least 3 scenario records in the journal.
        wait_for_manifest_lines(manifest, 4, victim, args.timeout_s)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait()
        resume_and_check(args, base, manifest, reference, "after kill -9")

        # Phase 3: SIGINT flushes a consistent partial manifest.
        manifest = os.path.join(tmp, "interrupted.jsonl")
        victim = subprocess.Popen(base + ["--manifest", manifest],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        wait_for_manifest_lines(manifest, 4, victim, args.timeout_s)
        interrupted_early = victim.poll() is None
        if interrupted_early:
            victim.send_signal(signal.SIGINT)
        output, _ = victim.communicate(timeout=args.timeout_s)
        if interrupted_early:
            if victim.returncode != 130:
                fail(f"SIGINT exit code {victim.returncode}, expected 130")
            if "aborted:" not in output:
                fail(f"no abort notice after SIGINT:\n{output}")
            print("  SIGINT: graceful abort (exit 130, partial manifest "
                  "flushed)")
        else:
            # The campaign outran us; its complete manifest still resumes.
            print("  SIGINT: campaign finished before the signal landed")
        resume_and_check(args, base, manifest, reference, "after SIGINT")

    print("crash_recovery_smoke: PASS")


if __name__ == "__main__":
    main()
