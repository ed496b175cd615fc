#!/usr/bin/env python3
"""Builds the F-CAD benchmark driver from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: replay_batched_sla, replay_stream_drift, dse_table1.
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), span
files and scratch checkpoints to .bench_out. The driver's standard output is
passed through; its last line is the result JSON. The exit code is the
driver's: 0 when every operation and correctness check passed.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 175


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def run_build_step(cmd):
    # Build chatter goes to stderr so the result stays the last stdout line.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: %s" % " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serving", "fleet.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs])
    return os.path.join(build_dir, "perfbench")


def fixed_address_layout():
    """Runs in the driver's child before exec: disables address-space
    randomization there, since run-to-run layout changes alone move set-up
    times by tens of percent on this code. Best effort."""
    try:
        import ctypes
        ADDR_NO_RANDOMIZE = 0x0040000
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except Exception:
        pass


def source_revision():
    """Content digest of the library and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    start = time.monotonic()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--revision", source_revision()]
    remaining = TIME_LIMIT_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(remaining, 30),
                              preexec_fn=fixed_address_layout)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded its time limit")
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
