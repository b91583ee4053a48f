#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. It builds perfbench/perfbench.exe
with dune (release profile, into .bench_build) and runs it. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
# A run measures for --seconds, plus one untimed warm-up run and the
# last timed run's overshoot; this stops a wedged one well before any
# outer limit.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune is not on PATH")


def build():
    # The shared dune cache lives outside the checkout; keep every
    # build product inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", TARGET,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        fail("build failed (exit %d)" % proc.returncode)


def commit():
    if shutil.which("git") is None:
        return "unknown"
    # Look no further up than the checkout itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 0:
        fail("--seconds must not be negative")
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found in %s: run from a full source checkout"
                 % (needed, ROOT))
    build()
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--commit", commit(),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
