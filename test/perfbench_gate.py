#!/usr/bin/env python3
"""Gate the repository benchmark against its committed baseline.

    python3 test/perfbench_gate.py

Run from the root of a source checkout, on an otherwise idle host. For
every workload in test/golden/perfbench-seed42.json it runs

    python3 perfbench/run.py --workload <w> --seed 42 --seconds 5 --trace 0

and compares the run's last output line (the result JSON) with the
baseline's entry for that workload:

- the simulated figures, `correct` and `failed` are pure functions of
  the seed, so they must match exactly: any difference means the
  simulated system's behaviour changed;
- the wall-clock figures are host-calibrated by perfbench (reference-host
  seconds), so they may exceed the baseline by at most their bound.

Prints a Markdown report and exits 1 if any check fails. The baseline
holds one result line per workload, without `attempted` (it counts
however many runs fit in the 5 s), and with `wall_s`, `setup_s` and
`heap_peak_mb` taken as the median of five runs. After an intended
change, regenerate it the same way.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "test", "golden", "perfbench-seed42.json")
SEED = 42
SECONDS = 5

EXACT_FIELDS = ("correct", "failed")
EXACT_METRICS = ("commit_p50_ms", "commit_p99_ms", "exec_p50_ms", "goodput_ops_s")
# Largest allowed rise over the baseline, as a fraction of it.
BOUNDS = {"wall_s": 0.15, "setup_s": 0.25, "heap_peak_mb": 0.15}


def run(workload):
    """The run's result object, or None if it printed none."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def checks(base, got):
    """Yields (check, baseline, measured, ok) rows."""
    for field in EXACT_FIELDS:
        yield field, base[field], got.get(field), got.get(field) == base[field]
    want = {k: m["value"] for k, m in base["metrics"].items()}
    value = {k: m["value"] for k, m in got.get("metrics", {}).items()}
    for name in EXACT_METRICS:
        yield name, want[name], value.get(name), value.get(name) == want[name]
    for name, bound in BOUNDS.items():
        ok = name in value and value[name] <= want[name] * (1 + bound)
        yield ("%s (<= +%d%%)" % (name, round(bound * 100)), want[name],
               value.get(name), ok)


def main():
    with open(BASELINE) as f:
        baseline = json.load(f)
    failures = []
    print("### Perfbench gate (seed %d, %d s)" % (SEED, SECONDS))
    for workload, base in baseline.items():
        got = run(workload)
        print()
        print("#### `%s`" % workload)
        print()
        if got is None:
            print("**FAIL: no result line**")
            failures.append(workload)
            continue
        print("| check | baseline | measured | |")
        print("|---|---|---|---|")
        for name, want, value, ok in checks(base, got):
            print("| %s | %s | %s | %s |"
                  % (name, want, value, "ok" if ok else "**FAIL**"))
            if not ok:
                failures.append("%s %s" % (workload, name))
    print()
    if failures:
        print("**FAIL:** " + ", ".join(failures))
        sys.exit(1)
    print("All workloads within the committed baseline.")


if __name__ == "__main__":
    main()
