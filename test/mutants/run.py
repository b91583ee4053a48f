#!/usr/bin/env python3
"""Standing mutant suite: every deliberately broken build must be caught.

Each `test/mutants/<name>.patch` breaks the library in one way. The
manifest (`test/mutants/manifest`) names, for every patch, the test
cases that must fail with that patch applied and a text each failure
must print. The runner copies the working tree, builds the named test
executables, runs every named case on the unpatched copy (each must
pass), then for each patch in turn: `git apply`, build, run only the
named cases, require each to fail with its text, `git apply -R`.

It fails, naming the cause, when
  - a manifest line names a patch that does not exist,
  - a patch is named by no manifest line,
  - a manifest line names a case its test executable does not have,
  - a named case fails on the unpatched tree,
  - a patch no longer applies or no longer builds,
  - a named case passes with its patch applied (the mutant survived),
  - a failing case does not print its expected text.

Usage (from the repository root):
  python3 test/mutants/run.py                 # the whole suite
  python3 test/mutants/run.py skip-fsync ...  # only these patches
The output of every failed check is kept in _build/mutants/.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MANIFEST = os.path.join(HERE, "manifest")
LOGS = os.path.join(ROOT, "_build", "mutants")


class Entry:
    def __init__(self, lineno, patch, exe, group, case, expect):
        self.lineno = lineno
        self.patch = patch
        self.exe = exe
        self.group = group
        self.case = case
        self.expect = expect

    def label(self):
        return f"{self.exe}: {self.group} / {self.case}"


def read_manifest(path):
    entries, errors = [], []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [x.strip() for x in line.split("|")]
            if len(fields) != 5 or not all(fields):
                errors.append(
                    f"manifest:{lineno}: want 5 non-empty '|'-separated fields: "
                    "patch | test | group | case | expected failure text"
                )
                continue
            entries.append(Entry(lineno, *fields))
    return entries, errors


def drift(entries):
    """Manifest lines without a patch, and patches without a line."""
    errors = []
    on_disk = {f[: -len(".patch")] for f in os.listdir(HERE) if f.endswith(".patch")}
    named = {e.patch for e in entries}
    for e in entries:
        if e.patch not in on_disk:
            errors.append(f"manifest:{e.lineno}: no such patch {e.patch}.patch")
    for p in sorted(on_disk - named):
        errors.append(f"{p}.patch: no manifest line names it")
    return errors


def run(cmd, cwd, timeout=900):
    p = subprocess.run(
        cmd,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=timeout,
    )
    return p.returncode, p.stdout


def copy_tree(dst):
    """The working tree as it stands (tracked and untracked, not ignored)."""
    code, out = run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], ROOT
    )
    if code != 0:
        sys.exit("mutants: `git ls-files` failed; run from a git checkout\n" + out)
    for rel in out.split("\0"):
        if not rel or not os.path.isfile(os.path.join(ROOT, rel)):
            continue
        os.makedirs(os.path.join(dst, os.path.dirname(rel)), exist_ok=True)
        shutil.copy2(os.path.join(ROOT, rel), os.path.join(dst, rel))


def build(tree, exes):
    targets = [f"./test/{exe}.exe" for exe in exes]
    return run(["dune", "build", "--root", ".", *targets], tree)


def case_index(tree, exe, group, case, cache):
    """Alcotest's (group, index) address of a named case, or None."""
    if exe not in cache:
        _, out = run([f"./_build/default/test/{exe}.exe", "list"], tree)
        cache[exe] = out.splitlines()
    for line in cache[exe]:
        if not line.startswith(group):
            continue
        m = re.fullmatch(r"\s+(\d+)\s+(.*)\.", line[len(group) :])
        if m and m.group(2) == case:
            return m.group(1)
    return None


def run_case(tree, e, index):
    outdir = os.path.join(tree, "_tests")
    os.makedirs(outdir, exist_ok=True)
    return run(
        [
            os.path.join(tree, "_build", "default", "test", f"{e.exe}.exe"),
            "test",
            f"^{re.escape(e.group)}$",
            index,
            "--color=never",
            "--show-errors",
            "-o",
            outdir,
        ],
        os.path.join(tree, "test"),
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("only", nargs="*", help="run only these patches")
    args = ap.parse_args()
    started = time.monotonic()

    entries, errors = read_manifest(MANIFEST)
    errors += drift(entries)
    unknown = set(args.only) - {e.patch for e in entries}
    errors += [f"{p}: not in the manifest" for p in sorted(unknown)]
    if errors:
        print("mutant suite drifted:", *errors, sep="\n  ")
        return 1
    if args.only:
        entries = [e for e in entries if e.patch in args.only]
    patches = list(dict.fromkeys(e.patch for e in entries))
    exes = sorted({e.exe for e in entries})

    shutil.rmtree(LOGS, ignore_errors=True)
    os.makedirs(LOGS)
    failures = []

    def fail(tag, msg, output=""):
        log = os.path.join(LOGS, re.sub(r"[^\w.-]+", "_", tag) + ".log")
        with open(log, "w") as f:
            f.write(output)
        failures.append(f"{msg} (log: {os.path.relpath(log, ROOT)})")
        print(f"  FAILED  {msg}")

    tree = tempfile.mkdtemp(prefix="mutants-")
    try:
        copy_tree(tree)
        code, out = build(tree, exes)
        if code != 0:
            fail("baseline-build", "the unpatched tree does not build", out)
            return report(failures, started)
        index, listing = {}, {}
        for e in entries:
            i = case_index(tree, e.exe, e.group, e.case, listing)
            if i is None:
                fail(f"manifest-{e.lineno}", f"manifest:{e.lineno}: {e.label()}: no such case")
            else:
                index[e.lineno] = i
        if failures:
            return report(failures, started)

        print(f"baseline: {len({e.label() for e in entries})} named cases")
        seen = set()
        for e in entries:
            if e.label() in seen:
                continue
            seen.add(e.label())
            code, out = run_case(tree, e, index[e.lineno])
            if code != 0:
                fail(f"baseline-{e.exe}-{e.lineno}", f"{e.label()} fails without any patch", out)
        if failures:
            return report(failures, started)

        for patch in patches:
            path = os.path.join(HERE, f"{patch}.patch")
            code, out = run(["git", "apply", "--check", path], tree)
            if code != 0:
                fail(patch, f"{patch}: patch no longer applies", out)
                continue
            run(["git", "apply", path], tree)
            try:
                code, out = build(tree, exes)
                if code != 0:
                    fail(patch, f"{patch}: does not build with the patch applied", out)
                    continue
                for e in (e for e in entries if e.patch == patch):
                    code, out = run_case(tree, e, index[e.lineno])
                    tag = f"{patch}-{e.exe}-{e.lineno}"
                    if code == 0:
                        fail(tag, f"{patch}: survived {e.label()}", out)
                    elif e.expect not in out:
                        fail(tag, f"{patch}: {e.label()} failed without printing {e.expect!r}", out)
                    else:
                        print(f"  caught  {patch}: {e.label()}")
            finally:
                code, out = run(["git", "apply", "-R", path], tree)
                if code != 0:
                    fail(patch, f"{patch}: does not reverse cleanly", out)
                    return report(failures, started)
        return report(failures, started)
    finally:
        shutil.rmtree(tree, ignore_errors=True)


def report(failures, started):
    took = time.monotonic() - started
    if failures:
        print(f"mutant suite FAILED ({took:.0f} s):", *failures, sep="\n  ")
        return 1
    print(f"mutant suite OK: every mutant caught ({took:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
