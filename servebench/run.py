#!/usr/bin/env python3
"""Builds `ddn` and the benchmark from source, then runs one workload.

Run from the repository root:

    python3 servebench/run.py --workload bulk-binary --seed 1 --seconds 10 --trace 0

Build output goes to stderr; the benchmark's report goes to stdout and
ends with one JSON line. `CARGO_TARGET_DIR` is honoured (default
`target`). Scratch files live under `servebench/.work/` and each run
removes its own.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if result.returncode != 0:
        sys.exit(f"servebench: build failed: {' '.join(cmd)}")


def main():
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest) or not os.path.isdir(os.path.join(ROOT, "crates", "serve")):
        sys.exit("servebench: run from a checkout of the repository (Cargo.toml and crates/ missing)")
    build(manifest, "-p", "ddn-cli", "--bin", "ddn")
    build(os.path.join(HERE, "Cargo.toml"))
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    release = os.path.join(target, "release")
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(release, "servebench"), *sys.argv[1:],
           "--ddn", os.path.join(release, "ddn"), "--work", work]
    # The benchmark kills its servers on every exit path it controls; a
    # process group of its own lets a timeout or a signal to this wrapper
    # take them down with it.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)

    def kill_group():
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        # The benchmark removes its scratch directory itself unless killed.
        shutil.rmtree(os.path.join(work, f"run-{child.pid}"), ignore_errors=True)

    def stop(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=170)
    except subprocess.TimeoutExpired:
        kill_group()
        sys.exit("servebench: run exceeded 170 s")
    sys.exit(code)


if __name__ == "__main__":
    main()
