#!/usr/bin/env python3
"""Build and run the open-loop multi-process load benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload steady|roaming|wide-match|all \\
        --seed N --seconds S --trace 0|1

Builds `rebeca-node` from the repository workspace and the `perfbench`
load generator from its own workspace (both offline, release profile, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs the load generator.
Build output goes to stderr; the load generator's last line of stdout is the
JSON result, whose `correct` field says whether delivery was exactly-once.
Exits non-zero, without a result, when the sources are missing, a build
fails or a run cannot finish. `--workload all` runs the three workloads in
turn and exits non-zero when any of them was not exactly-once.
"""

import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
# The load generator's exit code for a finished run whose result reads
# `"correct": false`.
NOT_EXACTLY_ONCE = 3


def build(args):
    """Runs one offline release build; output goes to stderr."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return done.returncode == 0


def main():
    for manifest in (os.path.join(ROOT, "Cargo.toml"), os.path.join(BENCH, "Cargo.toml")):
        if not os.path.isfile(manifest):
            print(f"perfbench: {manifest} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    if not build(["--manifest-path", "Cargo.toml", "-p", "rebeca-net", "--bin", "rebeca-node"]):
        print("perfbench: building rebeca-node failed", file=sys.stderr)
        return 4
    if not build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        print("perfbench: building the load generator failed", file=sys.stderr)
        return 4
    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    args = sys.argv[1:]
    workloads = [None]
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        at = args.index("--workload")
        if args[at + 1] == "all":
            del args[at:at + 2]
            workloads = ["steady", "roaming", "wide-match"]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    status = 0
    incorrect = False
    for workload in workloads:
        command = [
            os.path.join(release, "perfbench"),
            *args,
            *(["--workload", workload] if workload else []),
            "--node-bin", os.path.join(release, "rebeca-node"),
            "--work-dir", work,
        ]
        code = run(command)
        if code == NOT_EXACTLY_ONCE:
            incorrect = True
        else:
            status = status or code
    if status == 0 and incorrect and len(workloads) > 1:
        return 1
    return status


def run(command):
    """Runs the load generator and waits for it and everything it spawned."""
    # The load generator and the brokers it spawns share a new process
    # group, so a run stopped from outside leaves no broker behind.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return child.wait()
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


if __name__ == "__main__":
    sys.exit(main())
