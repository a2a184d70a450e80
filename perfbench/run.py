#!/usr/bin/env python3
"""Build the regless CLI and the benchmark harness from source, then run one
workload of the benchmark.

    python3 perfbench/run.py --workload <sim-matrix|capacity-sweep|serve-warm> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`). Build output goes to stderr; the harness's last
stdout line is the JSON result. Exits non-zero, printing no result, when
either build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "regless"],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        try:
            done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    harness = os.path.join(release, "perfbench")
    regless = os.path.join(release, "regless")
    # One CPU for the harness and everything it starts (affinity is
    # inherited): the calibration slices then run on the CPU the program
    # runs on. On a 2-vCPU VM the two vCPUs drift independently.
    cpu = max(os.sched_getaffinity(0))
    # A child, not exec: the harness's getrusage(RUSAGE_CHILDREN) must see
    # only the program's processes, not the compiler's.
    done = subprocess.run(
        [harness, *sys.argv[1:], "--regless", regless],
        cwd=root,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
