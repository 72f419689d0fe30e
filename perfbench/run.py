#!/usr/bin/env python3
"""Build the serving daemon and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve-point, serve-batch, release-set. Builds go to
$CARGO_TARGET_DIR (default .bench_build). Build output goes to stderr; the
last line of stdout is the benchmark's JSON result. Exits non-zero, printing
no result, when the sources are missing or do not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    # The benchmark sets tracing and thread counts itself; inherited STPT_*
    # knobs would change what it measures.
    env = {k: v for k, v in os.environ.items() if not k.startswith("STPT_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    builds = [
        [os.path.join(ROOT, "Cargo.toml"), "-p", "stpt-serve", "--bin", "stpt-serve"],
        [os.path.join(HERE, "Cargo.toml")],
    ]
    for manifest_and_args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
        try:
            done = subprocess.run(cmd + manifest_and_args, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--serve-bin", os.path.join(release, "stpt-serve"),
        "--expected", os.path.join(HERE, "expected_mre.txt"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
