#!/usr/bin/env python3
"""Build the frame-path benchmark from source and run it once.

Usage, from the repository root:

    python3 perfbench/run.py --workload <wcdma|ofdm|mixed_gang> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build` at the
repository root); traced runs write their spans under
`<target>/perfbench/`. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero without a result
when the build fails, e.g. when the repository's crates are missing.
"""

import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def capture(cmd, env):
    try:
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    # Never look for a repository above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, cwd=ROOT, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    env["PERFBENCH_HOST"] = platform.node()
    env["PERFBENCH_COMMIT"] = capture(["git", "rev-parse", "HEAD"], env)
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"], env)
    exe = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [exe, *sys.argv[1:], "--out", os.path.join(target, "perfbench")],
        env=env, cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
