#!/usr/bin/env python3
"""Benchmark entry point: build from source, then run one workload.

    python3 perfbench/run.py --workload hot|cold|split --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the release `gtree`
binary and the two harnesses under perfbench/ (into $CARGO_TARGET_DIR,
default .bench_build), then runs

  --trace 0  perfbench-e2e:    the gated end-to-end figures, wire only
  --trace 1  perfbench-traced: the per-layer figures, measured from outside

and passes their output through; the last stdout line is the JSON
result.  Build output goes to stderr.  Exits non-zero, printing no
result, when the checkout has no program to build.
"""

import argparse
import os
import subprocess
import sys

HARNESSES = ("perfbench/wire/Cargo.toml", "perfbench/traced/Cargo.toml")


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [cargo + ["-p", "gt-cli"]]
    steps += [cargo + ["--manifest-path", m] for m in HARNESSES]
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))


def git_sha():
    # Stop git at the checkout: it must not report an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["hot", "cold", "split"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile("crates/cli/Cargo.toml"):
        sys.exit("no program to build here: run from the root of a checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target)
    release = os.path.join(target, "release")
    common = [
        "--bin", os.path.join(release, "gtree"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--git-sha", git_sha(),
    ]
    if args.trace:
        spans = os.path.join(target, "perfbench-spans-%s-%d.ndjson" % (args.workload, args.seed))
        cmd = [os.path.join(release, "perfbench-traced")] + common + ["--spans", spans]
    else:
        cmd = [os.path.join(release, "perfbench-e2e")] + common
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
