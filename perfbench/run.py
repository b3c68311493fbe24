#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload select --seed 1 --seconds 20 --trace 0

The Go program is built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build), with the Go build cache and
temporary files kept there too, so a run reads and writes only inside
the checkout. Arguments pass through to the program; its exit code is
returned. A checkout without the repository's Go module fails the build
and exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for sub in ("gocache", "gopath", "gotmp", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--work", os.path.join(build, "perfbench")]
    return subprocess.run([binary] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
