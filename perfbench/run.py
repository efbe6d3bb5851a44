#!/usr/bin/env python3
"""Build the perfbench binary from source, then run it with the given arguments.

Run from the repository root:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 28 --trace 0

Every build artifact (binary, Go build cache, temporary files) lands under
the build directory: $CARGO_TARGET_DIR when set, else .bench_build. The
benchmark's own result is the last line of standard output; a failed build
exits non-zero without printing one.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    for sub in ("tmp", "home", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        # HOME and XDG_CONFIG_HOME keep the go command's telemetry and
        # settings inside the build directory too.
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=here, env=env,
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
