#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload loaded-mix --seed 1 --seconds 20 --trace 0

The benchmark is the Go module in this directory (it imports the simulator
through a replace of the parent module). It is built from source into the
build directory -- $CARGO_TARGET_DIR if set, else .bench_build -- with the
Go build cache, module cache and home directory kept there too, so nothing
is read or written outside the checkout. The binary then replaces this
process, with the arguments passed through; traced runs write their span,
profile and layer files under <build dir>/perfbench.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isfile(
        os.path.join(here, "go.mod")
    ):
        sys.stderr.write("perfbench: run from the repository root (no go.mod found)\n")
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update(
        HOME=home,
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    args = [binary, "--out", os.path.join(build, "perfbench")] + sys.argv[1:]
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
