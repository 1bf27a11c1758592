#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload spill-n64 --seed 1 --seconds 10 --trace 0

The arguments are passed to perfbench/main.exe unchanged (see
perfbench/README.md). The build stays inside the working directory
(dune's _build, with the shared dune cache disabled), and a failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
