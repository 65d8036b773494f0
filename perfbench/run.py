#!/usr/bin/env python3
"""Entry point of the effres end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_edges --seed 1 --seconds 16 --trace 0

It builds `effres-cli` from the checkout's workspace and the harness package
in `perfbench/`, both in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs the harness with the same arguments. The harness
prints one JSON result object as the last line of standard output.

`--regenerate-reference` recomputes `perfbench/reference.txt`, the exact
resistances the correctness gates compare against (about two minutes).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "server"))):
        sys.stderr.write("perfbench: run from the root of an effres checkout\n")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["-p", "effres-server", "--bin", "effres-cli"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for extra in builds:
        command = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(command, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(command))
            return 2
    release = os.path.join(target, "release")
    harness = os.path.join(release, "effres-perfbench")
    command = [
        harness,
        "--cli", os.path.join(release, "effres-cli"),
        "--cache-dir", os.path.join(target, "perfbench"),
        "--reference", os.path.join(HERE, "reference.txt"),
        *sys.argv[1:],
    ]
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
