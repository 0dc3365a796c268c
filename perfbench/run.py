#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  Builds perfbench/main.exe and the CLI
(whose `serve` daemon the traced table2 run drives) with dune into
.bench_build, then hands over to the benchmark, which prints its result
as the last line of standard output.  Outputs (result files, traces, the
daemon's state and the cache file) go to perfbench/out.  See
perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join("perfbench", "out")
TARGETS = ["./perfbench/main.exe", "./bin/holistic_cli.exe"]
SOURCES = ["dune-project", "bin", "lib", "perfbench"]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, *TARGETS],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)


def exe(target):
    return os.path.join(BUILD_DIR, "default", target[2:])


def commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources, so a run is identified without git."""
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else [
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            for f in files
            if not d.startswith(OUT_DIR)
        ]
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    if not os.path.isfile("dune-project"):
        sys.stderr.write("perfbench: run from the repository root\n")
        return 2
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if argv == ["--selftest"]:
        here = os.path.dirname(os.path.abspath(__file__))
        return subprocess.call(
            [sys.executable, os.path.join(here, "selftest.py"), exe(TARGETS[0]), exe(TARGETS[1]), OUT_DIR]
        )
    args = [exe(TARGETS[0]), *argv, "--cli", exe(TARGETS[1]), "--out", OUT_DIR,
            "--source-digest", source_digest()]
    c = commit()
    if c:
        args += ["--commit", c]
    sys.stdout.flush()
    os.execv(args[0], args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
