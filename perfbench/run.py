#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload point-ln-1m --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR or .bench_build; later runs rebuild incrementally.
Build output goes to stderr; the program's stdout is passed through, so
its last line is the result JSON.  Exits with the program's status, or 1
when the build fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("point-ln-1m", "point-tcp-ln-20k", "ingest-probe", "join-ln-200k")


def source_id():
    """Commit id when the checkout is a git repository, else a hash of
    the sources the program is built from."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=True)
            return head.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "--target",
                   "fbf_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=log, stderr=log).returncode != 0:
        return None
    return build_dir / "fbf_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: no fbf sources under src/ in " + str(ROOT),
              file=sys.stderr)
        return 1
    binary = build(build_root / "perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--commit", source_id()]
    return subprocess.run(command, cwd=ROOT, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
