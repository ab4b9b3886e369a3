#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload table1_round|fleet_stream|serve_under_train \
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

The build goes to $CARGO_TARGET_DIR (default: .bench_build). Every workload
runs in its own process with KINET_THREADS=2. The binary's standard output
is passed through; its last line is the JSON result. Result records and
span files are written to <target dir>/perfbench-out/. The exit code is the
binary's: non-zero when the build fails or an output check fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = "2"


def rustc_version():
    try:
        out = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_identity():
    """The git commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "vendor", "perfbench"]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for path in paths:
            if path.endswith((".rs", ".toml", ".lock", ".py")):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    env.update(
        KINET_THREADS=THREADS,
        PERFBENCH_RUSTC=rustc_version(),
        PERFBENCH_COMMIT=source_identity(),
    )
    exe = os.path.join(target, "release", "perfbench")
    args = ["--out-dir", out_dir] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
