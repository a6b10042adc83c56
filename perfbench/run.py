#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep_exact --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
package in perfbench/ into the build directory ($CARGO_TARGET_DIR, default
.bench_build); later runs only rebuild what changed. Build output goes to
stderr; the last stdout line of the benchmark program is the JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit_id():
    """The git commit when the checkout has one; otherwise a digest of the
    sources the benchmark builds, so a result still names its code."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10, check=False)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for folder, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench", "soctest_serve_tool", "soctest_frontdoor_tool"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no solver sources next to perfbench/", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # Relative paths keep the fleet's Unix socket paths short.
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    # Flush the build's writes now rather than during the timed window.
    os.sync()

    work_dir = os.path.join(build_dir, "fleet")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--bin-dir", build_dir, "--work-dir", work_dir,
               "--commit", commit_id()]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(build_dir, f"trace-{args.workload}.json")]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
