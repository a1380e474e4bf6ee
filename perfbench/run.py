#!/usr/bin/env python3
"""Build and run the macrosim performance benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (the library from src/ plus the
benchmark program) into .bench_build/perfbench, then runs the program
with the given arguments. Build output goes to stderr; the program's
stdout passes through unchanged, so its last line is the result
object.
Result files land in .bench_build/perfbench/results.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run(cmd):
    """Run cmd to completion, stdout redirected to our stderr."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    """Configure once, then build; the build re-globs src/ itself."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run(configure) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", BUILD, "-j", jobs]) == 0


def git_sha():
    """HEAD of the checkout, or "" when it is not a git repository."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir) or not shutil.which("git"):
        return ""
    out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else ""


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        return fail(f"no macrosim sources under {os.path.join(ROOT, 'src')}")
    if not build():
        return fail("build failed")
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), *argv]
    if "--self-test" not in argv:
        cmd += ["--reference", os.path.join(HERE, "reference_digests.txt"),
                "--out-dir", results, "--git-sha", git_sha()]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
