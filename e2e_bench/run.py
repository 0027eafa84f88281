#!/usr/bin/env python3
"""Builds and runs the end-to-end NETMARK benchmark (see BENCHMARK.md).

Usage, from the root of a checkout:

  python3 e2e_bench/run.py --workload xdb_hot --seed 1 --seconds 16 --trace 0
  python3 e2e_bench/run.py --smoke

Builds e2e_bench/ (and with it the repository's sources) into the build
directory named by $CARGO_TARGET_DIR, default .bench_build, then runs the
benchmark binary in a scratch directory under it, which is removed
afterwards. The binary's last stdout line is the result JSON; everything
else goes to stderr. Exits non-zero, without a result, when the build or
the run fails.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_step(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(build_dir):
    if not os.path.exists(os.path.join(HERE, "..", "src", "core", "netmark.h")):
        fail("the NETMARK sources (src/) are not next to e2e_bench/")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_step(["cmake", "-S", HERE, "-B", build_dir] + generator)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", build_dir, "--target", "netmark_e2e", "-j", jobs])
    binary = os.path.join(build_dir, "netmark_e2e")
    if not os.path.exists(binary):
        fail("build produced no netmark_e2e")
    return binary


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    # Own process group, so a timeout stops the binary and all it started.
    proc = subprocess.Popen([binary] + sys.argv[1:] + ["--workdir", workdir],
                            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail("benchmark exited with %d" % proc.returncode)
    lines = [line for line in out.splitlines() if line.strip()]
    if "--smoke" not in sys.argv and (not lines or not lines[-1].startswith("{")):
        fail("benchmark printed no result line")
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
