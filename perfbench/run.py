#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --rate 300 --workload compile-int --seed 1 --seconds 25 --trace 0

The Go build cache, temporary files, the binary and the run's cache files
all live in .bench_build/ under the repository root, so a run writes
nothing outside the checkout. The last line of standard output is the
result JSON; the exit status is the benchmark's (0 only when every output
was correct). Without the repository's Go sources beside this directory
the build fails and the script exits 2 without printing a result.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 175


def run(cmd, timeout, **kw):
    """Runs cmd to completion; on a timeout or a signal the child is
    killed and waited for before the exception propagates."""
    child = subprocess.Popen(cmd, **kw)
    try:
        return child.wait(timeout=timeout)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def terminate(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminate)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "TMPDIR": tmp,
        "GOTMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(BUILD, "bin", "perfbench")
    try:
        status = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT, cwd=HERE, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run([binary, "--workdir", workdir] + sys.argv[1:], RUN_TIMEOUT, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
