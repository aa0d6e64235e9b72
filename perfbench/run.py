#!/usr/bin/env python3
"""Build and run the IdleRed benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. The harness (perfbench/, a CMake project
over the library sources in src/) is configured and built on first use
under $CARGO_TARGET_DIR (default .bench_build), its self-tests run, and then
one workload runs for the given seed and time budget. The harness's output
is passed through; its last line is the JSON result. Usage errors exit 2;
a failed build, self-test or run exits non-zero without a result line.
"""
import os
import re
import signal
import subprocess
import sys

WORKLOADS = ("serve_study", "serve_100k", "serve_durable", "engine_sweep")
FLAGS = ("--workload", "--seed", "--seconds", "--trace")
USAGE = ("usage: run.py --workload <%s> --seed <n> --seconds <1..60> "
         "--trace <0|1>" % "|".join(WORKLOADS))
RUN_TIMEOUT_S = 170


def usage_error(message):
    print("run.py: %s\n%s" % (message, USAGE), file=sys.stderr)
    sys.exit(2)


def parse(argv):
    if len(argv) % 2:
        usage_error("every flag takes exactly one value")
    args = {}
    for flag, value in zip(argv[0::2], argv[1::2]):
        if flag not in FLAGS:
            usage_error("unknown argument %r" % flag)
        if flag in args:
            usage_error("%s given more than once" % flag)
        args[flag] = value
    for flag in FLAGS:
        if flag not in args:
            usage_error("%s is required" % flag)
    if args["--workload"] not in WORKLOADS:
        usage_error("unknown workload %r" % args["--workload"])
    for flag in ("--seed", "--seconds"):
        if not re.fullmatch(r"[0-9]+", args[flag]):
            usage_error("%s: expected a non-negative integer" % flag)
    if not 1 <= int(args["--seconds"]) <= 60:
        usage_error("--seconds: must be in 1..60")
    if args["--trace"] not in ("0", "1"):
        usage_error("--trace: expected 0 or 1")
    return args


def build(source_dir, build_dir):
    """Configure (once) and build the harness; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            sys.exit(1)


def main():
    args = parse(sys.argv[1:])
    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    work_dir = os.path.abspath(os.path.join(build_root, "perfbench-work"))
    build(source_dir, build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        print("run.py: benchmark self-test failed", file=sys.stderr)
        sys.exit(1)

    cmd = [os.path.join(build_dir, "perfbench")]
    for flag in FLAGS:
        cmd += [flag, args[flag]]
    cmd += ["--work", work_dir]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        # Never leave the harness running behind a stopped runner.
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
