#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

    python3 perfbench/run.py --workload snapshot|series|ingest --seed N \
        --seconds S --trace 0|1 [--threads T] [--scale tiny|default] \
        [--perturb]

Configures and builds perfbench/ (the repository's src/ layers plus the
benchmark's own C++ files) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs
manrs_perfbench with the same arguments. Build output goes to stderr; the
benchmark's stdout passes through unchanged, so its last line is the result
JSON. With --trace 1 the Chrome trace lands next to the binary as
trace-<workload>-<seed>.json. See perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build(out):
    """Configure and build; returns the binary path or None."""
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return None
    make = ["cmake", "--build", out, "-j", jobs(), "--target", "manrs_perfbench"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "manrs_perfbench")


def git_rev():
    # The ceiling keeps git from searching above the checkout for a repo.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(args):
    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [binary] + args + ["--git-rev", git_rev()]
    if option(args, "--trace") == "1":
        trace = "trace-%s-%s.json" % (option(args, "--workload"), option(args, "--seed"))
        command += ["--trace-out", os.path.join(out, trace)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
