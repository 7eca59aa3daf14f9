#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny scale (under a minute).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json, that:
  * --trace 0 reports exactly the end-to-end metrics and --trace 1 exactly
    the per-layer metrics of BENCHMARK.json, with their units;
  * an unperturbed run has failed == 0 and correct == true;
  * --perturb, which corrupts one checked output, is counted as exactly one
    failed op with correct == false;
and that a pool wider than the host is refused (exit 2, no result line).
Exits 0 when every check holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--seed", "7",
               "--seconds", "1", "--scale", "tiny"] + list(args)
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, result = run("--workload", name, "--trace", trace)
            check(code == 0 and result is not None, "%s --trace %s exits 0 with a result" % (name, trace))
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, "%s --trace %s reports exactly the %s metrics" % (name, trace, kind))
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  "%s --trace %s: every op checks out" % (name, trace))
        code, result = run("--workload", name, "--trace", "0", "--perturb")
        check(code == 0 and result is not None and result["failed"] == 1
              and not result["correct"],
              "%s --perturb counts exactly one failed op" % name)

    # A pool as wide as the host is oversubscribed: its workers plus the
    # calling thread need one CPU more than there are.
    code, result = run("--workload", "snapshot", "--trace", "0",
                       "--threads", str(len(os.sched_getaffinity(0))))
    check(code == 2 and result is None, "an oversubscribed pool is refused")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
