#!/usr/bin/env python3
"""Result sets of the repository benchmark: record, summarise, compare.

    python3 perfbench/sets.py sweep --workloads snapshot,series,ingest \
        --seeds 1-10 --out a.jsonl
    python3 perfbench/sets.py spread a.jsonl
    python3 perfbench/sets.py compare a.jsonl b.jsonl

A result set is a JSON-lines file, one line per run:
{"workload", "seed", "fingerprint", "segments", "result"}, where "segments"
holds the run's per-segment summary lines and "result" its last stdout
line. `sweep` runs perfbench/run.py once per (workload, seed), with
--trace 0 and BENCHMARK.json's run_seconds, and appends to --out.
`spread` prints, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json. `compare` prints each side's median and quartiles and flags
a pair as REGRESSION when the second side's median is worse than the first's
by more than the bound, as "unresolved" when either side's spread exceeds
the bound, and exits 1 on any regression.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def sweep(args):
    seconds = load_benchmark()["run_seconds"]
    with open(args.out, "a") as out:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                command = [sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(command, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stderr[-2000:])
                    sys.exit("sweep: %s seed %d exited %d"
                             % (workload, seed, proc.returncode))
                fingerprint = next((json.loads(l.split(" ", 1)[1]) for l in lines
                                    if l.startswith("fingerprint ")), {})
                segments = [l for l in lines if l.startswith("segment ")]
                record = {"workload": workload, "seed": seed, "fingerprint": fingerprint,
                          "segments": segments, "result": json.loads(lines[-1])}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print("%s seed %d: %s" % (workload, seed, lines[-1]), file=sys.stderr)
    summarise([args.out])


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], []).append(r["result"])
    return runs


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarise(paths):
    bench = load_benchmark()
    runs = {}
    for path in paths:
        for workload, results in load(path).items():
            runs.setdefault(workload, []).extend(results)
    worst = 0.0
    for workload, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print("%s: %d runs, failed_op_ratio %d/%d" % (workload, len(results), failed, attempted))
        for m in bench["end_to_end"]:
            med, q1, q3, spread = stats([r["metrics"][m["name"]]["value"] for r in results])
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print("  %-12s median %12.4f %-4s q1 %12.4f q3 %12.4f spread %6.2f%% "
                  "(%.2f of bound %.2f)%s"
                  % (m["name"], med, m["unit"], q1, q3, 100 * spread, share, m["bound"],
                     "  NOISY" if share > 1 / 3 else ""))
    print("largest spread/bound (setup_s excluded): %.2f" % worst)


def compare(args):
    bench = load_benchmark()
    a, b = load(args.a), load(args.b)
    regressions = 0
    print("%-9s %-12s %28s %28s %8s  verdict" % ("workload", "metric", "A median [q1, q3]",
                                                 "B median [q1, q3]", "change"))
    for workload in sorted(set(a) & set(b)):
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sa = stats([r["metrics"][name]["value"] for r in a[workload]])
            sb = stats([r["metrics"][name]["value"] for r in b[workload]])
            change = (sb[0] - sa[0]) / sa[0] if sa[0] else 0.0
            worse = change if m["better"] == "lower" else -change
            if max(sa[3], sb[3]) > bound:
                verdict = "unresolved (spread above bound %.2f)" % bound
            elif worse > bound:
                verdict = "REGRESSION (bound %.2f)" % bound
                regressions += 1
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "within bound"
            print("%-9s %-12s %10.3f [%7.3f, %7.3f] %10.3f [%7.3f, %7.3f] %+7.1f%%  %s"
                  % (workload, name, sa[0], sa[1], sa[2], sb[0], sb[1], sb[2],
                     100 * change, verdict))
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("spread")
    p.add_argument("files", nargs="+")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args()
    if args.command == "sweep":
        sweep(args)
    elif args.command == "spread":
        summarise(args.files)
    else:
        sys.exit(compare(args))


if __name__ == "__main__":
    main()
