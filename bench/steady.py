"""Steadiness check: two sets of runs of the same code, compared.

    python3 bench/steady.py --runs 10 [--workload count-query ...]

For each workload it makes 2 x RUNS runs of bench/run.py, alternating
between set A (seeds 1..RUNS) and set B (seeds 101..100+RUNS), at the run
length BENCHMARK.json fixes.  For every end-to-end metric it reports each
set's median and its spread (quartile distance over the median, by
``statistics.quantiles(values, n=4)``), and the change of B's median
against A's in the metric's worse direction.  It passes when every spread
but that of setup_s and every change stay within the metric's bound, and
the share of failed operations is the same in every run.  The table goes to
standard output and to BENCH_steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=180)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)

    report, ok = {}, True
    for name in args.workload or names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for label, seed in (("A", 1 + i), ("B", 101 + i)):
                result = one_run(name, seed, spec["run_seconds"])
                ok = ok and result["correct"]
                sets[label].append(result)
                print("%s %s seed %d: %s" % (name, label, seed, json.dumps(
                    {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
                    file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for s in sets.values() for r in s}
        ok = ok and len(shares) == 1
        rows = {}
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [r["metrics"][key]["value"] for r in sets["A"]]
            b = [r["metrics"][key]["value"] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            row = {"median_A": ma, "median_B": mb, "spread_A": spread(a),
                   "spread_B": spread(b), "worse_B_vs_A": worse, "bound": bound}
            row["ok"] = worse <= bound and (
                key == "setup_s" or max(row["spread_A"], row["spread_B"]) <= bound)
            ok = ok and row["ok"]
            rows[key] = row
        report[name] = {"runs_per_set": args.runs, "failed_shares": sorted(shares),
                        "metrics": rows}
        print("\n%s (%d runs per set, failed share %s)"
              % (name, args.runs, ", ".join("%.4f" % s for s in sorted(shares))))
        print("%-12s %12s %12s %9s %9s %9s %6s %s" % (
            "metric", "median A", "median B", "spread A", "spread B",
            "B worse", "bound", "ok"))
        for key, row in rows.items():
            print("%-12s %12.4f %12.4f %8.1f%% %8.1f%% %8.1f%% %5.0f%% %s" % (
                key, row["median_A"], row["median_B"], 100 * row["spread_A"],
                100 * row["spread_B"], 100 * row["worse_B_vs_A"],
                100 * row["bound"], row["ok"]))
    with open(os.path.join(ROOT, "BENCH_steady.json"), "w") as f:
        json.dump(report, f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
