"""Benchmark entry point.

    python3 bench/run.py --workload closure-bfs --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  Each workload runs in its own
single-threaded worker process (bench/worker.py), against the package in
src/, after its bytecode has been compiled.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload untraced and then traced
and prints the per-layer metrics, with the tracing overhead in the trace
file.  Without ``--workload`` every workload runs, one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results are also
written to BENCH_<workload>.json and BENCH_trace_<workload>.json.
"""

import argparse
import compileall
import json
import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("closure-bfs", "enumerate-build", "count-query")
# One workload, its workers included, ends within this many seconds.
DEADLINE_S = 165


def run_worker(workload, seed, seconds, trace, deadline):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker for %s exited with code %d"
                           % (workload, proc.returncode))
    return json.loads(lines[-1])


def summary(result):
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def bench(workload, seed, seconds, trace, deadline):
    plain = run_worker(workload, seed, seconds, 0, deadline)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "python": sys.version.split()[0]}
    if not trace:
        record.update(plain)
        path = "BENCH_%s.json" % workload
        out = summary(plain)
    else:
        traced = run_worker(workload, seed, seconds, 1, deadline)
        record.update(untraced_timed_s=plain["timed_s"],
                      traced_timed_s=traced["timed_s"],
                      overhead_ratio=traced["timed_s"] / plain["timed_s"],
                      **traced)
        path = "BENCH_trace_%s.json" % workload
        out = summary(traced)
        out["correct"] = plain["correct"] and traced["correct"]
        print("tracing overhead on %s: %.2fx (%.2f s traced, %.2f s untraced)"
              % (workload, record["overhead_ratio"], traced["timed_s"],
                 plain["timed_s"]), file=sys.stderr)
    with open(os.path.join(ROOT, path), "w") as f:
        json.dump(record, f, indent=1)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload; all of them when left out")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20,
                   help="sizes the fixed operation list to about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "emseg", "__init__.py")):
        print("no emseg package under %s" % SRC, file=sys.stderr)
        return 2
    for path in (SRC, BENCH):
        if not compileall.compile_dir(path, quiet=1):
            print("could not compile %s" % path, file=sys.stderr)
            return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            out = bench(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print("%s: %s" % (name, e), file=sys.stderr)
            return 1
        if not args.workload:
            out = {"workload": name, **out}
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
