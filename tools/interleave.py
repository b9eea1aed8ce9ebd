"""Time a benchmark workload in one process, operation by operation,
against the emseg package of a git revision.

    python3 tools/interleave.py --parent REV --workload W --seed S --rounds N

The package at REV is exported with git archive into a temporary
directory as the package emseg_parent; emseg imports its own modules only
relatively, so it runs under that name.  The other side is src/emseg
beside this file's directory.  Each side builds its own operations from
bench/workloads.py, loaded once per side with the module's emseg pointed
at that side's package, so that no input or row table is shared.  Each
operation runs on both sides back to back, the side that goes first
alternating, and workload.check runs on both results.

One JSON line is printed: the median ratio change/parent of the
operations' times, its quartiles, how many operations the change ran
faster, and each side's total time in seconds.  Pin the run to one CPU
(taskset -c 1) for steadier pairs.  It backs a claim measured with
bench/run.py; it does not replace it.
"""

import argparse
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def export(rev, into):
    """Export src/emseg at the git revision rev into the directory into,
    as the package emseg_parent, and import it."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev + ":src/emseg"],
        check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(Path(into) / "emseg_parent", filter="data")
    sys.path.insert(0, str(into))
    importlib.import_module("emseg_parent.cli")
    return importlib.import_module("emseg_parent")


def workload_of(name, package, module_name):
    """A new instance of the workload name from a fresh load of
    bench/workloads.py whose emseg is package."""
    spec = importlib.util.spec_from_file_location(
        module_name, BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.emseg = package
    return module.WORKLOADS[name]()


def timed(workload, op):
    """Run op, check its result, and return the seconds the run took."""
    t0 = time.perf_counter()
    result = workload.run(op)
    dt = time.perf_counter() - t0
    problems = workload.check(op, result)
    if problems:
        sys.exit("%s: %s" % (op.label, "; ".join(problems)))
    return dt


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare with")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=1)
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import emseg
    import emseg.cli  # noqa: F401  (count-query calls emseg.cli.run)

    with tempfile.TemporaryDirectory() as tmp:
        parent = export(args.parent, tmp)
        sides = {}
        for label, package in (("parent", parent), ("change", emseg)):
            workload = workload_of(args.workload, package, "workloads_" + label)
            ops = workload.inputs(args.seed, args.rounds)
            workload.warm_up()
            sides[label] = workload, ops
        labels = [[op.label for op in sides[s][1]] for s in sides]
        if labels[0] != labels[1]:
            sys.exit("the two sides built different operations")

        totals = {"parent": 0.0, "change": 0.0}
        ratios = []
        for n in range(len(labels[0])):
            order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
            dt = {}
            for s in order:
                workload, ops = sides[s]
                dt[s] = timed(workload, ops[n])
                totals[s] += dt[s]
            ratios.append(dt["change"] / dt["parent"])

    q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else ratios * 3)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": args.rounds,
        "parent": args.parent, "ops": len(ratios),
        "median_ratio": round(median, 4), "q1": round(q1, 4),
        "q3": round(q3, 4), "faster": sum(r < 1 for r in ratios),
        "parent_s": round(totals["parent"], 4),
        "change_s": round(totals["change"], 4),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
