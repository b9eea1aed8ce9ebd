"""One workload in one process: set up, time the operations, check them.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Prints
one JSON object on its last line of standard output.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

# Set-up is measured from here, before emseg is imported.
T_START = time.perf_counter()


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import workloads
    import emseg
    import_s = time.perf_counter() - T_START
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(emseg.__file__).startswith(os.path.join(src, "")):
        sys.exit("emseg was imported from %s, not from %s" % (emseg.__file__, src))

    workload = workloads.WORKLOADS[args.workload]()
    rounds = max(1, round(args.seconds / workload.round_s))
    repeats = []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        ops = workload.inputs(args.seed, rounds)
        workload.warm_up()
        repeats.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(repeats)

    tracer = cache_before = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        cache_before = emseg.count._count_rec.cache_info()
        tracer.install()

    times, failed, problems = [], 0, []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = workload.run(op)
        except RecursionError:
            dt = time.perf_counter() - t0
            failed += 1
            if not op.may_fail:
                problems.append("%s: unexpected RecursionError" % op.label)
            times.append((dt, False))
            continue
        times.append((time.perf_counter() - t0, True))
        if tracer is not None:
            tracer.uninstall()  # the checks call emseg too; keep them out
        for problem in workload.check(op, result):
            problems.append("%s: %s" % (op.label, problem))
        del result
        if tracer is not None:
            tracer.install()
    timed_s = sum(dt for dt, _ in times)

    if tracer is not None:
        tracer.uninstall()
        metrics = tracing.layer_metrics(
            tracer, cache_before, emseg.count._count_rec.cache_info())
        extra = {"functions": tracer.table()}
    else:
        done = [dt for dt, ok in times if ok]
        metrics = {
            "ops_per_s": (len(done) / timed_s, "1/s"),
            "op_p50_ms": (statistics.median(done) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        extra = {"import_s": import_s, "setup_repeats_s": repeats}
    for problem in problems[:20]:
        print("check failed: " + problem, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "timed_s": timed_s,
        "rounds": rounds,
        "ops": [[op.label, dt * 1e3, ok] for op, (dt, ok) in zip(ops, times)],
        **extra,
    }))


if __name__ == "__main__":
    main()
