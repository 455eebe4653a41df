"""One worker process of the benchmark: set up one workload, run each of
its ops once, check every answer, and print a JSON report as the last
line of standard output.

The runner (``run.py``) starts it with ``src`` and this directory on
``PYTHONPATH``; it can also be run by hand:

    PYTHONPATH=src:perfbench python3 perfbench/worker.py --workload resolve --seed 1
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-file", help="trace the layers and write the spans here")
    ap.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    ap.add_argument("--small", action="store_true", help="reduced inputs (fast test)")
    args = ap.parse_args(argv)

    import checks
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    first = probe.mark()
    import workloads

    tracer = None
    if args.trace_file:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
    ops = workloads.build(args.workload, args.seed, args.small)
    setup_raw = time.thread_time()
    last = probe.mark()
    # the set-up runs from process start, so the first sample lies inside it
    setup_s = probe.corrected(setup_raw - probe.samples[first], first, last)
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    results, answers = [], []
    first = probe.mark()
    phase_start = time.thread_time()
    for op in ops:
        c0, w0 = time.thread_time(), time.perf_counter()
        try:
            answer, error = op.call(), None
        except Exception as ex:  # a failed op is counted, not fatal
            answer, error = None, f"{type(ex).__name__}: {ex}"
        results.append(
            {
                "name": op.name,
                "cpu_s": time.thread_time() - c0,
                "wall_s": time.perf_counter() - w0,
                "error": error,
            }
        )
        answers.append(answer)
    raw_cpu = time.thread_time() - phase_start
    last = probe.mark()
    probe.stop()
    cpu_s = probe.corrected(raw_cpu, first, last)
    peak_rss_mb = _rss_mb()

    wrong = []
    for op, r, answer in zip(ops, results, answers):
        if r["error"] is None:
            try:
                op.check(answer)
            except checks.CheckFailed as ex:
                wrong.append(f"{op.name}: {ex}")
    report = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "cpu_s": cpu_s,
        "cpu_raw_s": raw_cpu,
        "probe_mean_s": sum(probe.samples[first : last + 1]) / (last + 1 - first),
        "probes": last + 1 - first,
        "peak_rss_mb": peak_rss_mb,
        "ops": results,
        "wrong": wrong,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["missing_hooks"] = tracer.missing
        tracer.write(args.trace_file)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
