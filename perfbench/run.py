"""Benchmark runner for brisk.

    python3 perfbench/run.py --workload {certify,sweep,groebner,resolve,all}
                             --seed N --seconds S --trace {0,1} [--small]

Each run starts one worker process at a time (``worker.py``), each a
fresh single-threaded interpreter that sets up the workload, runs its ops
once and checks every answer.  Workers are started until the next one
would end after ``--seconds``; at least one always runs, so a run
attempts whole rounds of the same ops.  Set-up is also measured in extra
set-up-only workers until there are ten samples.  The runner reports
the median over its workers.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics ``cpu_s``, ``setup_s`` and ``peak_rss_mb``;
with ``--trace 1`` the workers wrap brisk's layers and the object holds
the per-layer metrics instead.  Per-op details of every worker go to
``perfbench/results/``.  ``--workload all`` runs the four workloads in
turn and prints a table.  ``--small`` runs reduced inputs in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("certify", "sweep", "groebner", "resolve")
SETUP_SAMPLES = 10
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["BRISK_PURE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {' '.join(args)} ran past the deadline")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)] + (["--small"] if small else [])
    os.makedirs(RESULTS, exist_ok=True)
    rounds = []
    while True:
        t0 = time.monotonic()
        extra = ["--trace-file", os.path.join(RESULTS, f"{name}.trace{len(rounds)}.json")] if trace else []
        rounds.append(_spawn(base + extra, deadline))
        now = time.monotonic()
        if now + (now - t0) > start + seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(base + ["--setup-only"], deadline)["setup_s"])

    failed = sum(op["error"] is not None for r in rounds for op in r["ops"])
    wrong = [w for r in rounds for w in r["wrong"]]
    if trace:
        metrics = {
            k: {"value": statistics.median(r["layers"][k] for r in rounds), "unit": _layer_unit(k)}
            for k in rounds[0]["layers"]
        }
        metrics["trace.cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"}
    else:
        metrics = {
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "rounds": rounds,
        "setup_samples": setups,
        "wall_s": time.monotonic() - start,
    }
    with open(os.path.join(RESULTS, f"{name}{'.traced' if trace else ''}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for w in wrong:
        print(f"{name}: wrong answer: {w}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }


def _layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="brisk benchmark runner")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced inputs, for the fast test")
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.small) for n in names}
    except WorkerFailed as ex:
        print(f"benchmark failed: {ex}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for n, r in results.items():
        shown = "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items())
        print(f"{n:9s} correct={r['correct']} attempted={r['attempted']} failed={r['failed']}  {shown}")
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
