"""shadowdyn benchmark entry point.

    python3 perfbench/run.py --workload symbolic-coding --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout; each benchmark process is fresh, so imports, lru caches and
peak memory are per workload.  One client issues the seeded job list
closed-loop in one single-threaded process (worker.py) and every output is
checked.

``--trace 0`` reports the end-to-end metrics.  Set-up is measured in three
fresh processes (two that only set up, then the measured run) and reported
as the median.  ``--trace 1`` runs a list a third as long, once plainly and
once with the library wrapped (tracing.py), and reports the per-layer
metrics, plus the tracing overhead as traced over untraced wall time.  The last stdout line
is the result object; a job that raises or fails its check counts in
``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs as joblist  # noqa: E402
import tracing  # noqa: E402

SETUP_ONLY_RUNS = 2
DEADLINE_S = 170.0
# The traced run keeps every span in memory (about 30 bytes each, millions
# per second of symbolic work), so it runs a list this many times shorter.
TRACE_SHRINK = 3


class WorkerError(RuntimeError):
    pass


def run_worker(args, role: str, trace: int, workdir: Path, deadline: float,
               spans: str = "", seconds: float = 0.0) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds or args.seconds),
           "--role", role, "--trace", str(trace), "--workdir", str(workdir)]
    if spans:
        cmd += ["--spans", spans]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"worker ({role}) exceeded the time limit") from err
    if proc.returncode != 0:
        raise WorkerError(f"worker ({role}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten jobs above it,
    with that percentile (the maximum when there are ten jobs or fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(joblist.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="sizes the job list: about this long at the seed commit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shadowdyn" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            seconds = args.seconds / TRACE_SHRINK
            plain = run_worker(args, "run", 0, workdir / "plain", deadline, seconds=seconds)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            traced = run_worker(args, "run", 1, workdir / "traced", deadline, str(spans),
                                seconds)
            runs = [plain, traced]
            layers = traced["layers"]
            layers["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(plain["latencies"])
            metrics = {name: {"value": value, "unit": tracing.unit(name)}
                       for name, value in layers.items()}
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            setups = [run_worker(args, "setup", 0, workdir / f"setup{i}", deadline)["setup_s"]
                      for i in range(SETUP_ONLY_RUNS)]
            main_run = run_worker(args, "run", 0, workdir / "run", deadline)
            runs = [main_run]
            setups.append(main_run["setup_s"])
            lat = main_run["latencies"]
            tail, pct = tail_latency(lat)
            print(f"{args.workload}: {len(lat)} jobs, {len(main_run['verify_latencies'])} "
                  f"verify jobs; job_tail_s is p{pct:.1f} of {len(lat)} jobs; "
                  f"setup_s is the median of {len(setups)} set-ups")
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": sum(lat), "unit": "s"},
                "job_p50_s": {"value": statistics.median(lat), "unit": "s"},
                "job_tail_s": {"value": tail, "unit": "s"},
                # no verify job runs only when the jobs it re-checks failed
                "verify_p50_s": {"value": statistics.median(main_run["verify_latencies"] or [0.0]),
                                 "unit": "s"},
                "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
            }
    except WorkerError as err:
        print(err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in runs for f in r["failures"]]
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    attempted = sum(len(r["latencies"]) for r in runs)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
