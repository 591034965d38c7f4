"""Record the expected outputs that worker.py checks against.

    python3 perfbench/record.py

Runs every input the job templates in jobs.py can generate and writes
perfbench/expected.json: stdout digests and exit codes of CLI jobs,
verdicts and counterexample digests of shadowability reports, separated-set
maxima and per-round weak* values.  Run it only on a commit whose outputs
are known good; the benchmark then flags any later change to them.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as J  # noqa: E402
import oracles  # noqa: E402
import worker as W  # noqa: E402


def menu():
    for cls, (eps, delta), words in sorted(set(J.SYMBOLIC_TEMPLATE)):
        system, bases = J.BASES[cls]
        for period in bases:
            yield {"kind": "horseshoe", "system": system, "period": period, "eps": eps,
                   "delta": delta, "words": words,
                   "key": J.horseshoe_key(system, period, eps, delta, words)}
    for target in J.APPROX_TARGETS:
        yield {"kind": "approx", "system": target[0],
               "components": [[{"period": list(p)}, w] for p, w in target[1:]],
               "eps": "1/5", "words": J.APPROX_WORDS,
               "key": J.approx_key(target, J.APPROX_WORDS)}
    for n, (eps, delta), points in J.POSITIVE_CLASSES.values():
        for x in points:
            yield {"kind": "positive", "n": n, "x": x, "eps": eps, "delta": delta,
                   "horizon": 10, "key": J.positive_key(n, x, eps, delta)}
    eps, delta, horizon = J.RESOLUTION
    yield {"kind": "resolution", "eps": eps, "delta": delta, "horizon": horizon,
           "key": J.resolution_key(eps, delta, horizon)}
    for n_steps in (1, 2, 3):
        for eps in ("1/20", "1/10", "1/5"):
            yield {"kind": "separated", "n_steps": n_steps, "eps": eps, "sample": [0],
                   "key": J.separated_key(n_steps, eps)}
    for swap in (0, 1):
        yield {"kind": "empirical_lemma", "rounds": 4, "n": 48, "swap": swap,
               "key": J.lemma_key(4, 48, swap)}


def record(ctx, job, result):
    kind = job["kind"]
    if kind in ("horseshoe", "approx"):
        rc, out, _ = result
        return {"rc": rc, "sha256": oracles.sha256(out)}
    if kind in ("positive", "resolution"):
        cx = None
        if result.counterexample is not None:
            cx = oracles.sha256(json.dumps(ctx["sio"].orbit_to_json(result.counterexample),
                                           sort_keys=True))
        return {"verdict": result.verdict, "counterexample": cx,
                "states": result.stamps["states"]}
    if kind == "separated":
        return {"cardinality": result[0].cardinality}
    if kind == "empirical_lemma":
        return {"values": [ctx["sio"].frac_str(v) for _, _, v in result.per_round]}
    raise ValueError(kind)


def main() -> int:
    expected = {}
    cli, sio = W.import_library()
    workdir = W.ROOT / ".perfbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = {"cli": cli, "sio": sio, "workdir": workdir, "expected": expected}
        jobs = list(menu())
        W.setup_net(ctx, jobs)
        W.setup_weak(ctx, jobs)
        W.setup_symbolic(ctx, jobs)
        for job in jobs:
            run, _ = W.JOBS[job["kind"]]
            t0 = time.perf_counter()
            result = run(ctx, job)
            expected[job["key"]] = record(ctx, job, result)
            print(f"{time.perf_counter() - t0:8.3f}s {job['key']} {expected[job['key']]}",
                  flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
