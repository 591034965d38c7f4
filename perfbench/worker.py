"""One benchmark process: set up a workload, run its seeded job list, check
every output and report the timings as one JSON line on stdout.

    python3 perfbench/worker.py --workload net-shadowing --seed 1 \
        --seconds 25 --role run --workdir .perfbench_work/x

``--role setup`` stops after set-up and reports only its time.  With
``--trace 1`` the library's public functions are wrapped (see tracing.py)
and the report carries per-layer counts and self times instead.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import contextlib
import io
import itertools
import json
import re
import resource
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import jobs as joblist  # noqa: E402
import oracles  # noqa: E402

F = Fraction


class CheckFailed(Exception):
    """A job's output does not match its independent check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def expect(ctx, key: str) -> dict:
    rec = ctx["expected"].get(key)
    require(rec is not None, f"no recorded expectation for {key!r}")
    return rec


# -- the library, imported from the checkout ---------------------------------


def import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import shadowdyn  # noqa: F401
    from shadowdyn import cli, io as sio
    return cli, sio


def clear_library_caches() -> None:
    """Empty the library's function caches, as a fresh CLI process has them."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("shadowdyn") and mod is not None:
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_cli(ctx, argv):
    clear_library_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ctx["cli"].main(argv)
    return rc, out.getvalue(), err.getvalue()


# -- set-up per workload --------------------------------------------------------


def setup_symbolic(ctx, jobs):
    for i, job in enumerate(j for j in jobs if j["kind"] == "approx"):
        path = ctx["workdir"] / f"components-{i}.json"
        path.write_text(json.dumps({"components": job["components"]}))
        job["components_file"] = str(path)


def setup_net(ctx, jobs):
    from shadowdyn import dense_shadowable_example, fig1_circle

    ctx["fig1"] = {n: fig1_circle(n) for n in (120, 240, 360)}
    ctx["layered"] = dense_shadowable_example(12)
    # the system file a third party re-checks counterexamples against
    ctx["net_file"] = ctx["workdir"] / "fig1-120.json"
    ctx["net_file"].write_text(json.dumps(ctx["sio"].system_to_json(ctx["fig1"][120])))


def setup_weak(ctx, jobs):
    from shadowdyn import EmpiricalMeasure, SymbolicSystem, TestFunctionFamily

    systems = {2: SymbolicSystem.full_shift(2), 3: SymbolicSystem.full_shift(3)}
    ctx["shifts"] = systems
    ctx["families"] = {k: TestFunctionFamily.for_system(s, size=24, depth=2)
                       for k, s in systems.items()}
    for job in jobs:
        if job["kind"] != "dstar":
            continue
        system = systems[job["k"]]
        measures = []
        for spec, name in zip((job["mu"], job["nu"]), job["files"]):
            start = system.periodic_closure(spec["word"], anchor=spec["anchor"])
            mu = EmpiricalMeasure.from_orbit(system, start, spec["n"])
            path = ctx["workdir"] / name
            path.write_text(json.dumps(ctx["sio"].measure_to_json(mu)))
            measures.append((mu, str(path)))
        job["measures"] = measures


SETUP = {"symbolic-coding": setup_symbolic, "net-shadowing": setup_net,
         "weak-star": setup_weak}


# -- symbolic-coding jobs -------------------------------------------------------


def run_horseshoe(ctx, job):
    return run_cli(ctx, ["horseshoe", "--system", job["system"],
                         "--base", json.dumps({"period": job["period"]}),
                         "--eps", job["eps"], "--delta", job["delta"],
                         "--words", str(job["words"])])


def check_horseshoe(ctx, job, result):
    rc, out, err = result
    rec = expect(ctx, job["key"])
    require(rc == rec["rc"], f"exit code {rc}, recorded {rec['rc']}: {err.strip()}")
    require(oracles.sha256(out) == rec["sha256"], "stdout digest differs from the record")
    if rc != 0:
        return None
    doc = json.loads(out)
    k = len(doc["loops"])
    coded = {tuple(c["word"]) for c in doc["coded"]}
    for length in range(1, job["words"] + 1):
        have = {w for w in coded if len(w) == length}
        require(have == oracles.all_words(k, length),
                f"certificate lacks some of the {k}^{length} words")
    path = ctx["workdir"] / job["cert"]
    path.write_text(out)
    return {"kind": "verify", "system": job["system"], "cert": str(path),
            "words": job["words"]}


def run_verify(ctx, job):
    return run_cli(ctx, ["verify", job["cert"], "--system", job["system"]])


def check_verify(ctx, job, result):
    rc, out, err = result
    require(rc == 0, f"verify exit code {rc}: {err.strip()}")
    report = json.loads(out)
    require(report["ok"] is True and all(report["checks"].values()),
            f"verify rejected the certificate: {report['checks']}")


def run_approx(ctx, job):
    return run_cli(ctx, ["approx", "--system", job["system"],
                         "--components", job["components_file"],
                         "--eps", job["eps"], "--words", str(job["words"])])


def check_approx(ctx, job, result):
    rc, out, err = result
    rec = expect(ctx, job["key"])
    require(rc == 0, f"approx exit code {rc}: {err.strip()}")
    require(oracles.sha256(out) == rec["sha256"], "stdout digest differs from the record")
    # read the top-level "total" without parsing the whole document, so the
    # benchmark's own objects do not set the peak memory of the run
    total = re.search(r'^ "total": "([^"]+)",?$', out, re.MULTILINE)
    require(total is not None, "no total in the output")
    require(F(total.group(1)) <= 5 * F(job["eps"]), "total exceeds 5 eps")


# -- net-shadowing jobs -----------------------------------------------------------


def run_positive(ctx, job):
    from shadowdyn import is_positively_shadowable_at

    net = ctx["fig1"][job["n"]]
    return is_positively_shadowable_at(net, job["x"], F(job["eps"]), F(job["delta"]),
                                       horizon=job["horizon"], budget=10 ** 7)


def run_resolution(ctx, job):
    from shadowdyn import has_shadowing_at_resolution

    return has_shadowing_at_resolution(ctx["fig1"][120], F(job["delta"]), F(job["eps"]),
                                       horizon=job["horizon"])


def check_report(ctx, job, rep):
    """Shared check of a net shadowability report against its record, and a
    follow-up job that re-checks a counterexample from its JSON form."""
    rec = expect(ctx, job["key"])
    require(rep.verdict == rec["verdict"], f"verdict {rep.verdict}, recorded {rec['verdict']}")
    if rep.counterexample is None:
        require(rec["counterexample"] is None, "recorded counterexample missing")
        return None
    # recorded verdicts put every counterexample on the 120-point net
    net = ctx["fig1"][120]
    pts = list(rep.counterexample.points)
    eps, delta = F(job["eps"]), F(job["delta"])
    require(oracles.is_pseudo_orbit(net.n, net.map, pts, delta),
            "counterexample is not a delta-pseudo-orbit")
    require(oracles.circle_shadow(net.n, net.map, pts, eps) is None,
            "counterexample has a shadow")
    require(rep.reverify_counterexample(net), "reverify_counterexample failed")
    text = json.dumps(ctx["sio"].orbit_to_json(rep.counterexample), sort_keys=True)
    require(oracles.sha256(text) == rec["counterexample"], "counterexample differs from the record")
    path = ctx["workdir"] / job["file"]
    path.write_text(text)
    return {"kind": "verify_counterexample", "file": str(path), "eps": job["eps"]}


def run_verify_counterexample(ctx, job):
    """Re-check a counterexample from the system file and its own file."""
    from shadowdyn import find_shadow

    sio = ctx["sio"]
    net = sio.system_from_json(sio.load(str(ctx["net_file"])))
    po = sio.orbit_from_json(sio.load(job["file"]), net)
    return find_shadow(net, po, F(job["eps"])), list(po.points)


def check_verify_counterexample(ctx, job, result):
    witness, pts = result
    require(witness is None, "re-checked counterexample has a shadow")
    net = ctx["fig1"][120]
    require(oracles.circle_shadow(net.n, net.map, pts, F(job["eps"])) is None,
            "reloaded counterexample has a shadow")


def run_find_shadow(ctx, job):
    from shadowdyn import crossing_pseudo_orbit, find_shadow, validate

    net = ctx["fig1"][job["n"]]
    delta = F(job["delta"])
    po = validate(crossing_pseudo_orbit(net, delta, job["variant"]), delta, net)
    return find_shadow(net, po, F(job["eps"])), list(po.points)


def check_find_shadow(ctx, job, result):
    witness, pts = result
    net = ctx["fig1"][job["n"]]
    eps = F(job["eps"])
    require(oracles.is_pseudo_orbit(net.n, net.map, pts, F(job["delta"])),
            "crossing orbit is not a delta-pseudo-orbit")
    if witness is None:
        oracle = oracles.circle_shadow(net.n, net.map, pts, eps)
        require(oracle is None, f"missed the shadow {oracle}")
    else:
        require(oracles.circle_shadows(net.n, net.map, witness.shadow_point, pts, eps),
                "returned point does not shadow")


def run_connect(ctx, job):
    from shadowdyn import connect

    return connect(job["a"], job["b"], F(job["delta"]), ctx["fig1"][job["n"]])


def check_connect(ctx, job, chain):
    net = ctx["fig1"][job["n"]]
    delta = F(job["delta"])
    steps = oracles.circle_shortest_chain(net.n, net.map, job["a"], job["b"], delta)
    if chain is None:
        require(steps is None, f"missed a chain of {steps} steps")
        return
    pts = list(chain.points)
    require(pts[0] == job["a"] and pts[-1] == job["b"], "chain has wrong endpoints")
    require(oracles.is_pseudo_orbit(net.n, net.map, pts, delta), "chain is not a delta-chain")
    require(len(pts) - 1 == steps, f"chain of {len(pts) - 1} steps, shortest is {steps}")


def _chain_net(ctx, name):
    if name == "layered-12":
        return ctx["layered"].net
    return ctx["fig1"][int(name.split("-")[1])]


def run_chain(ctx, job):
    from shadowdyn import build_chain_graph, decomposition

    net = _chain_net(ctx, job["net"])
    return [decomposition(build_chain_graph(net, F(d))) for d in job["deltas"]]


def check_chain(ctx, job, decs):
    net = _chain_net(ctx, job["net"])
    for d, dec in zip(job["deltas"], decs):
        if job["net"].startswith("fig1"):
            adj = oracles.circle_adjacency(net.n, net.map, F(d))
        else:
            adj = oracles.table_adjacency([net.row(i) for i in range(net.n)], net.map, F(d))
        recurrent, classes = oracles.chain_classes(adj)
        require(dec.recurrent_nodes == recurrent, f"chain-recurrent set differs at {d}")
        require(set(dec.classes) == classes, f"chain classes differ at {d}")


def run_chain_symbolic(ctx, job):
    from shadowdyn import build_chain_graph, decomposition

    system = ctx["cli"]._named_system(job["system"])
    graph = build_chain_graph(system, F(job["delta"]), depth=job["depth"])
    return graph, decomposition(graph)


def check_chain_symbolic(ctx, job, result):
    graph, dec = result
    net = graph.system
    adj = oracles.table_adjacency([net.row(i) for i in range(net.n)], net.map, F(job["delta"]))
    recurrent, classes = oracles.chain_classes(adj)
    require(dec.recurrent_nodes == recurrent, "chain-recurrent set differs")
    require(set(dec.classes) == classes, "chain classes differ")


def run_separated(ctx, job):
    from shadowdyn import separated_set

    net = ctx["fig1"][120]
    eps = F(job["eps"])
    return (separated_set(net, range(120), job["n_steps"], eps),
            separated_set(net, job["sample"], job["n_steps"], eps))


def check_separated(ctx, job, result):
    full, small = result
    net = ctx["fig1"][120]
    eps = F(job["eps"])
    rec = expect(ctx, job["key"])
    require(full.cardinality == rec["cardinality"],
            f"separated set of {full.cardinality}, recorded {rec['cardinality']}")
    pts = list(full.witness)
    require(len(pts) == full.cardinality, "witness size differs from the count")
    require(len(set(pts)) == len(pts), "witness repeats a point")
    for a, b in itertools.combinations(pts, 2):
        require(oracles.circle_separated(net.n, net.map, a, b, job["n_steps"], eps),
                f"witness points {a} and {b} are not separated")
    brute = oracles.brute_max_separated(net.n, net.map, job["sample"], job["n_steps"], eps)
    require(small.cardinality == brute, f"sample maximum {small.cardinality}, brute force {brute}")


def run_net_entropy(ctx, job):
    from shadowdyn import entropy_estimate

    return entropy_estimate(ctx["fig1"][120], F(job["eps"]), job["n_range"])


def check_net_entropy(ctx, job, est):
    for (n, count), key in zip(est.entries, job["keys"]):
        rec = expect(ctx, key)
        require(count == rec["cardinality"], f"S({n}) = {count}, recorded {rec['cardinality']}")


# -- weak-star jobs -----------------------------------------------------------------

# trials of each verify_measure_approx batch whose d* values are re-evaluated
REPLAYED_TRIALS = 2


def run_measure_approx(ctx, job):
    from shadowdyn import TestFunctionFamily, verify_measure_approx

    system = ctx["shifts"][job["k"]]
    family = TestFunctionFamily.for_system(system, size=24, depth=2)
    return verify_measure_approx(system, family, trials=job["trials"], seed=job["seed"]), family


def check_measure_approx(ctx, job, result):
    """Beyond the batch's own verdict, re-evaluate the d* values of its first
    trials with the independent sum.  The same seed replays the same trials,
    so the library's d* calls are recorded on a replay of those trials."""
    from shadowdyn import measures

    report, family = result
    require(report.trials == job["trials"], "wrong trial count")
    require(report.ok, f"{len(report.violations)} violations of the inequalities")
    library_dstar = measures.dstar
    calls = []

    def recording_dstar(mu, nu, fam, *args, **kwargs):
        res = library_dstar(mu, nu, fam, *args, **kwargs)
        calls.append((mu, nu, fam, res.value))
        return res

    measures.dstar = recording_dstar
    try:
        measures.verify_measure_approx(ctx["shifts"][job["k"]], family,
                                       trials=REPLAYED_TRIALS, seed=job["seed"])
    finally:
        measures.dstar = library_dstar
    require(calls, "the replayed trials evaluated no d*")
    for mu, nu, fam, value in calls:
        oracle = oracles.dstar(mu.atoms, nu.atoms, fam.centers, fam.radii, fam.size)
        require(value == oracle, f"trial d* = {value}, independent sum {oracle}")


def run_dstar(ctx, job):
    from shadowdyn import dstar

    (mu, _), (nu, _) = job["measures"]
    return dstar(mu, nu, ctx["families"][job["k"]])


def check_dstar(ctx, job, res):
    family = ctx["families"][job["k"]]
    (mu, mu_file), (nu, nu_file) = job["measures"]
    oracle = oracles.dstar(mu.atoms, nu.atoms, family.centers, family.radii, family.size)
    require(res.value == oracle, f"d* = {res.value}, independent sum {oracle}")
    require(res.tail_bound == F(2, 1 << family.size), "wrong tail bound")
    return {"kind": "verify_dstar", "k": job["k"], "mu": mu_file, "nu": nu_file,
            "value": ctx["sio"].frac_str(res.value)}


def run_verify_dstar(ctx, job):
    return run_cli(ctx, ["dstar", "--system", f"fullshift:{job['k']}",
                         "--mu", job["mu"], "--nu", job["nu"], "--terms", "24"])


def check_verify_dstar(ctx, job, result):
    rc, out, err = result
    require(rc == 0, f"dstar exit code {rc}: {err.strip()}")
    require(json.loads(out)["value"] == job["value"], "CLI d* differs from the library value")


def _lemma_construction(ctx, job):
    from shadowdyn.measures import build_periodic_block_concatenation

    s = ctx["shifts"][2]
    a, b = (1, 0) if job["swap"] else (0, 1)
    return build_periodic_block_concatenation(
        s, [s.fixed_point(a), s.point((a, b))], F(1, 4), job["n"],
        rounds=job["rounds"], connector_bound=4)


def run_empirical_lemma(ctx, job):
    from shadowdyn import verify_empirical_lemma

    return verify_empirical_lemma(_lemma_construction(ctx, job), ctx["families"][2])


def check_empirical_lemma(ctx, job, report):
    rec = expect(ctx, job["key"])
    require(report.ok, "empirical lemma violated")
    values = [ctx["sio"].frac_str(v) for _, _, v in report.per_round]
    require(values == rec["values"], "per-round d* values differ from the record")


def run_cylinders(ctx, job):
    from shadowdyn import max_separated_cylinders

    return max_separated_cylinders(ctx["shifts"][job["k"]], job["n"], F(job["eps"]))


def check_cylinders(ctx, job, res):
    k, n = job["k"], job["n"]
    width = n + 2 * oracles.separation_window(F(job["eps"])) + 1
    require(res.cardinality == k ** width, f"S = {res.cardinality}, expected {k}^{width}")
    if res.witness:
        require(len(res.witness) == res.cardinality, "witness size differs from the count")


def run_shift_entropy(ctx, job):
    from shadowdyn import entropy_estimate

    system = ctx["cli"]._named_system(job["system"])
    lo, hi = job["n_range"]
    return system, entropy_estimate(system, F(job["eps"]), range(lo, hi + 1))


def check_shift_entropy(ctx, job, result):
    system, est = result
    tp = oracles.separation_window(F(job["eps"]))
    for n, count in est.entries:
        want = oracles.count_words(system.transitions, n + 2 * tp + 1)
        require(count == want, f"S({n}) = {count}, enumeration gives {want}")


JOBS = {
    "horseshoe": (run_horseshoe, check_horseshoe),
    "verify": (run_verify, check_verify),
    "approx": (run_approx, check_approx),
    "positive": (run_positive, check_report),
    "resolution": (run_resolution, check_report),
    "verify_counterexample": (run_verify_counterexample, check_verify_counterexample),
    "find_shadow": (run_find_shadow, check_find_shadow),
    "connect": (run_connect, check_connect),
    "chain": (run_chain, check_chain),
    "chain_symbolic": (run_chain_symbolic, check_chain_symbolic),
    "separated": (run_separated, check_separated),
    "net_entropy": (run_net_entropy, check_net_entropy),
    "measure_approx": (run_measure_approx, check_measure_approx),
    "dstar": (run_dstar, check_dstar),
    "verify_dstar": (run_verify_dstar, check_verify_dstar),
    "empirical_lemma": (run_empirical_lemma, check_empirical_lemma),
    "cylinders": (run_cylinders, check_cylinders),
    "shift_entropy": (run_shift_entropy, check_shift_entropy),
}
VERIFY_KINDS = ("verify", "verify_counterexample", "verify_dstar")
CLI_KINDS = ("horseshoe", "approx", "verify", "verify_dstar")


def run_jobs(ctx, jobs, tracer=None):
    """Run the list closed-loop; each follow-up job runs right after the job
    that produced its input.  Returns (latencies, verify latencies,
    failures)."""
    latencies, verify_latencies, failures = [], [], []
    queue = list(reversed(jobs))
    while queue:
        job = queue.pop()
        run, check = JOBS[job["kind"]]
        if tracer is not None:
            tracer.job_id = len(latencies) + 1
        t0 = time.perf_counter()
        try:
            result = run(ctx, job)
        except Exception as err:  # a job that raises is a failed job
            latencies.append(time.perf_counter() - t0)
            failures.append(f"{job['kind']}: raised {err!r}")
            continue
        latencies.append(time.perf_counter() - t0)
        if job["kind"] in VERIFY_KINDS:
            verify_latencies.append(latencies[-1])
        if tracer is not None:
            tracer.job_id = 0
            if job["kind"] in CLI_KINDS:
                tracer.count("io.bytes_out", len(result[1].encode()))
        try:
            follow = check(ctx, job, result)
        except Exception as err:  # includes CheckFailed and malformed records
            failures.append(f"{job['kind']} {job.get('key', '')}: {err}")
            continue
        if follow is not None:
            queue.append(follow)
    return latencies, verify_latencies, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(joblist.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "run"), default="run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    jobs = joblist.job_list(args.workload, args.seed, args.seconds)
    expected = json.loads((HERE / "expected.json").read_text())
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    cli, sio = import_library()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ctx = {"cli": cli, "sio": sio, "workdir": workdir, "expected": expected}
    SETUP[args.workload](ctx, jobs)
    setup_s = time.perf_counter() - T0
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, verify_latencies, failures = run_jobs(ctx, jobs, tracer)
    report = {
        "setup_s": setup_s,
        "latencies": latencies,
        "verify_latencies": verify_latencies,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
