"""Seeded job lists for the three workloads.

A workload is a fixed template of job slots.  Each slot names a job kind and
a class of inputs that cost about the same at the seed commit (bases equal up
to a symbol permutation or a rotation, net points in the interior of the same
arc).  The seed picks the concrete input of every slot, so two seeds give
different inputs with the same cost profile, and the template is repeated a
number of times fixed by ``--seconds``.  The work done is therefore fixed by
(seed, seconds) and never by how fast the program runs.

This module imports nothing from the library: job lists are plain data.
"""

from __future__ import annotations

import itertools
import random

ED_COARSE = ("1/5", "1/32")
ED_FINE = ("1/9", "1/64")


def _rotations(words):
    out = []
    for w in words:
        for i in range(len(w)):
            r = list(w[i:] + w[:i])
            if r not in out:
                out.append(r)
    return out


def _two_letter(alphabet, pattern):
    """Every substitution of distinct symbols a != b into a pattern over
    'a'/'b', with all rotations."""
    words = []
    for a, b in itertools.permutations(range(alphabet), 2):
        words.append(tuple(a if c == "a" else b for c in pattern))
    return _rotations(words)


# Horseshoe base classes: periodic bases of period <= 3 whose jobs cost about
# the same (symbol permutations and rotations of one orbit type).
BASES = {
    "fs2-p1": ("fullshift:2", [[0], [1]]),
    "fs2-p2": ("fullshift:2", _two_letter(2, "ab")),
    "fs2-p3": ("fullshift:2", _two_letter(2, "aab")),
    "fs3-p1": ("fullshift:3", [[0], [1], [2]]),
    "fs3-p2": ("fullshift:3", _two_letter(3, "ab")),
    "fs3-p3": ("fullshift:3", _two_letter(3, "aab")),
    "gm-p1": ("goldenmean", [[0]]),
    "gm-p2": ("goldenmean", [[0, 1], [1, 0]]),
    "gm-p3": ("goldenmean", [[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
}

# Two-component periodic targets of the approximation pipeline, all about
# 3 s and 8 MB of output at --words 1.
APPROX_TARGETS = (
    ("fullshift:2", ((0,), "1/2"), ((0, 1), "1/2")),
    ("fullshift:2", ((1,), "1/2"), ((1, 0), "1/2")),
    ("fullshift:2", ((0,), "1/2"), ((1,), "1/2")),
)
APPROX_WORDS = 1

# (base class, (eps, delta), --words); one cycle, with the verify jobs of
# its certificates, costs about 12 s at seed.  The seven ("gm-p1", ED_FINE,
# 4) slots repeat one input; their verify jobs hold the middle ranks of a
# cycle's 35 jobs and of its 17 verify jobs, so job_p50_s and verify_p50_s
# are the latency of one fixed job and not of whichever job kinds happen to
# meet at the median.
SYMBOLIC_TEMPLATE = (
    ("fs2-p1", ED_COARSE, 4),
    ("gm-p1", ED_FINE, 4),
    ("fs2-p2", ED_COARSE, 5),
    ("gm-p3", ED_FINE, 4),
    ("gm-p1", ED_FINE, 4),
    ("fs2-p3", ED_FINE, 4),
    ("fs3-p1", ED_FINE, 4),
    ("gm-p1", ED_FINE, 4),
    ("gm-p1", ED_COARSE, 6),
    ("fs2-p1", ED_FINE, 5),
    ("gm-p1", ED_FINE, 4),
    ("gm-p2", ED_FINE, 4),
    ("fs2-p3", ED_COARSE, 4),
    ("gm-p1", ED_FINE, 4),
    ("fs3-p2", ED_COARSE, 4),
    ("gm-p1", ED_FINE, 4),
    ("gm-p1", ED_FINE, 4),
    ("fs3-p3", ED_COARSE, 4),
)
SYMBOLIC_CYCLE_SECONDS = 12.0
APPROX_SECONDS = 3.0

# Net points of fig1_circle(n) whose positive-shadowing search visits the
# same number of states at the given resolution (interior of the arcs).
POSITIVE_CLASSES = {
    "p360": (360, ("1/20", "1/100"), [30, 40, 50, 60, 70, 160, 170, 180, 190]),
    "p240": (240, ("1/20", "1/100"), [20, 30, 40, 50, 110, 120, 130]),
    "p120": (120, ("1/20", "1/100"), [10, 15, 20, 60]),
    # ten-point counterexamples found after 8 or 9 states
    "cx-a": (120, ("1/25", "1/100"), [10, 15, 20, 25, 50, 55, 60, 65, 110, 115]),
    "cx-b": (120, ("1/16", "1/50"), [10, 15, 20, 25, 30, 50, 55, 60, 65, 70, 110, 115]),
}
RESOLUTION = ("1/20", "1/100", 4)
CHAIN_NETS = ("fig1-120", "fig1-240", "fig1-360", "layered-12")
CHAIN_SYMBOLIC = ("goldenmean", "fullshift:2")
CHAIN_DELTAS = ("1/1000", "1/100", "1/20", "1/8")
# Slots fix every input that sets a job's cost, including which library
# caches it fills; the seed picks the rest (points, variants, samples).
# A cycle is 23 jobs with its three re-checks.  About eight are cheaper and
# eight dearer than the seven p120 jobs, which therefore hold the middle
# ranks, so the median job is always one of them.  In the five cycles of a
# 26 s run the five p360 jobs are the largest and the ten p240 jobs the next,
# so job_tail_s, the eleventh largest, is the middle of the p240 jobs.
NET_TEMPLATE = (
    ("p360", {}), ("cx-a", {}), ("p120", {}), ("p240", {}), ("resolution", {}),
    ("find_shadow", {"n": 360, "delta": "1/100", "eps": "1/20"}), ("p120", {}),
    ("p120", {}), ("chain", {}), ("p120", {}), ("cx-b", {}), ("separated", {"n_steps": 2}),
    ("chain_symbolic", {"depth": 3}), ("p120", {}), ("p240", {}),
    ("connect", {"n": 240, "delta": "1/60"}), ("p120", {}),
    ("entropy", {"n_range": [1, 2, 3]}), ("p120", {}), ("cx-a", {}),
)
NET_CYCLE_SECONDS = 5.5

# Four of five d* jobs are on the full 2-shift, so the median job and the
# median re-check fall inside one homogeneous group.
WEAK_TEMPLATE = (
    ("measure_approx", {"k": 2}), ("dstar", {"k": 2}), ("empirical_lemma", {}),
    ("dstar", {"k": 2}), ("cylinders", {"k": 2}), ("measure_approx", {"k": 3}),
    ("dstar", {"k": 2}), ("shift_entropy", {"eps": "3/4"}), ("dstar", {"k": 3}),
    ("dstar", {"k": 2}),
)
WEAK_CYCLE_SECONDS = 0.95
SHIFT_ENTROPY = (("fullshift:2", 9), ("fullshift:3", 6), ("goldenmean", 9))
# (n, eps) pairs with the same separation width n + 2 t' + 1 = 11
CYLINDERS = ((10, "3/4"), (8, "3/8"))


def _cycles(seconds: float, cycle_seconds: float) -> int:
    return max(1, round(seconds / cycle_seconds))


def horseshoe_key(system, period, eps, delta, words) -> str:
    return f"horseshoe {system} {''.join(map(str, period))} {eps} {delta} {words}"


def approx_key(target, words) -> str:
    system, *comps = target
    body = " ".join(f"{''.join(map(str, p))}:{w}" for p, w in comps)
    return f"approx {system} {body} {words}"


def positive_key(n, x, eps, delta) -> str:
    return f"positive {n} {x} {eps} {delta}"


def resolution_key(eps, delta, horizon) -> str:
    return f"resolution 120 {eps} {delta} {horizon}"


def separated_key(n_steps, eps) -> str:
    return f"separated 120 {n_steps} {eps}"


def lemma_key(rounds, n, swap) -> str:
    return f"lemma {rounds} {n} {'10' if swap else '01'}"


def symbolic_coding(seed: int, seconds: float) -> list:
    rng = random.Random(seed)
    jobs = []
    cycles = _cycles(max(seconds - APPROX_SECONDS, 1.0), SYMBOLIC_CYCLE_SECONDS)
    for c in range(cycles):
        for slot, (cls, (eps, delta), words) in enumerate(SYMBOLIC_TEMPLATE):
            system, bases = BASES[cls]
            period = rng.choice(bases)
            cert = f"cert-{c}-{slot}.json"
            jobs.append({"kind": "horseshoe", "system": system,
                         "period": period, "eps": eps, "delta": delta,
                         "words": words, "cert": cert,
                         "key": horseshoe_key(system, period, eps, delta, words)})
    target = rng.choice(APPROX_TARGETS)
    jobs.insert(len(SYMBOLIC_TEMPLATE) // 2, {
        "kind": "approx", "system": target[0],
        "components": [[{"period": list(p)}, w] for p, w in target[1:]],
        "eps": "1/5", "words": APPROX_WORDS,
        "key": approx_key(target, APPROX_WORDS)})
    return jobs


def net_shadowing(seed: int, seconds: float) -> list:
    rng = random.Random(seed)
    jobs = []
    for c in range(_cycles(seconds, NET_CYCLE_SECONDS)):
        for slot, (kind, fixed) in enumerate(NET_TEMPLATE):
            job = {"kind": kind, **fixed}
            if kind in POSITIVE_CLASSES:
                n, (eps, delta), points = POSITIVE_CLASSES[kind]
                x = rng.choice(points)
                job = {"kind": "positive", "n": n, "x": x, "eps": eps, "delta": delta,
                       "horizon": 10, "key": positive_key(n, x, eps, delta)}
            elif kind == "resolution":
                eps, delta, horizon = RESOLUTION
                job.update(eps=eps, delta=delta, horizon=horizon,
                           key=resolution_key(eps, delta, horizon))
            elif kind == "find_shadow":
                job["variant"] = rng.choice((1, 2))
            elif kind == "connect":
                job.update(a=rng.randrange(job["n"]), b=rng.randrange(job["n"]))
            elif kind == "chain":
                job.update(net=CHAIN_NETS[c % len(CHAIN_NETS)], deltas=list(CHAIN_DELTAS))
            elif kind == "chain_symbolic":
                job.update(system=CHAIN_SYMBOLIC[c % len(CHAIN_SYMBOLIC)],
                           delta=rng.choice(("1/4", "1/8", "1/16")))
            elif kind == "separated":
                eps = rng.choice(("1/20", "1/10", "1/5"))
                job.update(eps=eps, sample=rng.sample(range(120), 12),
                           key=separated_key(job["n_steps"], eps))
            elif kind == "entropy":
                eps = rng.choice(("1/10", "1/5"))
                job.update(kind="net_entropy", eps=eps,
                           keys=[separated_key(n, eps) for n in job["n_range"]])
            job["file"] = f"cx-{c}-{slot}.json"
            jobs.append(job)
    return jobs


def weak_star(seed: int, seconds: float) -> list:
    rng = random.Random(seed)
    jobs = []
    for c in range(_cycles(seconds, WEAK_CYCLE_SECONDS)):
        for slot, (kind, fixed) in enumerate(WEAK_TEMPLATE):
            job = {"kind": kind, **fixed}
            if kind == "measure_approx":
                job.update(trials=50, seed=rng.randrange(10 ** 6))
            elif kind == "dstar":
                job.update(mu=_random_orbit_spec(rng, job["k"]),
                           nu=_random_orbit_spec(rng, job["k"]),
                           files=[f"mu-{c}-{slot}.json", f"nu-{c}-{slot}.json"])
            elif kind == "empirical_lemma":
                swap = rng.choice((0, 1))
                job.update(rounds=4, n=48, swap=swap, key=lemma_key(4, 48, swap))
            elif kind == "cylinders":
                n, eps = rng.choice(CYLINDERS)
                job.update(n=n, eps=eps)
            elif kind == "shift_entropy":
                system, top = SHIFT_ENTROPY[c % len(SHIFT_ENTROPY)]
                job.update(system=system, n_range=[0, top])
            jobs.append(job)
    return jobs


def _random_orbit_spec(rng, k) -> dict:
    """An empirical measure given by a periodic word, an anchor and an orbit
    length (the first n points of the orbit of the word's periodic closure)."""
    word = [rng.randrange(k) for _ in range(rng.randint(1, 5))]
    return {"word": word, "anchor": rng.randint(-3, 3), "n": 8}


WORKLOADS = {
    "symbolic-coding": symbolic_coding,
    "net-shadowing": net_shadowing,
    "weak-star": weak_star,
}


def job_list(workload: str, seed: int, seconds: float) -> list:
    return WORKLOADS[workload](seed, seconds)
