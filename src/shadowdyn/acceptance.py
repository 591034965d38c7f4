"""The acceptance suite: ten property checks at pinned tolerances.

Each criterion builds its own objects, computes expected values with an
independent oracle where one is stated (brute-force enumeration, boolean
reachability closure), and enforces its runtime budget as part of the
verdict.  Run them via ``shadowdyn accept`` or tests/test_acceptance.py.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

F = Fraction


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number}: {self.name} [{self.elapsed:.1f}s] {self.details}"


def _run(number: int, name: str, budget: Optional[float], body: Callable) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        ok, details = body()
    except Exception as err:  # a crashed criterion is a failed criterion
        return CriterionResult(number, name, False, time.perf_counter() - t0,
                               f"error: {err!r}")
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        ok = False
        details += f"; runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"
    return CriterionResult(number, name, ok, elapsed, details)


def criterion_1() -> CriterionResult:
    """Full-shift entropy identity: exact separated counts and slopes."""

    def body():
        from .entropy import entropy_estimate, max_separated_cylinders
        from .systems import SymbolicSystem

        problems = []
        for k, label in ((2, "log 2"), (3, "log 3")):
            system = SymbolicSystem.full_shift(k)
            for n in range(0, 11):
                got = max_separated_cylinders(system, n, F(3, 4)).cardinality
                oracle = sum(1 for _ in itertools.product(range(k), repeat=n + 1))
                if got != k ** (n + 1) or got != oracle:
                    problems.append((k, n, got))
            est = entropy_estimate(system, F(3, 4), range(0, 11))
            if abs(est.slope - math.log(k)) >= 1e-9:
                problems.append((k, "slope", est.slope))
        return not problems, f"counts k^(n+1) for n=0..10, slopes exact; issues={problems}"

    return _run(1, "full-shift entropy identity", 10.0, body)


def criterion_2() -> CriterionResult:
    """Golden-mean SFT has shadowing at delta = 2^-(m+2), eps = 2^-m."""

    def body():
        import random

        from .shadow_search import find_shadow, shadows
        from .shadowing import has_shadowing_at_resolution
        from .pseudo_orbits import validate
        from .systems import SymbolicSystem, dyadic_radius

        gm = SymbolicSystem.golden_mean()
        rng = random.Random(2)
        issues = []
        for m in (2, 3):
            delta, eps = F(1, 2 ** (m + 2)), F(1, 2 ** m)
            rep = has_shadowing_at_resolution(gm, delta, eps, horizon=12)
            if not rep.shadowable or rep.counterexample is not None:
                issues.append((m, rep.verdict))
                continue
            # dual route: random delta-pseudo-orbits must actually glue
            s = dyadic_radius(delta)
            start = gm.point((0, 1, 0, 0, 1))
            for _ in range(5):
                pts = [start]
                for _ in range(12):
                    cands = gm.successor_candidates(pts[-1].shift(1), s, s)
                    pts.append(rng.choice(cands))
                po = validate(pts, delta, gm)
                w = find_shadow(gm, po, eps)
                if w is None or shadows(gm, w.shadow_point, po, eps) is None:
                    issues.append((m, "sampled orbit missing a shadow"))
        return not issues, f"m=2,3 at horizon 12, zero counterexamples; issues={issues}"

    return _run(2, "golden-mean SFT shadowing", 60.0, body)


def criterion_3() -> CriterionResult:
    """Positive vs two-sided shadowing on the three-fixed-point circle."""

    def body():
        from .builders import crossing_pseudo_orbit, fig1_circle
        from .pseudo_orbits import validate
        from .shadow_search import find_shadow
        from .shadowing import is_positively_shadowable_at

        net = fig1_circle(360)
        eps, delta = F(1, 20), F(1, 100)
        rep = is_positively_shadowable_at(net, 180, eps, delta, horizon=10,
                                          budget=10 ** 7)
        issues = []
        if not rep.shadowable:
            issues.append("positive test failed at 180")
        for variant in (1, 2):
            pts = crossing_pseudo_orbit(net, delta, variant)
            po = validate(pts, delta, net)
            if find_shadow(net, po, eps) is not None:
                issues.append(f"variant {variant} unexpectedly shadowed")
        return not issues, ("point 180 positively shadowable at (1/20, 1/100); "
                            f"both crossing shapes unshadowed; issues={issues}")

    return _run(3, "positively shadowable but not shadowable (circle flow)", 120.0, body)


def criterion_4() -> CriterionResult:
    """Layered example: isolated cycles shadow, the base circle does not."""

    def body():
        from .builders import dense_shadowable_example, reverse_base_pseudo_orbit
        from .pseudo_orbits import validate
        from .shadow_search import find_shadow
        from .shadowing import is_positively_shadowable_at

        space = dense_shadowable_example(12)
        issues = []
        for n, members in space.layers.items():
            bound = space.gaps[n] / 2
            for idx in members:
                rep = is_positively_shadowable_at(space.net, idx, bound, bound,
                                                  horizon=10)
                if not rep.shadowable:
                    issues.append(("layer", n, idx))
        pts = reverse_base_pseudo_orbit(space, F(1, 50), F(1, 40))
        po = validate(pts, F(1, 40), space.net)
        errs = po.step_errors()
        if not all(F(1, 50) <= e <= F(1, 40) for e in errs):
            issues.append("step band violated")
        if find_shadow(space.net, po, F(1, 10)) is not None:
            issues.append("reverse orbit shadowed")
        return not issues, (f"all K_n (n<=12) pass below their gaps; reverse "
                            f"base orbit (C=1/50, delta=1/40) unshadowed at "
                            f"eps=1/10; issues={issues}")

    return _run(4, "dense shadowable layers over an unshadowable base", 120.0, body)


def criterion_5() -> CriterionResult:
    """Weak* approximation inequalities on 1000 seeded random instances."""

    def body():
        from .measures import TestFunctionFamily, verify_measure_approx
        from .systems import SymbolicSystem

        sigma2 = SymbolicSystem.full_shift(2)
        family = TestFunctionFamily.for_system(sigma2, size=24, depth=2)
        report = verify_measure_approx(sigma2, family, trials=1000, seed=0)
        return report.ok, (f"{report.trials} trials per item, seed {report.seed}, "
                           f"{len(report.violations)} violations")

    return _run(5, "measure-approximation inequality suite", 30.0, body)


def criterion_6() -> CriterionResult:
    """Two-loop certificate on the full shift codes all words of length 8."""

    def body():
        from .horseshoe import build_certificate, make_family
        from .pseudo_orbits import concatenate, connect, validate
        from .systems import SymbolicSystem

        sigma2 = SymbolicSystem.full_shift(2)
        eps, delta = F(1, 5), F(1, 32)
        x = sigma2.fixed_point(0)
        q = sigma2.point((0,), word=(1,), offset=0)
        excursion = concatenate(connect(x, q, delta, sigma2),
                                connect(q, x, delta, sigma2))
        dwell = validate([x] * (excursion.step_count + 1), delta, sigma2)
        fam = make_family(sigma2, x, [dwell, excursion], eps, delta)
        cert = build_certificate(fam, word_length_max=8)
        issues = []
        if sum(1 for w in cert.coded if len(w) == 8) != 2 ** 8:
            issues.append("missing words of length 8")
        if not cert.check()["checks"]["semiconjugacy"]:
            issues.append("semiconjugacy failed")
        if cert.separated_pair_count(8) != 2 ** 8:
            issues.append("separation count != 2^8")
        expected = math.log(2) / fam.n
        if not (cert.entropy_log_arg == 2 and cert.entropy_divisor == fam.n
                and cert.entropy_lower_bound == expected):
            issues.append("entropy bound mismatch")
        return not issues, (f"2^8 words coded at n={fam.n}, semiconjugacy ok, "
                            f"separated count 256, bound log2/{fam.n}; issues={issues}")

    return _run(6, "semi-horseshoe certificate on the full shift", 120.0, body)


def criterion_7() -> CriterionResult:
    """Positive-entropy approximation of a mixed periodic target."""

    def body():
        from .approx import approximate_by_positive_entropy_ergodic
        from .systems import SymbolicSystem

        sigma2 = SymbolicSystem.full_shift(2)
        fixed = sigma2.fixed_point(0)
        two = sigma2.point((0, 1))
        res = approximate_by_positive_entropy_ergodic(
            sigma2, [(fixed, F(1, 2)), (two, F(1, 2))], F(1, 5))
        issues = []
        if not res.ok:
            issues.append(f"total {res.total} exceeds {res.bound}")
        if res.certificate.entropy_lower_bound <= 0:
            issues.append("certificate entropy not positive")
        if not res.certificate.check()["checks"]["semiconjugacy"]:
            issues.append("certificate semiconjugacy failed")
        return not issues, (f"d*(nu, mu) = {float(res.total):.6f} <= 1 = 5 eps "
                            f"(exact {res.total}); entropy log2/"
                            f"{res.certificate.entropy_divisor}; issues={issues}")

    return _run(7, "approximation by positive-entropy coded measure", 300.0, body)


def criterion_8() -> CriterionResult:
    """Block-concatenation empirical bound at k=2, R=4, rounds <= 5."""

    def body():
        from .measures import (TestFunctionFamily,
                               build_periodic_block_concatenation,
                               verify_empirical_lemma)
        from .systems import SymbolicSystem

        sigma2 = SymbolicSystem.full_shift(2)
        family = TestFunctionFamily.for_system(sigma2, size=24, depth=2)
        eps = F(1, 4)
        n = 48  # a multiple of both periods with n >= 3R/eps
        cons = build_periodic_block_concatenation(
            sigma2, [sigma2.fixed_point(0), sigma2.point((0, 1))], eps, n,
            rounds=5, connector_bound=4)
        report = verify_empirical_lemma(cons, family)
        worst = max(v for _, _, v in report.per_round)
        return report.ok, (f"max over rounds {float(worst):.4f} <= 3 eps = "
                           f"{float(report.bound)}; violations={report.violations}")

    return _run(8, "empirical measure of block concatenations", 60.0, body)


def criterion_9() -> CriterionResult:
    """The subshift extension: bijective map, cell counts, claims (a)-(c)."""

    def body():
        from .builders import extension_builder, verify_extension_claims
        from .words import SubstitutionLanguage

        lang = SubstitutionLanguage.fibonacci()
        space = extension_builder(lang, 4)
        issues = []
        if sorted(space.net.map) != list(range(space.net.n)):
            issues.append("sampled map is not a bijection")

        # oracle: enumerate admissible words by direct substitution iteration
        text = (0,)
        while len(text) < 4096:
            text = tuple(s for c in text for s in ((0, 1) if c == 0 else (0,)))
        for n, lvl in space.levels.items():
            m = lvl.partition.window_radius
            width = 2 * m + 1
            words = {text[i:i + width] for i in range(len(text) - width + 1)}
            if lvl.partition.cell_count != 2 * m + 2 or len(words) != 2 * m + 2:
                issues.append((n, lvl.partition.cell_count, len(words)))
        rep = verify_extension_claims(space)
        if not rep.ok:
            issues.append("claims (a)-(c) failed")
        return not issues, (f"net of {space.net.n} points, bijective; cell "
                            f"counts 2m+2 at all levels; claims at stamps "
                            f"{rep.stamps['base']}; issues={issues}")

    return _run(9, "minimal-subshift extension construction", 120.0, body)


def criterion_10() -> CriterionResult:
    """Chain recurrence equals boolean-reachability brute force."""

    def body():
        import random

        from .builders import dense_shadowable_example, fig1_circle
        from .chain import build_chain_graph, chain_recurrent_set
        from .systems import NetSystem, circle_net

        rng = random.Random(10)
        systems = [("fig1-120", fig1_circle(120)),
                   ("layered-12", dense_shadowable_example(12).net),
                   ("identity-50", circle_net(50, lambda i: i, invertible=True)),
                   ("rotation-60", circle_net(60, lambda i: (i + 7) % 60,
                                              invertible=True))]
        for trial in range(2):
            size = 40
            step = [rng.randrange(size) for _ in range(size)]
            labels = [F(i, size) for i in range(size)]
            dist = [[min(abs(labels[i] - labels[j]), 1 - abs(labels[i] - labels[j]))
                     for j in range(size)] for i in range(size)]
            systems.append((f"random-{trial}",
                            NetSystem(labels, dist, step, resolution=F(1, 80))))

        issues = []
        for name, net in systems:
            assert net.n <= 200
            diam = net.diameter_bound()
            deltas = [F(0), diam / net.n, diam / 16, diam / 4, diam]
            for delta in deltas:
                graph = build_chain_graph(net, delta)
                got = chain_recurrent_set(graph)
                # oracle: cumulative boolean reachability by repeated squaring
                adj = np.zeros((net.n, net.n), dtype=bool)
                for i, succ in enumerate(graph.succ):
                    adj[i, list(succ)] = True
                reach = adj.copy()
                steps = 1
                while steps < net.n:
                    prod = reach.astype(np.int32) @ reach.astype(np.int32)
                    reach = reach | (prod > 0)
                    steps *= 2
                oracle = frozenset(np.flatnonzero(np.diagonal(reach)).tolist())
                if got != oracle:
                    issues.append((name, str(delta)))
        return not issues, (f"{len(systems)} systems x 5 deltas; issues={issues}")

    return _run(10, "chain-recurrence oracle equivalence", 120.0, body)


ALL = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
       criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def run_all(only: Optional[int] = None) -> list:
    if only is not None:
        if not 1 <= only <= len(ALL):
            raise ValueError(f"no acceptance criterion {only}: they are 1 to {len(ALL)}")
        return [ALL[only - 1]()]
    return [fn() for fn in ALL]
