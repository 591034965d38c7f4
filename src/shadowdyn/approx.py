"""Approximation of convex combinations of periodic-orbit measures by the
empirical measure of a coded point on a two-loop semi-horseshoe.

The construction concatenates, inside each loop, a distinguishing prefix
(two separated excursions at the base point) with a shared tail visiting a
long generic segment of every component measure, connected by short spliced
chains.  The distance from the resulting coded measure to the target is
bounded by an exact four-term triangle decomposition, each term evaluated
in rational arithmetic, with total at most 5 epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .horseshoe import (
    HorseshoeCertificate,
    build_certificate,
    equalize,
    make_family,
    separation_witness,
)
from .measures import EmpiricalMeasure, TestFunctionFamily, dstar
from .pseudo_orbits import PseudoOrbit, concatenate, connect, orbit_segment
from .shadowing import is_positively_shadowable_at
from .systems import SymbolicPoint, SymbolicSystem, dyadic_radius

F = Fraction


class PipelineStageError(RuntimeError):
    """A stage's resolution check failed; earlier stages are reported."""

    def __init__(self, stage: str, detail: str, stages: list):
        self.stage = stage
        self.detail = detail
        self.stages = stages
        super().__init__(f"stage {stage!r} failed: {detail}")


@dataclass
class ApproximationResult:
    target: EmpiricalMeasure
    nu: EmpiricalMeasure
    certificate: HorseshoeCertificate
    epsilon: Fraction
    bound: Fraction                 # 5 epsilon
    terms: dict                     # name -> exact Fraction
    total: Fraction
    coded_word: tuple
    stages: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.total <= self.bound


def orbit_measure(system, point: SymbolicPoint) -> EmpiricalMeasure:
    period = point.least_period()
    if period is None:
        raise ValueError("orbit measures need periodic points")
    return EmpiricalMeasure.from_orbit(system, point, period)


def approximate_by_positive_entropy_ergodic(
        system: SymbolicSystem,
        components: Sequence,           # (periodic point, rational weight)
        epsilon,
        word_length: int = 3) -> ApproximationResult:
    """Run the full construction and stamp the achieved bound.

    ``components`` lists periodic points with rational weights summing
    to 1; the target is the corresponding convex combination of orbit
    measures, all inside the (single, irreducible) chain class.
    """
    if word_length < 1:
        raise ValueError("word_length must be at least 1")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    stages: list = []

    def stage(name, detail):
        stages.append((name, detail))

    pts = [p for p, _ in components]
    weights = [Fraction(w) for _, w in components]
    if sum(weights) != 1:
        raise ValueError("component weights must sum to 1")
    measures = [orbit_measure(system, p) for p in pts]
    target = EmpiricalMeasure.mix(measures, weights)

    # stage 1: uniform presentation of the target (exact, so the fourth
    # term of the decomposition vanishes)
    denom = math.lcm(*(w.denominator for w in weights))
    generics: list[SymbolicPoint] = []
    for p, w in zip(pts, weights):
        generics.extend([p] * int(w * denom))
    stage("uniform-presentation", {"copies": denom})

    eps_trace = min(epsilon, F(1, 5))
    t = dyadic_radius(eps_trace)
    delta = F(1, 1 << (t + 2))
    base = generics[0]

    # stage 2: the base point passes the positive shadowing test at the
    # constants the loops will be certified with
    rep = is_positively_shadowable_at(system, base, eps_trace, delta, horizon=8)
    if not rep.shadowable:
        raise PipelineStageError("base-shadowability", repr(rep.verdict), stages)
    stage("base-shadowability", {"epsilon": eps_trace, "delta": delta})

    # stage 3: two separated prefix loops at the base
    prefix_pair = _separated_prefix_loops(system, base, eps_trace, delta)
    if prefix_pair is None:
        raise PipelineStageError("prefix-loops",
                                 "no 4-epsilon separated excursion found", stages)
    dwell, excursion = prefix_pair
    stage("prefix-loops", {"lengths": (dwell.step_count, excursion.step_count)})

    # stage 4: shared tail visiting one long generic segment per copy.
    # The segment length n makes each orbit block realize its measure
    # exactly and dominates the connector overhead 3R/epsilon.
    def connector(a, b, detail):
        link = connect(a, b, delta, system)
        if link is None:
            raise PipelineStageError("connectors", detail, stages)
        return link

    period_lcm = math.lcm(*(g.least_period() for g in generics))
    link = connector(base, generics[0], "chain class is not spliceable")
    rough_r = link.step_count + dwell.step_count + 8
    n = period_lcm * (int(3 * rough_r / eps_trace) // period_lcm + 1)
    tail: Optional[PseudoOrbit] = None
    cursor = base
    max_connector = 0
    for i, g in enumerate(generics):
        if i:
            link = connector(cursor, g, "chain class is not spliceable")
        block = orbit_segment(system, g, n)
        max_connector = max(max_connector, link.step_count)
        piece = concatenate(link, block)
        tail = piece if tail is None else concatenate(tail, piece)
        cursor = g.shift(n)
    closing = connector(cursor, base, "no closing chain")
    max_connector = max(max_connector, closing.step_count)
    tail = concatenate(tail, closing)
    stage("tail", {"n": n, "copies": denom, "connector_bound": max_connector})

    # stage 5: the loop family and its certificate
    loops = [concatenate(dwell, tail), concatenate(excursion, tail)]
    fam = make_family(system, base, loops, eps_trace, delta)
    cert = build_certificate(fam, word_length_max=word_length)
    stage("certificate", {"loop_length": fam.n, "words": len(cert.coded),
                          "entropy": (fam.k, fam.n)})

    # stage 6: the coded measure and the exact four-term bound
    word = tuple(i % fam.k for i in range(word_length))
    span = len(word) * fam.n
    traced = cert.word_points(word)[:span]
    nu = EmpiricalMeasure.from_orbit(system, cert.coded[word], span)
    emp_traced = EmpiricalMeasure.from_sequence(traced)

    family = TestFunctionFamily.for_system(system, size=24, depth=2)
    terms = {
        "nu_vs_coded_orbit": F(0),  # nu is that empirical measure by definition
        "coded_orbit_vs_traced": dstar(nu, emp_traced, family).value,
        "traced_vs_uniform_average": dstar(emp_traced, target, family).value,
        # the uniform presentation of stage 1 is the target itself
        "uniform_average_vs_target": F(0),
    }
    total = sum(terms.values(), F(0))
    bound = 5 * epsilon
    stage("bound", {"terms": {k: str(v) for k, v in terms.items()},
                    "total": str(total), "bound": str(bound)})
    result = ApproximationResult(target, nu, cert, epsilon, bound, terms, total,
                                 word, stages)
    if not result.ok:
        raise PipelineStageError("bound", f"total {total} exceeds {bound}", stages)
    return result


def _separated_prefix_loops(system: SymbolicSystem, base: SymbolicPoint,
                            eps: Fraction, delta: Fraction):
    """A dwell loop at the base and an excursion loop separated from it by
    more than 4 epsilon at some index, equalized to a common length."""
    period = base.least_period()
    if period is None:
        return None
    dwell = orbit_segment(system, base, period)
    for width in (1, 2, 3):
        for _, q in system.cylinders(0, width - 1):
            if q is None or q == base:
                continue
            out = connect(base, q, delta, system)
            if out is None:
                continue
            qper = q.least_period()
            visit = orbit_segment(system, q, qper) if qper else None
            loop = concatenate(out, visit) if visit else out
            back = connect(q.shift(qper or 0), base, delta, system)
            if back is None:
                continue
            pair = equalize([dwell, concatenate(loop, back)])
            if separation_witness(system, *pair, 4 * eps) is not None:
                return pair
    return None
