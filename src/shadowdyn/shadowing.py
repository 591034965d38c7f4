"""Shadowability verdicts at a stamped resolution.

Every verdict is quantified over a finite, explicitly described universe of
pseudo-orbits (the delta-transition graph up to a horizon) and carries the
(epsilon, delta, horizon) stamp; a "counterexample" verdict never claims to
refute an infinite-precision statement.  Each verdict is one run of the
shadowability search ``shadow_search.unshadowed``, whose counterexample is
the lexicographically first failing pseudo-orbit on nets and shifts alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .chain import build_chain_graph, chain_class
from .pseudo_orbits import PseudoOrbit, validate
from .shadow_search import SearchStats, find_shadow, unshadowed
from .systems import SystemPoint

SHADOWABLE = "shadowable"
COUNTEREXAMPLE = "counterexample"


@dataclass
class ShadowabilityReport:
    base: object  # point, point set, or "all"
    epsilon: Fraction
    delta: Fraction
    horizon: int
    verdict: str
    counterexample: Optional[PseudoOrbit] = None
    stamps: dict = field(default_factory=dict)

    @property
    def shadowable(self) -> bool:
        return self.verdict == SHADOWABLE

    def reverify_counterexample(self, system) -> bool:
        """The counterexample re-validates as a delta-pseudo-orbit and the
        exhaustive/glued shadow search fails on it."""
        if self.counterexample is None:
            return False
        po = validate(self.counterexample.points, self.delta, system)
        return find_shadow(system, po, self.epsilon) is None


def _report(system, base, epsilon, delta, horizon, bad, stamps) -> ShadowabilityReport:
    """The verdict on a search result: shadowable, or the re-verified
    counterexample path."""
    if bad is None:
        return ShadowabilityReport(base, epsilon, delta, horizon, SHADOWABLE, None, stamps)
    po = validate(bad, delta, system)
    rep = ShadowabilityReport(base, epsilon, delta, horizon, COUNTEREXAMPLE, po, stamps)
    assert rep.reverify_counterexample(system)
    return rep


def is_positively_shadowable_at(system, x: SystemPoint, epsilon, delta,
                                horizon: int = 10,
                                budget: int = 10 ** 6) -> ShadowabilityReport:
    """Check every delta-pseudo-orbit through x (step count <= horizon) for
    an epsilon-shadow; the verdict is the lexicographically first failing
    pseudo-orbit if any."""
    system.check_point(x)
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    stats = SearchStats(budget=budget)
    bad = unshadowed(system, [x], epsilon, delta, horizon, stats)
    stamps = {"universe": system.universe, "states": stats.states}
    return _report(system, x, epsilon, delta, horizon, bad, stamps)


def has_shadowing_at_resolution(system, delta, epsilon, horizon: int = 10,
                                two_sided: bool = False, budget: int = 10 ** 7,
                                within=None) -> ShadowabilityReport:
    """Like :func:`is_positively_shadowable_at` but quantified over all start
    points, or those passing ``within`` (a ``restrict_to`` test, which also
    keeps the pseudo-orbits inside its nodes).  ``two_sided`` enumerates
    windows [-horizon, horizon] (invertible systems only); for the verdict
    this equals forward windows of doubled length quantified over all
    starts."""
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    span = horizon
    if two_sided:
        if not system.invertible:
            raise ValueError("two-sided shadowing needs an invertible system")
        span = 2 * horizon
    stats = SearchStats(budget=budget)
    bad = unshadowed(system, None, epsilon, delta, span, stats, within)
    stamps = {"universe": system.universe, "states": stats.states, "two_sided": two_sided}
    return _report(system, "all", epsilon, delta, horizon, bad, stamps)


def uniform_delta_for_set(system, points: Sequence[SystemPoint], epsilon,
                          horizon: int = 10,
                          ladder: Optional[Sequence] = None) -> tuple:
    """A single delta that works for every pseudo-orbit starting within
    delta of the set, found by per-point search then verification over the
    system's delta-neighborhood of the set (empty for symbolic systems,
    whose verdicts quantify over cylinder candidates).

    Returns (delta, per-point reports keyed by point).  Raises ValueError
    when some point fails at every ladder rung down to the resolution.
    """
    epsilon = Fraction(epsilon)
    if ladder is None:
        ladder = [epsilon / 2, epsilon / 4, epsilon / 8, epsilon / 16]
        res = getattr(system, "resolution", None)
        if res is not None:
            ladder = [d for d in ladder if d >= res] or [Fraction(res)]

    per_point = {}
    deltas = []
    for x in points:
        found = None
        for d in ladder:
            rep = is_positively_shadowable_at(system, x, epsilon, d, horizon)
            if rep.shadowable:
                found = (d, rep)
                break
        if found is None:
            raise ValueError(f"point {x!r} is not positively shadowable at any "
                             f"ladder delta down to {ladder[-1]}")
        per_point[x] = found[1]
        deltas.append(found[0])

    delta = min(deltas)
    while not all(is_positively_shadowable_at(system, y, epsilon, delta, horizon).shadowable
                  for y in system.neighborhood(points, delta)):
        delta /= 2
        if delta < system.resolution:
            raise ValueError("mesh refinement went below the net resolution")
    return delta, per_point


@dataclass
class ClassShadowabilityReport:
    class_nodes: tuple
    epsilon: Fraction
    delta: Fraction
    horizon: int
    all_shadowable: bool
    failures: list = field(default_factory=list)  # (node, report)
    stamps: dict = field(default_factory=dict)


def chain_class_shadowability(system, x, epsilon, delta, horizon: int = 10,
                              depth: Optional[int] = None) -> ClassShadowabilityReport:
    """Test every point of the chain class H(x) with the same (epsilon,
    delta): uniform success is what the chain-class theorem predicts, and
    any failure is recorded as a falsification at this resolution."""
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    graph = build_chain_graph(system, delta, depth=depth)
    net = graph.system
    cls = chain_class(graph, net.node_of(x))
    failures = []
    for node in sorted(cls):
        rep = is_positively_shadowable_at(system, net.point_of(node), epsilon, delta,
                                          horizon)
        if not rep.shadowable:
            failures.append((node, rep))
    return ClassShadowabilityReport(
        tuple(sorted(cls)), epsilon, delta, horizon, not failures, failures,
        stamps={"depth": graph.depth_stamp})


def h_class_two_sided_shadowing(system, x, epsilon, delta, horizon: int = 5,
                                depth: Optional[int] = None) -> ClassShadowabilityReport:
    """Two-sided windows [-horizon, horizon] through points of H(x), checked
    for a single epsilon-shadow of the full window.

    Windows are relabeled to forward windows of length 2*horizon; the
    quantification runs over pseudo-orbits staying inside the class.  A
    failure is recorded at the class node the failing pseudo-orbit starts
    from."""
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    graph = build_chain_graph(system, delta, depth=depth)
    net = graph.system
    cls = chain_class(graph, net.node_of(x))
    stats = SearchStats()
    starts = [net.point_of(node) for node in sorted(cls)]
    bad = unshadowed(system, starts, epsilon, delta, 2 * horizon, stats,
                     net.restrict_to(cls))
    failures = []
    if bad is not None:
        po = validate(bad, delta, system)
        rep = ShadowabilityReport(bad[0], epsilon, delta, horizon, COUNTEREXAMPLE, po)
        failures.append((net.node_of(bad[0]), rep))
    return ClassShadowabilityReport(
        tuple(sorted(cls)), epsilon, delta, horizon, not failures, failures,
        stamps={"depth": graph.depth_stamp, "two_sided": True})
