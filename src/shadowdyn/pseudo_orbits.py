"""The delta-pseudo-orbit calculus: validation, concatenation, loop
repetition and delta-chains (``connect``: the system's ``chain`` points,
validated, on every system).

Length bookkeeping is in *steps*: a pseudo-orbit with points x_0..x_n has
step_count n, and step counts add exactly under concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .systems import System, SystemPoint

SEGMENT = "segment"
LOOP = "loop"


class PseudoOrbitError(ValueError):
    """A step of a candidate pseudo-orbit exceeds the declared bound."""

    def __init__(self, first_bad_index: int, worst_error: Fraction, delta: Fraction):
        self.first_bad_index = first_bad_index
        self.worst_error = worst_error
        self.delta = delta
        super().__init__(
            f"step {first_bad_index} violates the bound: error {worst_error} > delta {delta}"
        )


@dataclass(frozen=True)
class PseudoOrbit:
    """A certified delta-pseudo-orbit.

    ``points`` is the full point sequence; consecutive steps satisfy
    d(f(x_i), x_{i+1}) <= delta (re-verifiable via :func:`validate`).
    Loops have first point equal to last and at least one step; a loaded
    certificate's loops are claims until ``LoopFamily.reverify`` holds.
    """

    system: System
    points: tuple
    delta: Fraction
    kind: str

    @property
    def step_count(self) -> int:
        return len(self.points) - 1

    @property
    def start(self) -> SystemPoint:
        return self.points[0]

    @property
    def end(self) -> SystemPoint:
        return self.points[-1]

    def step_errors(self) -> list[Fraction]:
        sys = self.system
        return [sys.distance(sys.step(self.points[i]), self.points[i + 1])
                for i in range(self.step_count)]

    def reverify(self) -> bool:
        return self.system.step_check(self.points, self.delta)[0] is None


def validate(points: Sequence[SystemPoint], delta, system: System,
             kind: Optional[str] = None) -> PseudoOrbit:
    """Certify a point sequence as a delta-pseudo-orbit.

    Raises :class:`PseudoOrbitError` carrying the first violating step index
    and the worst step error.  ``kind`` defaults to loop when the endpoints
    coincide and there is at least one step.
    """
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    pts = tuple(points)
    if not pts:
        raise ValueError("pseudo-orbit must be nonempty")
    first_bad, worst = system.step_check(pts, delta)
    if first_bad is not None:
        raise PseudoOrbitError(first_bad, worst, delta)
    if kind is None:
        kind = LOOP if len(pts) >= 2 and pts[0] == pts[-1] else SEGMENT
    if kind == LOOP and (len(pts) < 2 or pts[0] != pts[-1]):
        raise ValueError("a loop needs at least one step and equal endpoints")
    if kind not in (SEGMENT, LOOP):
        raise ValueError(f"unknown kind {kind!r}")
    return PseudoOrbit(system, pts, delta, kind)


def orbit_segment(system: System, x: SystemPoint, steps: int) -> PseudoOrbit:
    """The true orbit x, f(x), ..., f^steps(x) as a 0-pseudo-orbit."""
    pts = [x]
    for _ in range(steps):
        pts.append(system.step(pts[-1]))
    return PseudoOrbit(system, tuple(pts), Fraction(0),
                       LOOP if steps >= 1 and pts[0] == pts[-1] else SEGMENT)


def concatenate(x: PseudoOrbit, y: PseudoOrbit) -> PseudoOrbit:
    """Join two pseudo-orbits sharing an endpoint.

    The duplicated junction point appears once; the step bound is the max of
    the two bounds and the junction step is re-verified rather than assumed.
    """
    if x.system is not y.system:
        raise ValueError("pseudo-orbits live on different systems")
    if x.end != y.start:
        raise ValueError("endpoint mismatch: X must end where Y begins")
    delta = max(x.delta, y.delta)
    junction_err = x.system.distance(x.system.step(x.end), y.points[1]) if y.step_count else None
    if junction_err is not None and junction_err > delta:
        raise PseudoOrbitError(x.step_count, junction_err, delta)
    pts = x.points + y.points[1:]
    kind = LOOP if len(pts) >= 2 and pts[0] == pts[-1] else SEGMENT
    return PseudoOrbit(x.system, pts, delta, kind)


def repeat(loop: PseudoOrbit, times: int) -> PseudoOrbit:
    """The loop traversed ``times`` times (step counts multiply)."""
    if loop.kind != LOOP:
        raise ValueError("repeat requires a loop")
    if times < 1:
        raise ValueError("times must be a positive integer")
    body = loop.points[:-1]
    pts = body * times + (loop.points[0],)
    return PseudoOrbit(loop.system, pts, loop.delta, LOOP)


def connect(a: SystemPoint, b: SystemPoint, delta, system: System) -> Optional[PseudoOrbit]:
    """A validated delta-chain from a to b, or None (see the system's
    ``chain``: a shortest chain, breadth-first, on a net, where a == b makes
    at least one step; a splice through a periodic point on a shift, None
    when the transition graph admits no connecting paths)."""
    delta = Fraction(delta)
    pts = system.chain(a, b, delta)
    return None if pts is None else validate(pts, delta, system)
