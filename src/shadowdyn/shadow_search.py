"""Shadow verification and shadow search.

For net systems a shadow is found (or ruled out) by exhausting the finite
point set.  For symbolic systems the search glues the pseudo-orbit's central
words: a point z epsilon-shadows (x_i) iff z agrees with each x_i on the
shifted window |j| <= t-1 (t the dyadic radius of epsilon), so the candidate
is forced coordinate by coordinate and absence is a proof, not a timeout,
whenever the transition graph is strongly connected.

One search, ``unshadowed``, looks for the first pseudo-orbit with no
shadow on either kind of system.  It walks (point, shadow state) pairs
with the steps the system gives through ``shadow_steps``: on a net the
state is the set of positions a shadow may still hold, on a shift it
records whether the glued windows are still consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .pseudo_orbits import PseudoOrbit
from .systems import BudgetExceeded, SystemPoint


@dataclass(frozen=True)
class ShadowWitness:
    """A point whose orbit stays epsilon-close to a pseudo-orbit segment."""

    shadow_point: SystemPoint
    epsilon: Fraction
    window: tuple  # (first time index, last time index) checked


def _points_of(orbit: Union[PseudoOrbit, Sequence]) -> tuple:
    if isinstance(orbit, PseudoOrbit):
        return orbit.points
    return tuple(orbit)


def shadows(system, z: SystemPoint, orbit, epsilon) -> Optional[ShadowWitness]:
    """Witness that d(f^i(z), x_i) <= epsilon for every index i of the
    pseudo-orbit, or None (the system's ``traces``)."""
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    pts = _points_of(orbit)
    if not system.traces(z, pts, epsilon):
        return None
    return ShadowWitness(z, epsilon, (0, len(pts) - 1))


def find_shadow(system, orbit, epsilon) -> Optional[ShadowWitness]:
    """A shadow witness for a finite pseudo-orbit, or a proof of absence.

    The system finds the shadow (see ``shadow``): the least net point that
    traces, the net exhausted; on a shift the closure of the one glued
    word, or none when the glue fails.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    pts = _points_of(orbit)
    z = system.shadow(pts, epsilon)
    return None if z is None else ShadowWitness(z, epsilon, (0, len(pts) - 1))


# -- the shadowability search -------------------------------------------------


@dataclass
class SearchStats:
    states: int = 0
    budget: int = 10 ** 6

    def tick(self):
        self.states += 1
        if self.states > self.budget:
            raise BudgetExceeded(f"enumeration exceeded {self.budget} states")


def unshadowed(system, starts: Optional[Sequence], epsilon, delta, horizon: int,
               stats: SearchStats, within: Optional[Callable] = None) -> Optional[list]:
    """Lexicographically first delta-pseudo-orbit of at most ``horizon``
    steps from the starts (the system's candidates passing ``within`` when
    None) admitting no epsilon-shadow, or None; successors failing
    ``within`` are skipped.

    Depth-first over (point, shadow state) pairs, with the steps the system
    gives (``shadow_steps``); a path fails exactly when its state becomes 0.
    Safe (point, state) pairs are memoized, across the starts, with the
    depth they were verified to; a state whose bits include a safe one's is
    safe.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    steps = system.shadow_steps(Fraction(epsilon), Fraction(delta))
    if steps is None:
        return None
    candidates, start_state, expand = steps
    if starts is None:
        starts = candidates if within is None else filter(within, candidates)
    memo: dict = {}

    def is_safe(p, state: int, remaining: int) -> bool:
        for s, r in memo.get(p, ()):
            if r >= remaining and not s & ~state:
                return True
        return False

    def mark_safe(p, state: int, remaining: int):
        lst = memo.setdefault(p, [])
        lst[:] = [(s, r) for s, r in lst if state & ~s or r > remaining]
        lst.append((state, remaining))

    path: list = []

    def dfs(p, state: int, remaining: int) -> Optional[list]:
        if remaining == 0:
            return None
        if is_safe(p, state, remaining):
            return None
        stats.tick()
        for q, nxt in expand(p, state):
            if within is not None and not within(q):
                continue
            path.append(q)
            if not nxt:
                return list(path)
            bad = dfs(q, nxt, remaining - 1)
            if bad is not None:
                return bad
            path.pop()
        mark_safe(p, state, remaining)
        return None

    for start in starts:
        path = [start]
        bad = dfs(start, start_state(start), horizon)
        if bad is not None:
            return bad
    return None
