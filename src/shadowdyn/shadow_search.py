"""Shadow verification and shadow search.

For net systems a shadow is found (or ruled out) by exhausting the finite
point set.  For symbolic systems the search glues the pseudo-orbit's central
words: a point z epsilon-shadows (x_i) iff z agrees with each x_i on the
shifted window |j| <= t-1 (t the dyadic radius of epsilon), so the candidate
is forced coordinate by coordinate and absence is a proof, not a timeout,
whenever the transition graph is strongly connected.

The shadowability engines search for the first pseudo-orbit with no
shadow: ``net_shadowability_dfs`` exhausts a net and
``symbolic_shadowability_scan`` scans a shift for inconsistent steps.  Each
system reaches its engine through its ``unshadowed`` method.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .pseudo_orbits import PseudoOrbit
from .systems import (
    BudgetExceeded,
    NetSystem,
    SymbolicPoint,
    SymbolicSystem,
    SystemPoint,
    dyadic_radius,
)


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


# -- shadowability engines ----------------------------------------------------


@dataclass
class SearchStats:
    states: int = 0
    budget: int = 10 ** 6

    def tick(self):
        self.states += 1
        if self.states > self.budget:
            raise BudgetExceeded(f"enumeration exceeded {self.budget} states")


def net_shadowability_dfs(system: NetSystem, starts: Optional[Sequence[int]], epsilon,
                          delta, horizon: int, stats: SearchStats,
                          within: Optional[Callable] = None) -> Optional[list]:
    """Lexicographically first delta-pseudo-orbit from the starts (all nodes
    passing ``within`` when None) admitting no epsilon-shadow; successors
    failing ``within`` are skipped.

    Tracks the surviving shadow positions along each path, as an int bitmask
    (bit w: the shadow may sit at w); a path fails exactly when that set
    empties.  Safe (point, candidate-set) states are memoized, across the
    starts, with the depth they were verified to; supersets of safe sets
    are safe.
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    if starts is None:
        starts = range(system.n) if within is None else list(filter(within, range(system.n)))
    balls = system.ball_masks(epsilon)
    fmap = system.map
    memo: dict = {}

    def succ(p: int):
        out = system.successors(p, delta)
        if within is None:
            return out
        return [q for q in out if within(q)]

    def image(tset: int) -> int:
        out = 0
        while tset:
            low = tset & -tset
            out |= 1 << fmap[low.bit_length() - 1]
            tset ^= low
        return out

    def is_safe(p: int, tset: int, remaining: int) -> bool:
        for s, r in memo.get(p, ()):
            if r >= remaining and not s & ~tset:
                return True
        return False

    def mark_safe(p: int, tset: int, remaining: int):
        lst = memo.setdefault(p, [])
        lst[:] = [(s, r) for s, r in lst if tset & ~s or r > remaining]
        lst.append((tset, remaining))

    path: list = []

    def dfs(p: int, tset: int, remaining: int) -> Optional[list]:
        if remaining == 0:
            return None
        if is_safe(p, tset, remaining):
            return None
        stats.tick()
        advanced = image(tset)
        for q in succ(p):
            filtered = advanced & balls[q]
            path.append(q)
            if not filtered:
                return list(path)
            bad = dfs(q, filtered, remaining - 1)
            if bad is not None:
                return bad
            path.pop()
        mark_safe(p, tset, remaining)
        return None

    for start in starts:
        t0 = balls[start]
        if not t0:
            return [start]  # cannot happen: start shadows itself
        path = [start]
        bad = dfs(start, t0, horizon)
        if bad is not None:
            return bad
    return None


def symbolic_successor_candidates(system: SymbolicSystem, image: SymbolicPoint,
                                  s: int, window_radius: int) -> list:
    """Admissible periodic representatives q with d(image, q) <= 2^-s: the
    closures of the cylinders on the window that agree with the image on
    |j| <= s-1 (every cylinder when s = 0)."""
    fixed = (-(s - 1), s - 1) if s >= 1 else None
    return [q for _, q in system.cylinders(-window_radius, window_radius, image, fixed)
            if q is not None]


def symbolic_edge_good(system: SymbolicSystem, p: SymbolicPoint,
                       q: SymbolicPoint, rho: int) -> bool:
    """Whether the step p -> q keeps glued shadow windows consistent.

    For rho >= 1 this is agreement of f(p) and q on coordinates
    [-rho, rho-1]; for rho = 0 it is admissibility of the glued transition."""
    if rho == 0:
        return system.allowed(p.coord(0), q.coord(0))
    return p.window(1 - rho, rho) == q.window(-rho, rho - 1)


def symbolic_shadowability_scan(system: SymbolicSystem,
                                starts: Optional[Sequence[SymbolicPoint]],
                                epsilon, delta, horizon: int, stats: SearchStats,
                                within: Optional[Callable] = None) -> Optional[list]:
    """First (in DFS/lex order) delta-pseudo-orbit from the given start
    points with no epsilon-shadow, or None.  ``starts=None`` quantifies over
    the cylinder candidates: periodic closures of every admissible word on
    the candidate window.  Points failing ``within`` are skipped, as starts
    and as successors.

    Exact for strongly connected transition graphs: a path is unshadowable
    iff it contains an inconsistent step, so the scan looks for the first
    reachable bad edge within the horizon.
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    if epsilon >= 1:
        return None  # everything is shadowed by any point
    t = dyadic_radius(epsilon)
    rho = t - 1
    s = dyadic_radius(delta) if delta > 0 else None
    if s is None:
        # delta = 0: pseudo-orbits are orbits, shadowed by their start point
        return None
    window_radius = max(s, rho + 1)

    if (rho >= 1 and s - 1 >= rho) or (rho == 0 and s >= 1):
        # every delta-step forces agreement beyond the shadow window:
        # all edges are consistent, so every pseudo-orbit glues to a shadow
        return None
    if starts is None:
        starts = [p for _, p in system.cylinders(-window_radius, window_radius)
                  if p is not None and (within is None or within(p))]

    seen: dict = {}
    path: list = []

    def dfs(p: SymbolicPoint, remaining: int) -> Optional[list]:
        if remaining == 0:
            return None
        prev = seen.get(p)
        if prev is not None and prev >= remaining:
            return None
        seen[p] = remaining
        stats.tick()
        img = p.shift(1)
        for q in symbolic_successor_candidates(system, img, s, window_radius):
            if within is not None and not within(q):
                continue
            path.append(q)
            if not symbolic_edge_good(system, p, q, rho):
                return list(path)
            bad = dfs(q, remaining - 1)
            if bad is not None:
                return bad
            path.pop()
        return None

    for x in starts:
        path = [x]
        bad = dfs(x, horizon)
        if bad is not None:
            return bad
    return None
