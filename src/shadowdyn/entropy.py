"""Separated sets, entropy slope estimates and dynamical-ball witnesses.

Separated-set maxima are exact: a branch-and-bound maximum clique search on
the separation graph for explicit candidate lists, and a word-counting
argument for cylinder universes of symbolic systems (two points separate
within n steps iff their windows on [-t', n+t'] differ, t' the largest i
with 2^-i > epsilon).  The separation graph is the complement of the AND
of the system's ``close_masks`` at steps 0..n; a net answers those from
its integer metric.  ``is_separated`` and ``SeparatedSetResult.reverify``
test pairs one by one, as the independent check.  Step counts are >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .systems import BudgetExceeded, SymbolicSystem, dyadic_radius

# Largest candidate list searched exactly for a maximum separated set.
CLIQUE_LIMIT = 4096
# Largest witness set of cylinder closures built for a separated count.
MATERIALIZE_LIMIT = 4096


@dataclass
class SeparatedSetResult:
    n: int
    epsilon: Fraction
    cardinality: int
    witness: tuple  # points (possibly empty when only the count is materialized)
    universe: str = "candidates"

    def reverify(self, system) -> bool:
        pts = self.witness
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if not is_separated(system, pts[i], pts[j], self.n, self.epsilon):
                    return False
        return True


def is_separated(system, x, y, n: int, epsilon) -> bool:
    """Whether some iterate 0 <= i <= n puts x, y at distance > epsilon."""
    close = system.closeness(Fraction(epsilon))
    a, b = x, y
    for _ in range(n + 1):
        if not close(a, b):
            return True
        a, b = system.step(a), system.step(b)
    return False


def max_clique(neighbors: Sequence[int], n: int) -> list:
    """Exact maximum clique via greedy-coloring branch and bound.

    ``neighbors[i]`` is a bitmask of vertices adjacent to i.  The branches
    live on an explicit stack, so a clique of any size leaves the
    interpreter's recursion limit alone.
    """

    def color_sort(cand: int):
        order = []
        bounds = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~neighbors[v] & ~(1 << v)
                rest &= ~(1 << v)
                order.append(v)
                bounds.append(color)
        return order, bounds

    best: list[int] = []
    clique: list[int] = []
    full = (1 << n) - 1
    # one frame per vertex of the clique and one for the root: [order,
    # colour bounds, next index (taken downwards), candidates left]
    order, bounds = color_sort(full)
    stack = [[order, bounds, len(order) - 1, full]]
    while stack:
        frame = stack[-1]
        order, bounds, i, cand = frame
        if i < 0 or len(clique) + bounds[i] <= len(best):
            stack.pop()
            if stack:
                clique.pop()
            continue
        v = order[i]
        frame[2], frame[3] = i - 1, cand & ~(1 << v)
        clique.append(v)
        nxt = cand & neighbors[v]
        if nxt:
            order, bounds = color_sort(nxt)
            stack.append([order, bounds, len(order) - 1, nxt])
            continue
        if len(clique) > len(best):
            best = list(clique)
        clique.pop()
    return sorted(best)


def separated_set(system, candidates: Sequence, n: int, epsilon) -> SeparatedSetResult:
    """Largest pairwise (n, epsilon)-separated subset of the candidates,
    by exact clique search.  Two candidates are adjacent unless they stay
    epsilon-close at every step 0..n: the AND of the steps' ``close_masks``
    (on a net, integer comparisons on the metric).  More than
    ``CLIQUE_LIMIT`` candidates raise ``BudgetExceeded``.
    """
    epsilon = Fraction(epsilon)
    if n < 0:
        raise ValueError("n must be >= 0")
    cands = list(candidates)
    m = len(cands)
    if m == 0:
        raise ValueError("need at least one candidate")
    if m > CLIQUE_LIMIT:
        raise BudgetExceeded(f"{m} candidates exceed the clique search budget of {CLIQUE_LIMIT}")

    points = cands
    close = system.close_masks(points, epsilon)
    for _ in range(n):
        points = [system.step(x) for x in points]
        close = [a & b for a, b in zip(close, system.close_masks(points, epsilon))]
    full = (1 << m) - 1
    neighbors = [full & ~(c | 1 << i) for i, c in enumerate(close)]
    chosen = max_clique(neighbors, m)
    return SeparatedSetResult(n, epsilon, len(chosen), tuple(cands[i] for i in chosen))


def separation_window(epsilon) -> Optional[int]:
    """Largest i with 2^-i > epsilon (None when epsilon >= 1)."""
    epsilon = Fraction(epsilon)
    if epsilon >= 1:
        return None
    return dyadic_radius(epsilon) - 1


def max_separated_cylinders(system: SymbolicSystem, n: int, epsilon) -> SeparatedSetResult:
    """Exact S(n, epsilon) over the whole symbolic system.

    Points separate within n steps iff their words on [-t', n+t'] differ
    (t' = separation window), so the maximum equals the number of admissible
    words of length n + 2 t' + 1.  The witness set (periodic closures of
    those words) is materialized only when small.
    """
    epsilon = Fraction(epsilon)
    if n < 0:
        raise ValueError("n must be >= 0")
    tp = separation_window(epsilon)
    if tp is None:
        # no pair of points is ever further apart than epsilon
        single = system.cylinders(0, 0)[0][1]
        return SeparatedSetResult(n, epsilon, 1, (single,), universe="whole system")
    count = system.separated_count(n, epsilon)
    witness: tuple = ()
    if count <= MATERIALIZE_LIMIT:
        witness = tuple(p for _, p in system.cylinders(-tp, n + tp) if p is not None)
        if len(witness) != count:
            raise ValueError("cylinder word admits no periodic closure; "
                             "exact count needs an irreducible system")
    return SeparatedSetResult(n, epsilon, count, witness, universe="whole system")


@dataclass
class EntropyEstimate:
    epsilon: Fraction
    entries: list            # (n, cardinality)
    slope: float             # least-squares slope of log S(n) against n
    intercept: float
    residuals: list


def entropy_estimate(system, epsilon, n_range: Sequence[int],
                     candidates: Optional[Sequence] = None) -> EntropyEstimate:
    """Least-squares slope of log S(n, epsilon) as a function of n.

    Without candidates, systems with a counting argument (symbolic systems:
    exact cylinder counts) use it; net systems search every net point.
    """
    epsilon = Fraction(epsilon)
    ns = list(n_range)
    if len(ns) < 2:
        raise ValueError("need at least two n values")
    if min(ns) < 0:
        raise ValueError("n must be >= 0")
    entries = []
    for n in ns:
        count = system.separated_count(n, epsilon) if candidates is None else None
        if count is None:
            cands = candidates if candidates is not None else range(system.n)
            count = separated_set(system, cands, n, epsilon).cardinality
        entries.append((n, count))
    xs = [float(n) for n, _ in entries]
    ys = [math.log(c) for _, c in entries]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residuals = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    return EntropyEstimate(epsilon, entries, slope, intercept, residuals)


@dataclass
class DynamicalBallReport:
    center: object
    radius: Fraction
    horizon: int
    members: tuple
    cardinality: int
    universe: str
    stamps: dict = field(default_factory=dict)


def expansivity_witness(system, x, e, horizon: int,
                        depth: Optional[int] = None) -> DynamicalBallReport:
    """The finite-horizon dynamical ball around x.

    Net systems: members q with d(f^i(x), f^i(q)) <= e for |i| <= horizon
    (forward window only when the map is not invertible).  Symbolic systems:
    the ball is a cylinder; members are the depth-``depth`` words extending
    its forced window, realized as periodic closures.
    """
    e = Fraction(e)
    members, count, universe, stamps = system.dynamical_ball(x, e, horizon, depth)
    return DynamicalBallReport(x, e, horizon, members, count, universe, stamps)
