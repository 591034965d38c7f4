"""Chain recurrence: delta-chain graphs, recurrent sets, chain classes and
the cycle realization of nearby minimal points.

A node is chain recurrent at delta iff it lies on a directed cycle of the
delta-transition graph (edges a -> b iff d(f(a), b) <= delta, a closed
inequality so the boundary is deterministic in exact arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .pseudo_orbits import connect, repeat
from .shadow_search import find_shadow
from .systems import NetSystem, SymbolicSystem


@dataclass(frozen=True)
class ChainGraph:
    """Delta-transition graph of a net system (possibly a finitized symbolic
    system, in which case ``depth_stamp`` records the cylinder depth)."""

    system: NetSystem
    delta: Fraction
    succ: tuple
    depth_stamp: Optional[int] = None

    @property
    def n(self) -> int:
        return len(self.succ)


@dataclass(frozen=True)
class ChainClassDecomposition:
    recurrent_nodes: frozenset
    classes: tuple  # of frozensets, disjoint, covering recurrent_nodes


def build_chain_graph(system: Union[NetSystem, SymbolicSystem], delta,
                      depth: Optional[int] = None) -> ChainGraph:
    """Exact delta-adjacency.  Symbolic systems are finitized at ``depth``."""
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    net = system.chain_net(depth)
    succ = tuple(net.successors(i, delta) for i in range(net.n))
    return ChainGraph(net, delta, succ, net.depth)


def strongly_connected_components(succ: Sequence[Sequence[int]]) -> list:
    """Tarjan's algorithm, nonrecursive.  Components in reverse topological
    order; each is a list of node indices."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(succ[v])):
                w = succ[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)
    return components


def chain_recurrent_set(graph: ChainGraph) -> frozenset:
    """Nodes on directed cycles; singleton components count only with a
    self-loop."""
    return decomposition(graph).recurrent_nodes


def decomposition(graph: ChainGraph) -> ChainClassDecomposition:
    classes = []
    recurrent = set()
    for comp in strongly_connected_components(graph.succ):
        if len(comp) > 1 or comp[0] in graph.succ[comp[0]]:
            cls = frozenset(comp)
            classes.append(cls)
            recurrent.update(comp)
    classes.sort(key=min)
    return ChainClassDecomposition(frozenset(recurrent), tuple(classes))


def chain_class(graph: ChainGraph, x: int) -> frozenset:
    """H(x): the strongly connected component of a recurrent node."""
    for cls in decomposition(graph).classes:
        if x in cls:
            return cls
    raise ValueError(f"node {x} is not chain recurrent at delta={graph.delta}")


def cycle_of(system: NetSystem, x: int) -> tuple:
    """The eventual cycle of the sampled orbit of x (entered within n steps)."""
    seen = {}
    cur = x
    t = 0
    while cur not in seen:
        seen[cur] = t
        cur = system.step(cur)
        t += 1
    entry = seen[cur]
    orbit = sorted(seen, key=seen.get)
    return tuple(orbit[entry:])


def nearest_minimal_point(z: int, system: NetSystem, radius) -> Optional[int]:
    """A point on a sampled-map cycle near z.

    Realized constructively with delta = epsilon = radius/2: build a
    delta-chain loop through z, shadow its periodic extension at epsilon,
    and take the point the shadow orbit visits on its eventual cycle at a
    multiple of the loop length.  Returns None when no delta-chain loop
    passes through z.
    """
    radius = Fraction(radius)
    if z in cycle_of(system, z):
        return z
    if radius <= 0:
        raise ValueError("radius must be positive")
    delta = epsilon = radius / 2
    loop = connect(z, z, delta, system)
    if loop is None:
        return None
    n = loop.step_count
    reps = system.n // n + 2
    extended = repeat(loop, reps)
    witness = find_shadow(system, extended, epsilon)
    if witness is None:
        return None
    p = witness.shadow_point
    cyc = set(cycle_of(system, p))
    cur = p
    for k in range(reps + 1):
        if cur in cyc:
            # d(f^{kn}(p), z) <= epsilon by the shadowing clause
            assert system.distance(cur, z) <= radius + delta + epsilon
            return cur
        cur = system.iterate(cur, n)
    return None


@dataclass
class EquicontinuityReport:
    verdict: str  # "sensitive" or "equicontinuous"
    constant: Fraction  # min over balls of the max image diameter
    epsilon: Fraction
    horizon: int
    worst_ball: Optional[int] = None  # center whose ball expands least

    @property
    def sensitive(self) -> bool:
        return self.verdict == "sensitive"


def is_equicontinuous_at_resolution(system: NetSystem, nodes: Sequence[int],
                                    epsilon, horizon: int) -> EquicontinuityReport:
    """Expansion of epsilon-balls within an invariant node set.

    For each ball B(p, epsilon) in the set, takes the max over n <= horizon
    of diam(f^n(B)); the verdict is "sensitive" (with the min of those maxima
    as the constant) when every ball expands beyond its own diameter bound
    2*epsilon, else "equicontinuous at this resolution".
    """
    epsilon = Fraction(epsilon)
    nodes = sorted(set(nodes))
    node_set = set(nodes)
    for p in nodes:
        if system.step(p) not in node_set:
            raise ValueError("node set is not invariant under the sampled map")

    def diam(points: set) -> Fraction:
        pts = sorted(points)
        best = Fraction(0)
        for i in range(len(pts)):
            row = system.row(pts[i])
            for j in range(i + 1, len(pts)):
                d = row[pts[j]]
                if d > best:
                    best = d
        return best

    close = system.closeness(epsilon)
    worst = None
    worst_center = None
    for p in nodes:
        ball = {q for q in nodes if close(p, q)}
        expansion = diam(ball)
        current = set(ball)
        for _ in range(horizon):
            current = {system.step(q) for q in current}
            d = diam(current)
            if d > expansion:
                expansion = d
        if worst is None or expansion < worst:
            worst = expansion
            worst_center = p
    verdict = "sensitive" if worst > 2 * epsilon else "equicontinuous"
    return EquicontinuityReport(verdict, worst, epsilon, horizon, worst_center)
