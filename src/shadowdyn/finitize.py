"""Cylinder finitizations: a symbolic system sampled at a fixed window depth
becomes a net system whose points are periodic representatives of the
admissible central words.  Every claim computed on the net carries the depth
it was verified at.
"""

from __future__ import annotations

from fractions import Fraction

from .systems import BudgetExceeded, NetSystem, SymbolicPoint, SymbolicSystem

# Largest number of cylinder words a finitization may hold.
MAX_POINTS = 20000


class CylinderNet(NetSystem):
    """Net of one periodic representative per admissible word on the window
    [-depth, depth].  Distances between distinct representatives are the
    exact symbolic distances, which are determined by the words alone.

    Net nodes stand for symbolic points: ``node_of`` and ``point_of``
    translate, and ``restrict_to`` keeps the symbolic shadowability scan
    inside a node set."""

    def __init__(self, system: SymbolicSystem, depth: int):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.base = system
        self.depth = depth
        width = 2 * depth + 1
        if system.count_words(width) > MAX_POINTS:
            raise BudgetExceeded(
                f"{system.count_words(width)} cylinder words at depth {depth} "
                f"exceed the budget of {MAX_POINTS}")
        words = []
        reps = []
        for w in system.words(width):
            rep = system.periodic_closure(w, anchor=-depth)
            if rep is None:
                continue  # word admits no representable closure (reducible SFT)
            words.append(w)
            reps.append(rep)
        self.words_ = tuple(words)
        self.reps = tuple(reps)
        self.word_index = {w: i for i, w in enumerate(words)}

        step_map = []
        for i, w in enumerate(words):
            nxt = w[1:] + (reps[i].coord(depth + 1),)
            step_map.append(self.word_index[nxt])

        def dist(i: int, j: int) -> Fraction:
            if i == j:
                return Fraction(0)
            wi, wj = words[i], words[j]
            for a in range(depth + 1):
                if wi[depth + a] != wj[depth + a] or wi[depth - a] != wj[depth - a]:
                    return Fraction(1, 1 << a)
            raise AssertionError("distinct words must disagree inside the window")

        super().__init__(words, dist, step_map,
                         resolution=Fraction(1, 1 << (depth + 1)),
                         invertible=False, metric_check="skip")
        # the ultrametric identity makes the full triangle check redundant,
        # but run it anyway on small nets
        if self.n <= 512:
            rep = self.validate_metric()
            if not rep.ok:
                raise AssertionError(rep.summary())
            self.metric_report = rep

    def node_of(self, p: SymbolicPoint) -> int:
        """Net point whose cylinder contains p (same central window)."""
        w = p.window(-self.depth, self.depth)
        idx = self.word_index.get(w)
        if idx is None:
            raise ValueError("point's central word is not represented in this net")
        return idx

    def point_of(self, node: int) -> SymbolicPoint:
        return self.reps[node]

    def restrict_to(self, nodes):
        """The test keeping symbolic pseudo-orbits inside the given nodes: a
        point passes when its central word is one of theirs."""
        members = frozenset(nodes)

        def inside(q: SymbolicPoint) -> bool:
            i = self.word_index.get(q.window(-self.depth, self.depth))
            return i is not None and i in members

        return inside
