"""Cylinder finitizations: a symbolic system sampled at a fixed window depth
becomes a net system whose points are periodic representatives of the
admissible central words.  Every claim computed on the net carries the depth
it was verified at.
"""

from __future__ import annotations

from fractions import Fraction

from .systems import (BudgetExceeded, NetSystem, SymbolicPoint, SymbolicSystem,
                      word_ultrametric)

# Largest number of cylinder words a finitization may hold.  At this size
# the net's int16 metric takes 32 MB, and its build, with the two n x n
# bool masks of ``word_ultrametric``, peaks near 96 MB of process memory
# (32 MB of it the interpreter and imports).
MAX_POINTS = 4096


class CylinderNet(NetSystem):
    """Net of one periodic representative per admissible word on the window
    [-depth, depth].  Distances between distinct representatives are the
    exact symbolic distances, determined by the words alone: an ultrametric
    by construction, not checked again, held as numerators over 2^depth
    (``word_ultrametric``).

    Net nodes stand for symbolic points: ``node_of`` and ``point_of``
    translate, and ``restrict_to`` keeps the shadowability search on the
    shift inside a node set."""

    def __init__(self, system: SymbolicSystem, depth: int):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.base = system
        self.depth = depth
        count = system.count_words(2 * depth + 1)
        if count > MAX_POINTS:
            raise BudgetExceeded(f"{count} cylinder words at depth {depth} "
                                 f"exceed the budget of {MAX_POINTS}")
        # a word with no representable closure (reducible SFT) gets no node
        cells = [(w, q) for w, q in system.cylinders(-depth, depth) if q is not None]
        self.words_ = tuple(w for w, _ in cells)
        self.reps = tuple(q for _, q in cells)
        self.word_index = {w: i for i, w in enumerate(self.words_)}
        step_map = [self.word_index[w[1:] + (q.coord(depth + 1),)] for w, q in cells]
        super().__init__(self.words_, word_ultrametric(self.words_, depth), step_map,
                         resolution=Fraction(1, 1 << (depth + 1)), invertible=False,
                         metric_check=False, denominator=1 << depth)

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
