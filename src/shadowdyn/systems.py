"""Finite-resolution dynamical systems with exact arithmetic.

Two kinds of systems are supported:

* symbolic systems: subshifts of finite type given by a transition matrix,
  acting by the left shift on bi-infinite, eventually periodic sequences;
* net systems: a finite indexed point set with an exact rational metric and
  a sampled self-map.

All distances are `fractions.Fraction` values, so comparisons against
tolerance parameters are deterministic and reproducible.

The system protocol.  Everything that differs between a shift and a net is
a method of :class:`SymbolicSystem` and :class:`NetSystem` (and of the
cylinder finitization ``finitize.CylinderNet``), so the algorithm modules
never test the kind of a system or point:

* points and dynamics: ``check_point``, ``step``, ``iterate``,
  ``distance``, ``closeness(eps)`` (the test d <= eps, built once per call),
  ``period``;
* shadow search: ``shadow_candidates`` (every net point, or the one glued
  word of a shift) and ``universe``, the stamp of the quantified universe;
* chains and loops: ``chain(a, b, delta)`` (breadth-first on nets, spliced
  on shifts), ``dwell_loop``, ``loop_candidates``, ``neighborhood``;
* chain classes: ``chain_net(depth)`` (the net itself, or the cylinder net
  of a shift) with ``node_of``, ``point_of`` and ``restrict_to`` on nets;
* measures and entropy: ``test_centers``, ``sample_point``,
  ``nearby_point``, ``separated_count`` and ``dynamical_ball``.

Symbolic points order by their canonical form, which fixes the atom order
of empirical measures.  The method results are plain points and point
lists; validation into pseudo-orbits stays in ``pseudo_orbits``.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)

# Number of coordinates (each side of 0) packed into the fast comparison word.
_PACK_RADIUS = 24

# Triangle-inequality triples checked by a sampled metric validation.
_SAMPLE_TRIPLES = 200000


class BudgetExceeded(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


def dyadic_radius(eps: Fraction) -> int:
    """Smallest t >= 0 with 2^-t <= eps.

    Agreement of two sequences on all coordinates |j| <= t-1 is equivalent
    to their distance being <= eps.  Requires eps > 0.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = 0
    value = ONE
    while value > eps:
        t += 1
        value /= 2
    return t


@lru_cache(maxsize=65536)
def _primitive_root(word: tuple) -> tuple:
    # KMP failure function gives the shortest period in linear time
    m = len(word)
    fail = [0] * m
    k = 0
    for i in range(1, m):
        while k and word[i] != word[k]:
            k = fail[k - 1]
        if word[i] == word[k]:
            k += 1
        fail[i] = k
    d = m - fail[-1] if m else 0
    if d and m % d == 0:
        return word[:d]
    return word


@lru_cache(maxsize=65536)
def _least_rotation(word: tuple) -> tuple[tuple, int]:
    """Return (lexicographically least rotation, rotation offset k), with
    rotation[i] == word[(i + k) % len(word)].  Booth's algorithm."""
    m = len(word)
    doubled = word + word
    k = 0
    i, j = 0, 1
    while i < m and j < m:
        span = 0
        while span < m and doubled[i + span] == doubled[j + span]:
            span += 1
        if span >= m:
            break
        if doubled[i + span] > doubled[j + span]:
            i = max(i + span + 1, j)
            j = i + 1
        else:
            j = j + span + 1
    best_k = min(i, j)
    return doubled[best_k:best_k + m], best_k


class SymbolicPoint:
    """A bi-infinite, eventually periodic symbol sequence.

    The representation is a central word placed at ``offset`` with the same
    periodic word repeated on both tails:

        x_j = word[j - offset]                      offset <= j < offset+len(word)
        x_j = period[(j - offset - len(word)) % m]  j >= offset + len(word)
        x_j = period[(j - offset) % m]              j < offset

    Equality of two representations (as sequences) is decidable and is what
    ``==`` implements; hashing is consistent with it.
    """

    __slots__ = ("offset", "word", "period", "alphabet_size",
                 "_canon", "_packed", "_hash")

    def __init__(self, period: Sequence[int], word: Sequence[int] = (),
                 offset: int = 0, alphabet_size: Optional[int] = None):
        period = tuple(int(s) for s in period)
        word = tuple(int(s) for s in word)
        if not period:
            raise ValueError("period word must be nonempty")
        self.period = period
        self.word = word
        self.offset = int(offset)
        if alphabet_size is not None:
            top = max(max(period), max(word, default=0))
            if top >= alphabet_size:
                raise ValueError("symbols must be smaller than the alphabet size")
        self.alphabet_size = alphabet_size
        self._canon = None
        self._packed = None
        self._hash = None

    # -- coordinate access ------------------------------------------------

    def coord(self, j: int) -> int:
        lo = self.offset
        hi = self.offset + len(self.word)
        if lo <= j < hi:
            return self.word[j - lo]
        if j >= hi:
            return self.period[(j - hi) % len(self.period)]
        return self.period[(j - lo) % len(self.period)]

    def window(self, lo: int, hi: int) -> tuple:
        """Coordinates lo..hi inclusive."""
        return tuple(self.coord(j) for j in range(lo, hi + 1))

    def shift(self, k: int = 1) -> "SymbolicPoint":
        """The sequence y with y_j = x_{j+k} (k-fold left shift)."""
        return SymbolicPoint(self.period, self.word, self.offset - k,
                             self.alphabet_size)

    def max_symbol(self) -> int:
        return max(max(self.period), max(self.word, default=0))

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> tuple:
        """Representation-independent description of the sequence.

        Purely periodic sequences canonicalize to ("per", necklace, phase);
        all others to ("ev", necklace, phiL, phiR, a, b, middle) where the
        sequence equals the necklace pattern with phase phiL strictly left
        of a, the pattern with phase phiR from b on, and ``middle`` lists
        the coordinates a..b-1.
        """
        if self._canon is not None:
            return self._canon
        root = _primitive_root(self.period)
        d = len(root)
        neck, kstar = _least_rotation(root)
        L = len(self.word)
        off = self.offset
        phi_l = (-off - kstar) % d
        phi_r = (-off - L - kstar) % d

        a = None
        for j in range(off, off + L + d):
            if self.coord(j) != neck[(j + phi_l) % d]:
                a = j
                break
        if a is None:
            self._canon = ("per", neck, phi_l)
            return self._canon

        b = None
        for j in range(off + L - 1, off - d - 2, -1):
            if self.coord(j) != neck[(j + phi_r) % d]:
                b = j + 1
                break
        assert b is not None, "inconsistent canonical scan"
        middle = tuple(self.coord(j) for j in range(a, b))
        self._canon = ("ev", neck, phi_l, phi_r, a, b, middle)
        return self._canon

    def least_period(self) -> Optional[int]:
        """Length of the primitive period if the sequence is periodic."""
        canon = self.canonical()
        if canon[0] != "per":
            return None
        return len(canon[1])

    def _pack(self) -> int:
        # Coordinates 0, -1, 1, -2, 2, ... at 3 bits each; groups are ordered
        # by |j|, so the lowest differing group locates the least |j| that
        # disagrees (symbols must fit 3 bits, enforced by system constructors).
        if self._packed is None:
            acc = 0
            shiftv = 0
            for i in range(_PACK_RADIUS + 1):
                acc |= (self.coord(i) & 0x7) << shiftv
                shiftv += 3
                if i:
                    acc |= (self.coord(-i) & 0x7) << shiftv
                    shiftv += 3
            self._packed = acc
        return self._packed

    def _span(self) -> tuple[int, int, int]:
        """(left bound, right bound, primitive period length) beyond which
        the sequence is purely periodic."""
        canon = self.canonical()
        if canon[0] == "per":
            return 0, 0, len(canon[1])
        _, neck, _, _, a, b, _ = canon
        return a, b, len(neck)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SymbolicPoint):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __lt__(self, other: "SymbolicPoint") -> bool:
        return self.canonical() < other.canonical()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.canonical())
        return self._hash

    def __repr__(self) -> str:
        w = "".join(map(str, self.word))
        p = "".join(map(str, self.period))
        if w:
            return f"SymbolicPoint({w}@{self.offset}, ({p})*)"
        return f"SymbolicPoint(({p})* @ {self.offset})"


def first_disagreement(a: SymbolicPoint, b: SymbolicPoint) -> Optional[int]:
    """Least |j| at which the sequences disagree, or None if equal."""
    pa, pb = a._pack(), b._pack()
    diff = pa ^ pb
    if diff:
        group = (diff & -diff).bit_length() - 1
        group //= 3
        return (group + 1) // 2
    la, ra, da = a._span()
    lb, rb, db = b._span()
    lam = math.lcm(da, db)
    bound = max(abs(la), abs(ra), abs(lb), abs(rb), _PACK_RADIUS) + lam + 1
    for i in range(_PACK_RADIUS + 1, bound + 1):
        if a.coord(i) != b.coord(i) or a.coord(-i) != b.coord(-i):
            return i
    return None


def symbolic_distance(a: SymbolicPoint, b: SymbolicPoint) -> Fraction:
    """Exact distance 2^-i where i is the least |j| with a_j != b_j.

    Equal sequences (decided from the representations) give 0;
    disagreements at any depth are located exactly.
    """
    if (a.alphabet_size is not None and b.alphabet_size is not None
            and a.alphabet_size != b.alphabet_size):
        raise ValueError("alphabet mismatch")
    i = first_disagreement(a, b)
    if i is None:
        return ZERO
    return Fraction(1, 1 << i)


def agree_on_window(a: SymbolicPoint, b: SymbolicPoint, lo: int, hi: int) -> bool:
    for j in range(lo, hi + 1):
        if a.coord(j) != b.coord(j):
            return False
    return True


def distance_le(a: SymbolicPoint, b: SymbolicPoint, t: int) -> bool:
    """Whether d(a, b) <= 2^-t, i.e. agreement on all |j| <= t-1."""
    if t <= 0:
        return True
    if t - 1 <= _PACK_RADIUS:
        mask = (1 << (3 * (2 * t - 1))) - 1
        return (a._pack() & mask) == (b._pack() & mask)
    return agree_on_window(a, b, -(t - 1), t - 1)


def glue_constraints(pts: Sequence[SymbolicPoint], rho: int) -> Optional[dict]:
    """Coordinate constraints forced on any shadow agreeing with each x_i on
    the window |j| <= rho.  None when two windows conflict (no shadow)."""
    constraints: dict[int, int] = {}
    for i, x in enumerate(pts):
        for j in range(-rho, rho + 1):
            c = i + j
            s = x.coord(j)
            old = constraints.get(c)
            if old is None:
                constraints[c] = s
            elif old != s:
                return None
    return constraints


def _shift_orbit(p: SymbolicPoint, steps: int) -> list:
    """The points p, f(p), ..., f^steps(p)."""
    pts = [p]
    for _ in range(steps):
        pts.append(pts[-1].shift(1))
    return pts


class SymbolicSystem:
    """A subshift of finite type: the shift map on admissible sequences.

    ``transitions[a][b]`` nonzero means the word ``ab`` is allowed.  The
    all-ones matrix encodes the full shift on ``alphabet_size`` symbols.
    """

    kind = "symbolic"
    universe = "cylinder-candidates"
    invertible = True

    def __init__(self, alphabet_size: int, transitions: Optional[Sequence[Sequence[int]]] = None):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        if alphabet_size > 8:
            raise ValueError("alphabets larger than 8 symbols are not supported")
        self.alphabet_size = alphabet_size
        if transitions is None:
            transitions = [[1] * alphabet_size for _ in range(alphabet_size)]
        mat = [tuple(1 if v else 0 for v in row) for row in transitions]
        if len(mat) != alphabet_size or any(len(r) != alphabet_size for r in mat):
            raise ValueError("transition matrix shape mismatch")
        for i in range(alphabet_size):
            if not any(mat[i][j] for j in range(alphabet_size)):
                raise ValueError(f"symbol {i} has no outgoing transition")
            if not any(mat[j][i] for j in range(alphabet_size)):
                raise ValueError(f"symbol {i} has no incoming transition")
        self.transitions = tuple(mat)
        self._succ = tuple(tuple(j for j in range(alphabet_size) if mat[i][j])
                           for i in range(alphabet_size))
        self._pred = tuple(tuple(j for j in range(alphabet_size) if mat[j][i])
                           for i in range(alphabet_size))

    @classmethod
    def full_shift(cls, k: int) -> "SymbolicSystem":
        return cls(k)

    @classmethod
    def golden_mean(cls) -> "SymbolicSystem":
        """Binary shift forbidding the word 11."""
        return cls(2, [[1, 1], [1, 0]])

    # -- admissibility -----------------------------------------------------

    def allowed(self, a: int, b: int) -> bool:
        return bool(self.transitions[a][b])

    def word_admissible(self, word: Sequence[int]) -> bool:
        for s in word:
            if not 0 <= s < self.alphabet_size:
                return False
        return all(self.transitions[word[i]][word[i + 1]] for i in range(len(word) - 1))

    def admissible(self, p: SymbolicPoint) -> bool:
        """Whether every symbol is in the alphabet and every transition of
        the sequence is allowed."""
        per, word = p.period, p.word
        m = len(per)
        for i in range(m):
            # the successor list rejects any out-of-range successor symbol
            if not (0 <= per[i] < self.alphabet_size
                    and per[(i + 1) % m] in self._succ[per[i]]):
                return False
        if word:
            if not self.word_admissible(word):
                return False
            if not self.transitions[per[m - 1]][word[0]]:
                return False
            if not self.transitions[word[-1]][per[0]]:
                return False
        return True

    def point(self, period: Sequence[int], word: Sequence[int] = (), offset: int = 0) -> SymbolicPoint:
        p = SymbolicPoint(period, word, offset, self.alphabet_size)
        if not self.admissible(p):
            raise ValueError("point is not admissible for this system")
        return p

    def fixed_point(self, symbol: int) -> SymbolicPoint:
        if not self.transitions[symbol][symbol]:
            raise ValueError(f"symbol {symbol} has no self-transition")
        return SymbolicPoint((symbol,), alphabet_size=self.alphabet_size)

    # -- words and closures --------------------------------------------------

    def words(self, length: int) -> list[tuple]:
        """All admissible words of the given length, lexicographic order."""
        if length == 0:
            return [()]
        out = [(s,) for s in range(self.alphabet_size)]
        for _ in range(length - 1):
            out = [w + (s,) for w in out for s in self._succ[w[-1]]]
        return out

    def count_words(self, length: int) -> int:
        if length == 0:
            return 1
        vec = [1] * self.alphabet_size
        for _ in range(length - 1):
            vec = [sum(vec[j] for j in self._succ[i]) for i in range(self.alphabet_size)]
        return sum(vec)

    def connecting_path(self, a: int, b: int, min_steps: int = 1) -> Optional[tuple]:
        """Shortest admissible word (a, ..., b) with >= min_steps transitions.

        Ties go to the lowest symbols (BFS expands successors ascending)."""
        from collections import deque

        start = (a, 0)
        prev: dict = {start: None}
        queue = deque([start])
        goal = None
        while queue and goal is None:
            u, s = queue.popleft()
            for v in self._succ[u]:
                state = (v, min(s + 1, min_steps))
                if state in prev:
                    continue
                prev[state] = (u, s)
                if v == b and state[1] >= min_steps:
                    goal = state
                    break
                queue.append(state)
        if goal is None:
            return None
        path = []
        cur = goal
        while cur is not None:
            path.append(cur[0])
            cur = prev[cur]
        path.reverse()
        return tuple(path)

    def periodic_closure(self, word: Sequence[int], anchor: int = 0) -> Optional[SymbolicPoint]:
        """A periodic admissible point whose window starting at ``anchor``
        equals ``word``, built by closing the word with a shortest connecting
        path.  None when no admissible closure exists."""
        word = tuple(word)
        if not word:
            raise ValueError("word must be nonempty")
        if not self.word_admissible(word):
            return None
        path = self.connecting_path(word[-1], word[0], min_steps=1)
        if path is None:
            return None
        period = word + path[1:-1]
        p = SymbolicPoint(period, (), anchor)
        assert self.admissible(p)
        return p

    # -- dynamics ------------------------------------------------------------

    def check_point(self, p) -> None:
        if not isinstance(p, SymbolicPoint):
            raise ValueError(f"{p!r} is not a symbolic point")
        if not self.admissible(p):
            raise ValueError("point is not admissible for this system")

    def step(self, p: SymbolicPoint) -> SymbolicPoint:
        return p.shift(1)

    def iterate(self, p: SymbolicPoint, k: int) -> SymbolicPoint:
        return p.shift(k)

    def period(self, p: SymbolicPoint) -> Optional[int]:
        return p.least_period()

    def distance(self, a: SymbolicPoint, b: SymbolicPoint) -> Fraction:
        if a.max_symbol() >= self.alphabet_size or b.max_symbol() >= self.alphabet_size:
            raise ValueError("alphabet mismatch")
        return symbolic_distance(a, b)

    def distance_le(self, a: SymbolicPoint, b: SymbolicPoint, eps: Fraction) -> bool:
        return distance_le(a, b, dyadic_radius(eps))

    def closeness(self, eps: Fraction) -> Callable:
        """The test d(a, b) <= eps: equality at 0, agreement on |j| <= t-1
        (2^-t <= eps) below 1, always true from 1 on."""
        if eps == 0:
            return operator.eq
        if eps >= 1:
            return lambda a, b: True
        t = dyadic_radius(eps)
        return lambda a, b: distance_le(a, b, t)

    def diameter_bound(self) -> Fraction:
        return ONE

    # -- shadows, chains and loops ---------------------------------------------

    def shadow_candidates(self, pts: Sequence[SymbolicPoint], eps: Fraction) -> tuple:
        """(candidates, glued) for an eps-shadow of the sequence.

        A shadow agrees with each x_i on the shifted window |j| <= t-1, so
        gluing those windows forces the only candidate (glued: it must
        shadow); a window conflict or an inadmissible glue rules every
        shadow out.  (On a reducible transition graph the glued word may
        admit no eventually periodic closure; no candidate then means no
        *representable* witness.)
        """
        if eps == 0 or eps >= 1:
            # only an orbit is 0-shadowed, by its start; from 1 on anything shadows
            return (pts[0],), False
        rho = dyadic_radius(eps) - 1
        cons = glue_constraints(pts, rho)
        if cons is None:
            return (), True
        word = tuple(cons[c] for c in range(-rho, len(pts) + rho))
        z = self.periodic_closure(word, anchor=-rho)
        return ((z,) if z is not None else ()), True

    def chain(self, a: SymbolicPoint, b: SymbolicPoint, delta: Fraction) -> Optional[list]:
        """Points of a delta-chain from a to b.

        Jumps into a periodic splice point whose window copies f(a), rides the
        shift until the window copies the approach to b, and jumps out; both
        jumps cost at most 2^-s <= delta and all other steps are exact.  None
        when the transition graph admits no connecting paths.
        """
        if delta <= 0:
            return [a, b] if a.shift(1) == b else None
        if self.distance(a.shift(1), b) <= delta:
            return [a, b]
        s = dyadic_radius(delta)
        if s == 0:
            return [a, b]
        u = a.window(-s + 2, s)          # forced window of f(a), length 2s-1
        v = b.window(-s + 1, s - 1)      # target window of b, length 2s-1
        p1 = self.connecting_path(u[-1], v[0], min_steps=1)
        p2 = self.connecting_path(v[-1], u[0], min_steps=1)
        if p1 is None or p2 is None:
            return None
        period = u + p1[1:-1] + v + p2[1:-1]
        m0 = SymbolicPoint(period, (), -(s - 1))
        if not self.admissible(m0):
            raise AssertionError("splice point must be admissible by construction")
        r = len(u) + len(p1) - 3
        return [a] + [m0.shift(i) for i in range(r + 1)] + [b]

    def dwell_loop(self, p: SymbolicPoint, delta: Fraction) -> Optional[list]:
        """The periodic orbit of p, closed at p; None when p is not periodic."""
        period = p.least_period()
        return None if period is None else _shift_orbit(p, period)

    def loop_candidates(self, x: SymbolicPoint, delta: Fraction, n_max: int,
                        budget: int) -> list:
        """Delta-loops at x as point lists: the dwell loop when x is periodic,
        then excursions through the periodic closures q of the width-5
        words (spliced out, once around q's orbit when periodic, and back)."""
        out = []
        dwell = self.dwell_loop(x, delta)
        if dwell is not None:
            out.append(dwell)
        depth = 2
        count = 0
        for w in self.words(2 * depth + 1):
            q = self.periodic_closure(w, anchor=-depth)
            if q is None or q == x:
                continue
            count += 1
            if count > budget:
                raise BudgetExceeded("loop candidate search exceeded its budget")
            first = self.chain(x, q, delta)
            if first is None:
                continue
            visit = self.dwell_loop(q, delta)
            if visit is not None:
                first += visit[1:]
            back = self.chain(q, x, delta)
            if back is None:
                continue
            out.append(first + back[1:])
        return out

    def neighborhood(self, points: Sequence, delta: Fraction) -> tuple:
        """Points near the set that need their own shadowability check; the
        symbolic verdicts already quantify over cylinder candidates."""
        return ()

    def chain_net(self, depth: Optional[int]):
        """The cylinder finitization the delta-chain graph is built on."""
        # finitize subclasses NetSystem from this module, so it is imported late
        from .finitize import CylinderNet

        if depth is None:
            raise ValueError("finitization depth required for symbolic systems")
        return CylinderNet(self, depth)

    # -- measures and entropy -------------------------------------------------------

    def test_centers(self, depth: int) -> list:
        """Periodic closures of the admissible words on [-depth, depth]."""
        centers = []
        for w in self.words(2 * depth + 1):
            p = self.periodic_closure(w, anchor=-depth)
            if p is not None:
                centers.append(p)
        return centers

    def sample_point(self, rng) -> SymbolicPoint:
        while True:
            length = rng.randint(1, 6)
            word = tuple(rng.randrange(self.alphabet_size) for _ in range(length))
            p = self.periodic_closure(word, anchor=rng.randint(-3, 3))
            if p is not None:
                return p

    def nearby_point(self, x: SymbolicPoint, eps: Fraction, rng) -> SymbolicPoint:
        """A point at distance < eps from x (strict)."""
        t = dyadic_radius(eps)  # 2^-t <= eps; agreement to radius t gives d < eps
        w = x.window(-t - 1, t + 1)
        p = self.periodic_closure(w, anchor=-t - 1)
        return p if p is not None else x

    def separated_count(self, n: int, eps: Fraction) -> int:
        """Exact S(n, eps) over the whole system: points separate within n
        steps iff their words on [-t', n+t'] differ (t' the largest i with
        2^-i > eps), so it is the number of admissible words of that length."""
        if eps >= 1:
            return 1
        return self.count_words(n + 2 * (dyadic_radius(eps) - 1) + 1)

    def dynamical_ball(self, x: SymbolicPoint, e: Fraction, horizon: int,
                       depth: Optional[int]) -> tuple:
        """(members, count, universe, stamps) of the finite-horizon dynamical
        ball: a cylinder, whose members are the depth-``depth`` words
        extending its forced window, realized as periodic closures."""
        t = dyadic_radius(e) if e < 1 else 0
        if t == 0:
            # radius at least the diameter: the ball is the whole space
            stamp_depth = depth if depth is not None else 1
            count = self.count_words(2 * stamp_depth + 1)
            return (), count, f"cylinders at depth {stamp_depth}", {"constraint": None}
        lo, hi = -horizon - (t - 1), horizon + (t - 1)
        stamp_depth = depth if depth is not None else hi
        forced = {j: x.coord(j) for j in range(lo, hi + 1)}
        members = []
        count = 0
        width_lo, width_hi = min(lo, -stamp_depth), max(hi, stamp_depth)
        for w in self.words(width_hi - width_lo + 1):
            if all(w[j - width_lo] == s for j, s in forced.items()):
                count += 1
                p = self.periodic_closure(w, anchor=width_lo)
                if p is not None and len(members) < 4096:
                    members.append(p)
        return (tuple(members), count, f"cylinders on [{width_lo}, {width_hi}]",
                {"forced_window": (lo, hi)})


@dataclass
class MetricReport:
    """Diagnostic result of a metric table validation."""

    ok: bool
    mode: str  # "full" or "sampled"
    symmetry_failures: list = field(default_factory=list)
    diagonal_failures: list = field(default_factory=list)
    indiscernible_failures: list = field(default_factory=list)
    triangle_failures: list = field(default_factory=list)
    checked_triples: int = 0

    def summary(self) -> str:
        status = "pass" if self.ok else "fail"
        return (f"metric check ({self.mode}): {status}; "
                f"sym={len(self.symmetry_failures)} diag={len(self.diagonal_failures)} "
                f"ident={len(self.indiscernible_failures)} tri={len(self.triangle_failures)}")


class NetSystem:
    """A finite epsilon-net with an exact metric and a sampled self-map.

    ``dist`` may be a full matrix of Fractions or a callable
    (i, j) -> Fraction; rows are cached.  ``resolution`` records the mesh the
    net guarantees, so downstream claims can be stamped with it.
    """

    kind = "net"
    universe = "net"
    depth: Optional[int] = None  # cylinder depth when the net finitizes a shift

    def __init__(self, labels: Sequence, dist, step_map: Sequence[int],
                 resolution: Fraction, invertible: bool = False,
                 metric_check: str = "full"):
        self.labels = list(labels)
        self.n = len(self.labels)
        if self.n == 0:
            raise ValueError("net must contain at least one point")
        self.resolution = Fraction(resolution)
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        step_map = [int(i) for i in step_map]
        if len(step_map) != self.n or any(not 0 <= i < self.n for i in step_map):
            raise ValueError("map must be a total function on point indices")
        self.map = tuple(step_map)

        if callable(dist):
            self._dist_fn = dist
            self._rows: dict[int, tuple] = {}
        else:
            rows = [tuple(Fraction(v) for v in row) for row in dist]
            if len(rows) != self.n or any(len(r) != self.n for r in rows):
                raise ValueError("distance matrix shape mismatch")
            self._dist_fn = None
            self._rows = {i: rows[i] for i in range(self.n)}

        self.inverse: Optional[tuple] = None
        self.invertible = bool(invertible)
        if self.invertible:
            inv = [-1] * self.n
            for i, j in enumerate(self.map):
                if inv[j] != -1:
                    raise ValueError("map is not injective; cannot mark invertible")
                inv[j] = i
            self.inverse = tuple(inv)

        self._succ_cache: dict[Fraction, list] = {}
        self.metric_report: Optional[MetricReport] = None
        if metric_check != "skip":
            self.metric_report = self.validate_metric(mode=metric_check)
            if not self.metric_report.ok:
                raise ValueError("invalid metric: " + self.metric_report.summary())

    # -- metric ---------------------------------------------------------------

    def row(self, i: int) -> tuple:
        r = self._rows.get(i)
        if r is None:
            r = tuple(self._dist_fn(i, j) for j in range(self.n))
            self._rows[i] = r
        return r

    def distance(self, i: int, j: int) -> Fraction:
        return self.row(i)[j]

    def distance_le(self, i: int, j: int, eps: Fraction) -> bool:
        return self.row(i)[j] <= eps

    def diameter_bound(self) -> Fraction:
        return max(max(self.row(i)) for i in range(self.n))

    def _int_matrix(self) -> Optional[tuple[np.ndarray, int]]:
        denom = 1
        for i in range(self.n):
            for v in self.row(i):
                denom = denom * v.denominator // math.gcd(denom, v.denominator)
                if denom > 1 << 40:
                    return None
        mat = np.zeros((self.n, self.n), dtype=np.int64)
        for i in range(self.n):
            r = self.row(i)
            for j in range(self.n):
                mat[i, j] = r[j].numerator * (denom // r[j].denominator)
        if mat.max(initial=0) > 1 << 61:
            return None
        return mat, denom

    def validate_metric(self, mode: str = "full") -> MetricReport:
        """Check symmetry, the zero diagonal, identity of indiscernibles and
        the triangle inequality.  ``mode='sample'`` checks a deterministic
        subsample of triples (for large nets); pairs are always all checked."""
        rep = MetricReport(ok=True, mode=mode)
        for i in range(self.n):
            r = self.row(i)
            if r[i] != 0:
                rep.diagonal_failures.append(i)
            for j in range(i + 1, self.n):
                if r[j] != self.row(j)[i]:
                    rep.symmetry_failures.append((i, j))
                if r[j] == 0:
                    rep.indiscernible_failures.append((i, j))
        packed = self._int_matrix() if mode == "full" else None
        if packed is not None:
            mat, _ = packed
            for k in range(self.n):
                lhs = mat
                rhs = mat[:, k:k + 1] + mat[k:k + 1, :]
                bad = np.argwhere(lhs > rhs)
                for i, j in bad[:8]:
                    rep.triangle_failures.append((int(i), int(j), k))
                rep.checked_triples += self.n * self.n
        elif mode == "full" and self.n <= 512:
            for i in range(self.n):
                ri = self.row(i)
                for k in range(self.n):
                    rk = self.row(k)
                    dik = ri[k]
                    for j in range(self.n):
                        if ri[j] > dik + rk[j]:
                            rep.triangle_failures.append((i, j, k))
                    rep.checked_triples += self.n
        else:
            rep.mode = "sampled"
            stride = max(1, self.n ** 3 // _SAMPLE_TRIPLES)
            count = 0
            idx = 0
            total = self.n ** 3
            while idx < total:
                k, rem = divmod(idx, self.n * self.n)
                i, j = divmod(rem, self.n)
                if self.distance(i, j) > self.distance(i, k) + self.distance(k, j):
                    rep.triangle_failures.append((i, j, k))
                count += 1
                idx += stride
            rep.checked_triples = count
        rep.ok = not (rep.symmetry_failures or rep.diagonal_failures or
                      rep.indiscernible_failures or rep.triangle_failures)
        return rep

    # -- dynamics ---------------------------------------------------------------

    def check_point(self, p) -> None:
        if not isinstance(p, int) or not 0 <= p < self.n:
            raise ValueError(f"{p!r} is not a point index of the net system")

    def step(self, i: int) -> int:
        return self.map[i]

    def iterate(self, i: int, k: int) -> int:
        if k < 0:
            if not self.invertible:
                raise ValueError("negative iterate of a non-invertible net system")
            for _ in range(-k):
                i = self.inverse[i]
            return i
        for _ in range(k):
            i = self.map[i]
        return i

    def successors(self, i: int, delta: Fraction) -> tuple:
        """Indices q with d(f(i), q) <= delta, ascending."""
        key = Fraction(delta)
        table = self._succ_cache.get(key)
        if table is None:
            table = [None] * self.n
            self._succ_cache[key] = table
        if table[i] is None:
            fi = self.map[i]
            r = self.row(fi)
            table[i] = tuple(q for q in range(self.n) if r[q] <= key)
        return table[i]

    def ball(self, i: int, eps: Fraction) -> frozenset:
        r = self.row(i)
        return frozenset(q for q in range(self.n) if r[q] <= eps)

    def period(self, p: int) -> Optional[int]:
        """Steps until the sampled orbit of p returns to p; None when p is
        not on a cycle."""
        cur, steps = self.map[p], 1
        while cur != p:
            cur, steps = self.map[cur], steps + 1
            if steps > self.n:
                return None
        return steps

    def closeness(self, eps: Fraction) -> Callable:
        """The test d(i, j) <= eps."""
        row = self.row
        return lambda i, j: row(i)[j] <= eps

    # -- shadows, chains and loops ---------------------------------------------

    def shadow_candidates(self, pts: Sequence[int], eps: Fraction) -> tuple:
        """(candidates, glued): every net point, none forced to shadow."""
        return range(self.n), False

    def chain(self, a: int, b: int, delta: Fraction,
              max_len: int = 10 ** 6) -> Optional[list]:
        """Points of a shortest delta-chain from a to b, or None.

        Found by breadth-first search on the delta-transition graph; among
        shortest chains the pointwise lowest-index one is returned.  When
        a == b the chain makes at least one step.
        """
        # backward BFS from b: dist_to[q] = fewest steps from q to b
        preds: list[list[int]] = [[] for _ in range(self.n)]
        for p in range(self.n):
            for q in self.successors(p, delta):
                preds[q].append(p)
        INF = -1
        dist_to = [INF] * self.n
        dist_to[b] = 0
        queue = deque([b])
        while queue:
            q = queue.popleft()
            if dist_to[q] >= max_len:
                continue
            for p in preds[q]:
                if dist_to[p] == INF:
                    dist_to[p] = dist_to[q] + 1
                    queue.append(p)

        if a == b:
            options = [(dist_to[q], q) for q in self.successors(a, delta) if dist_to[q] != INF]
            if not options:
                return None
            steps = min(options)[0] + 1
        else:
            if dist_to[a] == INF:
                return None
            steps = dist_to[a]
        if steps > max_len:
            return None

        path = [a]
        cur = a
        remaining = steps
        while remaining > 0:
            nxt = None
            for q in self.successors(cur, delta):
                if dist_to[q] == remaining - 1:
                    nxt = q
                    break
            assert nxt is not None
            path.append(nxt)
            cur = nxt
            remaining -= 1
        assert cur == b
        return path

    def dwell_loop(self, p: int, delta: Fraction) -> Optional[list]:
        """The shortest delta-chain loop at p."""
        return self.chain(p, p, delta)

    def loop_candidates(self, x: int, delta: Fraction, n_max: int,
                        budget: int) -> list:
        """Delta-loops at x as point lists: the shortest chain loop, then
        detours x -> q -> x through every other point."""
        out = []
        loop = self.chain(x, x, delta, max_len=n_max)
        if loop is not None:
            out.append(loop)
        count = 0
        for q in range(self.n):
            if q == x:
                continue
            count += 1
            if count > budget:
                raise BudgetExceeded("loop candidate search exceeded its budget")
            first = self.chain(x, q, delta, max_len=n_max)
            if first is None:
                continue
            back = self.chain(q, x, delta, max_len=n_max - (len(first) - 1))
            if back is None:
                continue
            out.append(first + back[1:])
        return out

    def neighborhood(self, points: Sequence[int], delta: Fraction) -> list:
        """Net points within delta of the set, ascending."""
        near = set()
        for x in points:
            row = self.row(x)
            near.update(q for q in range(self.n) if row[q] <= delta)
        return sorted(near)

    # -- chain classes ----------------------------------------------------------

    def chain_net(self, depth: Optional[int]) -> "NetSystem":
        """The net the delta-chain graph is built on: this one."""
        return self

    def node_of(self, p: int) -> int:
        return p

    def point_of(self, node: int) -> int:
        return node

    def restrict_to(self, nodes) -> frozenset:
        """The restriction of shadowability searches to the given nodes."""
        return frozenset(nodes)

    # -- measures and entropy -------------------------------------------------------

    def test_centers(self, depth: int) -> list:
        return list(range(self.n))

    def sample_point(self, rng) -> int:
        return rng.randrange(self.n)

    def nearby_point(self, x: int, eps: Fraction, rng) -> int:
        """A point at distance < eps from x (strict)."""
        row = self.row(x)
        return rng.choice([q for q in range(self.n) if row[q] < eps])

    def separated_count(self, n: int, eps: Fraction) -> None:
        """No counting argument: separated sets come from a clique search."""
        return None

    def dynamical_ball(self, x: int, e: Fraction, horizon: int,
                       depth: Optional[int]) -> tuple:
        """(members, count, universe, stamps) of the finite-horizon dynamical
        ball: members q with d(f^i(x), f^i(q)) <= e for |i| <= horizon
        (forward window only when the map is not invertible)."""
        lo = -horizon if self.invertible else 0
        members = []
        for q in range(self.n):
            ok = True
            for i in range(lo, horizon + 1):
                if self.distance(self.iterate(x, i), self.iterate(q, i)) > e:
                    ok = False
                    break
            if ok:
                members.append(q)
        return tuple(members), len(members), "net", {"window": (lo, horizon)}


System = Union[SymbolicSystem, NetSystem]
SystemPoint = Union[int, SymbolicPoint]


def apply(system: System, p: SystemPoint, k: int) -> SystemPoint:
    """Exact k-fold iterate of the system map (k < 0 only when invertible)."""
    return system.iterate(p, k)


# -- common net constructions ----------------------------------------------


def circle_distance(a: Fraction, b: Fraction) -> Fraction:
    """Arc-length distance on R/Z for rational angles."""
    d = abs(Fraction(a) - Fraction(b)) % 1
    return min(d, 1 - d)


def circle_net(size: int, step_fn: Callable[[int], int],
               invertible: bool = False, metric_check: str = "full") -> NetSystem:
    """Net of ``size`` equally spaced rational angles on the circle."""
    if size < 3:
        raise ValueError("need at least 3 net points")
    labels = [Fraction(i, size) for i in range(size)]

    def dist(i: int, j: int) -> Fraction:
        return circle_distance(labels[i], labels[j])

    return NetSystem(labels, dist, [step_fn(i) % size for i in range(size)],
                     resolution=Fraction(1, 2 * size), invertible=invertible,
                     metric_check=metric_check)
