"""Finite-resolution dynamical systems with exact arithmetic.

Two kinds of systems are supported:

* symbolic systems: subshifts of finite type given by a transition matrix,
  acting by the left shift on bi-infinite, eventually periodic sequences;
* net systems: a finite indexed point set with an exact rational metric and
  a sampled self-map.

All distances are exact `fractions.Fraction` values (a net holds them as
integers over one common denominator), so comparisons against tolerance
parameters are deterministic and reproducible.

The system protocol.  Everything that differs between a shift and a net is
a method of :class:`SymbolicSystem` and :class:`NetSystem` (and of the
cylinder finitization ``finitize.CylinderNet``), so the algorithm modules
never test the kind of a system or point:

* points and dynamics: ``check_point``, ``step``, ``iterate``,
  ``distance``, ``closeness(eps)`` (the test d <= eps, built once per call),
  ``period``;
* pseudo-orbits: ``step_check(pts, delta)`` (the first step with
  d(f(x_i), x_{i+1}) > delta, or None, behind ``pseudo_orbits.validate``)
  and ``traces(z, pts, eps)`` (the tracing clause d(f^i(z), x_i) <= eps,
  behind ``shadow_search.shadows``).  A net reads its ball masks; a shift
  compares tape bytes for the trace and tests steps with ``distance_le``;
* shadow search: ``shadow(pts, eps)`` (the least net point that traces,
  or on a shift the closure of the one glued word, or None),
  ``shadow_steps(eps, delta)`` (the steps of the one shadowability search,
  ``shadow_search.unshadowed``: the candidate starts, the shadow state of a
  start and the ordered (successor, next state) pairs of a step; on a net
  the state is the set of positions a shadow may still hold, on a shift
  whether the glued windows are still consistent; None when every
  pseudo-orbit is shadowed) and ``universe``, the stamp of the quantified
  universe;
* chains of pieces: ``piece_coding(pieces, eps)`` shadows and traces
  sequences built by chaining point sequences that share their junction
  points (a horseshoe word is its loops' junction pieces), on a shift from
  each piece's glued word, joined; None on a net, which traces point by
  point and whose metric may be unchecked;
* cylinders (shifts only): ``cylinders(lo, hi, x, fixed)`` lists the
  admissible words on a window, each with its periodic closure, and
  ``successor_candidates`` those near a point's image; every symbolic
  verdict over ``cylinder-candidates`` takes its points from it.
  A closure, and so a splice of ``chain``, closes its word with a shortest
  connecting path read from a k x k table that each shift fills on first
  use, and checks only the two junctions where word and path meet;
* chains and loops: ``chain(a, b, delta)`` (on nets the breadth-first
  search that also finds a shift's connecting paths, spliced on shifts;
  validated by ``pseudo_orbits.connect``), ``dwell_loop``,
  ``loop_candidates(x, delta, n_max)`` (at most ``LOOP_CANDIDATE_BUDGET``
  excursions), ``neighborhood``;
* chain classes: ``chain_net(depth)`` (the net itself, or the cylinder net
  of a shift) with ``node_of``, ``point_of`` and ``restrict_to``, which
  turns a node set into the point test that keeps a shadowability search
  inside it;
* measures and entropy: ``test_centers``, ``sample_point``,
  ``nearby_point``, ``separated_count``, ``close_masks(points, eps)`` (bit
  j of entry i set iff d(points[i], points[j]) <= eps; a net compares its
  integer metric on the points' rows and columns, a shift tests each pair
  with ``closeness``) and ``dynamical_ball``.  A shift's nearby point is
  the closure of a window, kept per window; a net's is a draw from the
  rng.

Symbolic points are immutable: a shift is a view that shares its parent's
word and period tuples and moves only the offset.  The parent and all its
views also share one symbol tape: a ``bytes`` string holding the word with
the period repeated on each side.  Windows, the packed comparison word
(the coordinates -R..R, one byte each) and the glued word of a shadow
search are slices of it, and the canonical form is found once per tape
(one least rotation, Booth 1980) and derived for each view, whose phases
and breakpoints move with the offset.  Points compare on the packed words
and past them from their canonical forms, at a cost bounded by the lengths
of their words and periods: an offset of any size costs nothing extra.  On
a shift d <= 2^-t means agreement on |j| < t, so a trace is one comparison
of the shadow's tape bytes with the glued word of the pseudo-orbit, a step
to the same tape one offset on is exact without a comparison, and no
threshold test builds a distance (2^-i holds i bits).  Symbols are checked
where points enter (``point``, ``check_point``, ``step_check`` and the
``io`` loaders run ``admissible``, once per tape in ``step_check``) and by
``distance``, ``closeness``, ``traces`` and ``shadow``, which compare each
point's recorded least and largest symbol with the alphabet in O(1).
Symbolic points order by their canonical form, which fixes the atom order
of empirical measures.  The methods return plain points, point lists and
step indices; validation into pseudo-orbits stays in ``pseudo_orbits``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

ZERO = Fraction(0)

# Number of coordinates (each side of 0) packed into the fast comparison word.
_PACK_RADIUS = 24

# Triangle-inequality triples checked by a sampled metric validation.
_SAMPLE_TRIPLES = 200000

# Excursions ``loop_candidates`` tries before raising ``BudgetExceeded``.
LOOP_CANDIDATE_BUDGET = 20000


class BudgetExceeded(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


def dyadic_radius(eps: Fraction) -> int:
    """Smallest t >= 0 with 2^-t <= eps.

    Agreement of two sequences on all coordinates |j| <= t-1 is equivalent
    to their distance being <= eps.  Requires eps > 0.
    """
    p, q = eps.numerator, eps.denominator
    if p <= 0:
        raise ValueError("eps must be positive")
    # p 2^t and q have the same bit length at t = len(q) - len(p)
    t = max(0, q.bit_length() - p.bit_length())
    return t if p << t >= q else t + 1


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


class _Tape:
    """The symbols of one representation, shared by it and all its shifts.

    ``data`` is the central word with ``lead`` = 2R + m symbols of the
    periodic tail on each side (R the pack radius, m the period length), one
    byte per symbol: byte i is the coordinate i - lead + offset of the point
    at ``offset``, so the packed window of every shift up to R + m past
    either end of the word is one slice.  The bytes and the canonical form
    of the representation at offset 0 are built on first use, so a point
    whose symbols do not fit a byte can be built and tested for
    admissibility, but not compared.
    """

    __slots__ = ("period", "word", "lead", "data", "canon")

    def __init__(self, period: tuple, word: tuple):
        self.period, self.word = period, word
        self.lead = 2 * _PACK_RADIUS + len(period)
        self.data = self.canon = None

    def symbols(self) -> bytes:
        if self.data is None:
            tail = bytes(self.period) * -(-self.lead // len(self.period))
            self.data = tail[-self.lead:] + bytes(self.word) + tail[:self.lead]
        return self.data

    def canonical(self) -> tuple:
        """``SymbolicPoint.canonical`` of the representation at offset 0;
        the least rotation and both scans run once per tape."""
        if self.canon is not None:
            return self.canon
        root = _primitive_root(self.period)
        d = len(root)
        neck, kstar = _least_rotation(root)
        if not self.word:
            self.canon = ("per", neck, -kstar % d)
            return self.canon
        data, lead, L = self.symbols(), self.lead, len(self.word)
        per = bytes(self.period)
        # a: the first coordinate in 0..L+d-1 off the left tail's pattern
        n = L + d
        a = _differences(data[lead:lead + n], _cycle(per, 0, n))
        if a is None:
            self.canon = ("per", neck, -kstar % d)
            return self.canon
        # b - 1: the last coordinate in -d-1..L-1 off the right tail's pattern
        n = L + d + 1
        last = _differences(data[lead - d - 1:lead + L], _cycle(per, -n, n))
        assert last is not None, "inconsistent canonical scan"
        b = last[1] - d
        self.canon = ("ev", neck, -kstar % d, (-L - kstar) % d, a[0], b,
                      tuple(data[lead + a[0]:lead + b]))
        return self.canon


def _cycle(block: bytes, start: int, n: int) -> bytes:
    """n bytes of the endless repetition of block, from its index start."""
    start %= len(block)
    return (block * (n // len(block) + 2))[start:start + n]


def _differences(u: bytes, v: bytes) -> Optional[tuple[int, int]]:
    """(first, last) index at which two equal-length byte strings differ,
    or None when they are equal."""
    diff = int.from_bytes(u, "little") ^ int.from_bytes(v, "little")
    if not diff:
        return None
    return ((diff & -diff).bit_length() - 1) >> 3, (diff.bit_length() - 1) >> 3


class SymbolicPoint:
    """A bi-infinite, eventually periodic symbol sequence.

    The representation is a central word placed at ``offset`` with the same
    periodic word repeated on both tails:

        x_j = word[j - offset]                      offset <= j < offset+len(word)
        x_j = period[(j - offset - len(word)) % m]  j >= offset + len(word)
        x_j = period[(j - offset) % m]              j < offset

    Equality of two representations (as sequences) is decidable and is what
    ``==`` implements; hashing is consistent with it.

    Points are immutable.  The constructor converts its inputs once and
    records the least and the largest symbol (``low_symbol``,
    ``top_symbol``); ``shift`` returns a view that shares the word and period
    tuples and the symbol tape and only moves the offset.  Windows, the
    packed comparison word and the canonical form are read off the shared
    tape.
    """

    __slots__ = ("offset", "word", "period", "top_symbol", "low_symbol",
                 "_tape", "_canon", "_packed", "_hash")

    def __init__(self, period: Sequence[int], word: Sequence[int] = (),
                 offset: int = 0):
        period = tuple(map(int, period))
        word = tuple(map(int, word))
        if not period:
            raise ValueError("period word must be nonempty")
        self.period = period
        self.word = word
        self.offset = int(offset)
        self.top_symbol = max(max(period), max(word, default=period[0]))
        self.low_symbol = min(min(period), min(word, default=period[0]))
        self._tape = _Tape(period, word)
        self._canon = self._packed = self._hash = None

    # -- coordinate access ------------------------------------------------

    def coord(self, j: int) -> int:
        lo = self.offset
        hi = self.offset + len(self.word)
        if lo <= j < hi:
            return self.word[j - lo]
        if j >= hi:
            return self.period[(j - hi) % len(self.period)]
        return self.period[(j - lo) % len(self.period)]

    def _symbols(self, lo: int, n: int) -> bytes:
        """Coordinates lo..lo+n-1, one byte each, sliced from the tape."""
        tape = self._tape
        data = tape.symbols()
        i = tape.lead - self.offset + lo
        j = i + n
        if 0 <= i and j <= len(data):
            return data[i:j]
        # beyond the tape each tail repeats its outermost m bytes
        m, size = len(self.period), len(data)
        out = _cycle(data[:m], i, min(j, 0) - i) if i < 0 else b""
        out += data[max(i, 0):max(j, 0)]
        if j > size:
            start = max(i, size)
            out += _cycle(data[size - m:], start - size, j - start)
        return out

    def window(self, lo: int, hi: int) -> tuple:
        """Coordinates lo..hi inclusive."""
        return tuple(self._symbols(lo, hi - lo + 1))

    def shift(self, k: int = 1) -> "SymbolicPoint":
        """The sequence y with y_j = x_{j+k} (k-fold left shift), as a view
        on this point's tuples and tape: no conversion and no scan."""
        view = object.__new__(SymbolicPoint)
        view.period, view.word, view.offset = self.period, self.word, self.offset - k
        view.top_symbol, view.low_symbol = self.top_symbol, self.low_symbol
        view._tape = self._tape
        view._canon = view._packed = view._hash = None
        return view

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> tuple:
        """Representation-independent description of the sequence.

        Purely periodic sequences canonicalize to ("per", necklace, phase);
        all others to ("ev", necklace, phiL, phiR, a, b, middle) where the
        sequence equals the necklace pattern with phase phiL strictly left
        of a, the pattern with phase phiR from b on, and ``middle`` lists
        the coordinates a..b-1.  Derived from the tape's form at offset 0:
        moving the offset by k moves the phases by -k mod d and a, b by k.
        """
        if self._canon is None:
            canon = self._tape.canonical()
            off = self.offset
            d = len(canon[1])
            if canon[0] == "per":
                self._canon = ("per", canon[1], (canon[2] - off) % d)
            else:
                _, neck, phi_l, phi_r, a, b, middle = canon
                self._canon = ("ev", neck, (phi_l - off) % d, (phi_r - off) % d,
                               a + off, b + off, middle)
        return self._canon

    def least_period(self) -> Optional[int]:
        """Length of the primitive period if the sequence is periodic."""
        canon = self.canonical()
        if canon[0] != "per":
            return None
        return len(canon[1])

    def _pack(self) -> int:
        # Coordinates -R..R (R = _PACK_RADIUS), one byte each in order of j:
        # coordinate j sits at bits 8(j + R) .. 8(j + R) + 7.
        if self._packed is None:
            self._packed = int.from_bytes(
                self._symbols(-_PACK_RADIUS, 2 * _PACK_RADIUS + 1), "little")
        return self._packed

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


# the packed bytes of the coordinates -R..-1
_LEFT_OF_ZERO = (1 << 8 * _PACK_RADIUS) - 1


def first_disagreement(a: SymbolicPoint, b: SymbolicPoint) -> Optional[int]:
    """Least |j| at which the sequences disagree, or None if equal."""
    diff = a._pack() ^ b._pack()
    if diff:
        if diff >> 8 * _PACK_RADIUS & 0xFF:
            return 0
        # the lowest differing byte right of 0 and the highest left of 0
        right = diff >> 8 * (_PACK_RADIUS + 1)
        left = diff & _LEFT_OF_ZERO
        i = ((right & -right).bit_length() + 7) >> 3 if right else _PACK_RADIUS + 1
        if left:
            i = min(i, _PACK_RADIUS - ((left.bit_length() - 1) >> 3))
        return i
    fa, fb = a.canonical(), b.canonical()
    if fa == fb:
        return None
    # Past the window each point reads its left tail left of its bound a,
    # its middle word up to max(a, b) and its right tail on.  Between the
    # bounds of both, a run longer than n is read from tails on both sides,
    # and tails that agree on lcm(d, d') coordinates agree on the whole run,
    # so n coordinates at the near end of each run settle it.
    ev = [f for f in (fa, fb) if f[0] == "ev"]
    cuts = sorted({c for f in ev for c in (f[4], max(f[4], f[5]))})
    n = math.lcm(len(fa[1]), len(fb[1])) + max((len(f[6]) for f in ev), default=0)
    right = left = math.inf  # the forms differ, so one side finds a difference
    for lo in [_PACK_RADIUS + 1, *[c for c in cuts if c > _PACK_RADIUS + 1]]:
        if d := _differences(a._symbols(lo, n), b._symbols(lo, n)):
            right = lo + d[0]
            break
    for hi in [-_PACK_RADIUS, *[c for c in cuts[::-1] if c < -_PACK_RADIUS]]:
        if d := _differences(a._symbols(hi - n, n), b._symbols(hi - n, n)):
            left = n - hi - d[1]
            break
    return min(right, left)


def symbolic_distance(a: SymbolicPoint, b: SymbolicPoint) -> Fraction:
    """Exact distance 2^-i where i is the least |j| with a_j != b_j.

    Equal sequences (decided from the representations) give 0;
    disagreements at any depth are located exactly.
    """
    i = first_disagreement(a, b)
    if i is None:
        return ZERO
    return Fraction(1, 1 << i)


def distance_le(a: SymbolicPoint, b: SymbolicPoint, t: int) -> bool:
    """Whether d(a, b) <= 2^-t, i.e. agreement on all |j| <= t-1."""
    if t <= 0:
        return True
    if t - 1 <= _PACK_RADIUS:
        # the bytes of the coordinates -(t-1)..t-1
        mask = ((1 << 8 * (2 * t - 1)) - 1) << 8 * (_PACK_RADIUS + 1 - t)
        return not (a._pack() ^ b._pack()) & mask
    i = first_disagreement(a, b)
    return i is None or i >= t


def _int_type(bound: int):
    """The narrowest signed NumPy integer type that holds ``bound``, or
    ``object`` (Python ints) when 64 bits are too few."""
    return next((t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max),
                object)


def word_ultrametric(words: Sequence[tuple], radius: int) -> np.ndarray:
    """The dyadic distances 2^-a between words on [-radius, radius] (a the
    least |j| where two words disagree, 0 for equal words) as integer
    numerators over 2^radius, written one level a at a time from the
    deepest to the shallowest, so the last write at a pair is its first
    disagreement.  The matrix has the type ``NetSystem`` keeps: the
    narrowest signed one that holds the sum of two numerators, or Python
    ints when 64 bits are too few."""
    cols = np.asarray(words, dtype=np.int8).reshape(len(words), 2 * radius + 1)
    n = len(cols)
    out = np.zeros((n, n), dtype=_int_type(2 << radius))
    differ = np.empty((n, n), dtype=bool)
    other = np.empty((n, n), dtype=bool)
    for a in range(radius, -1, -1):
        np.not_equal(cols[:, radius - a, None], cols[None, :, radius - a], out=differ)
        np.not_equal(cols[:, radius + a, None], cols[None, :, radius + a], out=other)
        differ |= other
        out[differ] = 1 << (radius - a)
    return out


def glue_constraints(pts: Sequence[SymbolicPoint], rho: int) -> Optional[bytes]:
    """The word on [-rho, len(pts) - 1 + rho] forced on any shadow agreeing
    with each x_i on the window |j| <= rho (placed at i), one byte per
    symbol.  None when two windows conflict (no shadow)."""
    width = 2 * rho + 1
    glued = bytearray(pts[0]._symbols(-rho, width))
    for i in range(1, len(pts)):
        w = pts[i]._symbols(-rho, width)
        # the earlier windows fix every coordinate of this one but the last
        if glued[i:] != w[:-1]:
            return None
        glued.append(w[-1])
    return bytes(glued)


def _trace_stepwise(system, z, pts: Sequence, eps: Fraction) -> bool:
    """Whether d(f^i(z), x_i) <= eps for every i, stepping z once per point
    and testing each pair with the system's ``closeness``."""
    close = system.closeness(eps)
    for x in pts:
        if not close(z, x):
            return False
        z = system.step(z)
    return True


_LOW_SYMBOL = operator.attrgetter("low_symbol")
_TOP_SYMBOL = operator.attrgetter("top_symbol")


def _search(succ: Callable[[int], Sequence[int]], a: int, max_len: int,
            b: Optional[int] = None) -> dict:
    """Breadth-first from a along ``succ(u)``, layer by layer with
    successors ascending, out to ``max_len`` steps or until b is reached:
    {v: the node before v}.  Each layer is expanded in the order of its
    nodes' least paths, so the entries trace, for every node reached, the
    lexicographically least of its shortest paths of at least one step.
    The start is not marked visited, so a path may return to it."""
    prev: dict = {}
    layer = [a]
    for _ in range(max_len):
        following = []
        for u in layer:
            for v in succ(u):
                if v in prev:
                    continue
                prev[v] = u
                if v == b:
                    return prev
                following.append(v)
        if not following:
            break
        layer = following
    return prev


def _path(prev: dict, a: int, b: int) -> Optional[tuple]:
    """The path (a, ..., b) that ``_search`` from a traced to b, or None."""
    if b not in prev:
        return None
    path = [b]
    u = prev[b]
    while u != a:
        path.append(u)
        u = prev[u]
    path.append(a)
    return tuple(reversed(path))


def _shortest_path(succ: Callable[[int], Sequence[int]], a: int, b: int,
                   max_len: int) -> Optional[tuple]:
    """The lexicographically least of the shortest paths (a, ..., b) of 1
    to ``max_len`` steps along ``succ(u)``, or None."""
    return _path(_search(succ, a, max_len, b), a, b)


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
        self._forbidden = frozenset((a, b) for a in range(alphabet_size)
                                    for b in range(alphabet_size) if not mat[a][b])
        # (a, b) -> connecting path, searched on first use (a shortest one
        # has at most k steps); built over the successor lists, not over the
        # system, so that no cycle holds it
        succ = self._succ.__getitem__
        self._paths = _Lazy(lambda ab: _shortest_path(succ, *ab, alphabet_size))
        # window bytes -> their closure (or None), kept by ``nearby_point``
        self._nearby: dict = {}

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
        """Whether every symbol is in the alphabet and every transition
        between consecutive symbols is allowed."""
        if not word:
            return True
        if min(word) < 0 or max(word) >= self.alphabet_size:
            return False
        return self._forbidden.isdisjoint(zip(word, word[1:]))

    def admissible(self, p: SymbolicPoint) -> bool:
        """Whether every symbol is in the alphabet and every transition of
        the sequence is allowed: the period read cyclically, and the word
        between the two tails."""
        per, word = p.period, p.word
        return (self.word_admissible(per + per[:1])
                and self.word_admissible(per[-1:] + word + per[:1]))

    def point(self, period: Sequence[int], word: Sequence[int] = (), offset: int = 0) -> SymbolicPoint:
        p = SymbolicPoint(period, word, offset)
        if not self.admissible(p):
            raise ValueError("point is not admissible for this system")
        return p

    def fixed_point(self, symbol: int) -> SymbolicPoint:
        if not 0 <= symbol < self.alphabet_size:
            raise ValueError(f"symbol {symbol} is not in the alphabet")
        if not self.transitions[symbol][symbol]:
            raise ValueError(f"symbol {symbol} has no self-transition")
        return SymbolicPoint((symbol,))

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

    def connecting_path(self, a: int, b: int) -> Optional[tuple]:
        """Shortest admissible word (a, ..., b) with at least one transition,
        or None.  Ties go to the lowest symbols.  Each of the k x k paths is
        searched once per system and kept."""
        return self._paths[a, b]

    def periodic_closure(self, word: Sequence[int], anchor: int = 0) -> Optional[SymbolicPoint]:
        """A periodic admissible point whose window starting at ``anchor``
        equals ``word``, built by closing the word with a shortest connecting
        path.  None when no admissible closure exists."""
        word = tuple(word)
        if not word:
            raise ValueError("word must be nonempty")
        if not self.word_admissible(word):
            return None
        path = self.connecting_path(word[-1], word[0])
        if path is None:
            return None
        period = word + path[1:-1]
        # the word and the path are each admissible, so the period can fail
        # only at the two junctions where they meet (tests/test_systems.py)
        assert (self.transitions[word[-1]][period[len(word) % len(period)]]
                and self.transitions[period[-1]][word[0]])
        return SymbolicPoint(period, (), anchor)

    def cylinders(self, lo: int, hi: int, x: Optional[SymbolicPoint] = None,
                  fixed: Optional[tuple] = None) -> list:
        """(word, closure) for each admissible word on [lo, hi], in
        lexicographic order, with closure = ``periodic_closure(word,
        anchor=lo)`` or None.  With ``fixed = (a, b)``, lo <= a <= b <= hi,
        only the words agreeing with the point x on [a, b], grown outwards
        from x's word there."""
        if fixed is None:
            words = self.words(hi - lo + 1)
        else:
            a, b = fixed
            words = [x.window(a, b)]
            if not self.word_admissible(words[0]):
                return []
            for _ in range(b, hi):
                words = [w + (s,) for w in words for s in self._succ[w[-1]]]
            for _ in range(lo, a):
                # the new first symbol varies slowest, so the order stays lexicographic
                words = [(s,) + w for s in range(self.alphabet_size) for w in words
                         if self.transitions[s][w[0]]]
        return [(w, self.periodic_closure(w, anchor=lo)) for w in words]

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

    def _check_alphabet(self, a: SymbolicPoint, b: SymbolicPoint) -> None:
        """Raise unless both points use only the symbols 0..k-1, from their
        recorded least and largest symbols (O(1))."""
        if (min(a.low_symbol, b.low_symbol) < 0
                or max(a.top_symbol, b.top_symbol) >= self.alphabet_size):
            raise ValueError("alphabet mismatch")

    def _check_symbols(self, points: Sequence[SymbolicPoint]) -> None:
        """``_check_alphabet`` for a sequence of points."""
        if (min(map(_LOW_SYMBOL, points), default=0) < 0
                or max(map(_TOP_SYMBOL, points), default=0) >= self.alphabet_size):
            raise ValueError("alphabet mismatch")

    def distance(self, a: SymbolicPoint, b: SymbolicPoint) -> Fraction:
        self._check_alphabet(a, b)
        return symbolic_distance(a, b)

    def closeness(self, eps: Fraction) -> Callable:
        """The test d(a, b) <= eps: equality at 0, agreement on |j| <= t-1
        (2^-t <= eps) below 1, always true from 1 on.  Like ``distance`` it
        rejects points with symbols outside the alphabet."""
        if eps == 0:
            near = operator.eq
        elif eps >= 1:
            near = lambda a, b: True
        else:
            t = dyadic_radius(eps)
            near = lambda a, b: distance_le(a, b, t)
        check = self._check_alphabet

        def close(a, b):
            check(a, b)
            return near(a, b)

        return close

    def close_masks(self, points: Sequence[SymbolicPoint], eps: Fraction) -> list:
        """Bit j of entry i is set iff d(points[i], points[j]) <= eps, tested
        pair by pair with ``closeness``."""
        close = self.closeness(eps)
        masks = [0] * len(points)
        for i, a in enumerate(points):
            for j in range(i, len(points)):
                if close(a, points[j]):
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        return masks

    def traces(self, z: SymbolicPoint, pts: Sequence[SymbolicPoint], eps: Fraction) -> bool:
        """Whether d(f^i(z), x_i) <= eps for every i.  Below 1 that is
        agreement of f^i(z) with x_i on |j| <= rho (2^-(rho+1) <= eps), so
        z's coordinates -rho..n-1+rho must be the glued windows of the x_i:
        one byte comparison.  Every point is checked against the alphabet
        first, wherever it sits."""
        self._check_symbols((z, *pts))
        if eps == 0 or eps >= 1:
            return _trace_stepwise(self, z, pts, eps)
        if not pts:
            return True
        rho = dyadic_radius(eps) - 1
        return z._symbols(-rho, len(pts) + 2 * rho) == glue_constraints(pts, rho)

    def step_check(self, pts: Sequence[SymbolicPoint], delta: Fraction) -> Optional[int]:
        """The first step with d(f(x_i), x_{i+1}) > delta, or None, after
        checking every point, admissibility once per tape.  A step to the
        same tape one offset on is exact; any other is ``distance_le`` at s,
        2^-s <= delta (s infinite at delta 0), at a cost set by the words."""
        tapes = set()
        for p in pts:
            if not (isinstance(p, SymbolicPoint) and p._tape in tapes):
                self.check_point(p)
                tapes.add(p._tape)
        s = dyadic_radius(delta) if delta > 0 else math.inf
        for i, (p, q) in enumerate(zip(pts, pts[1:])):
            if not (q._tape is p._tape and q.offset == p.offset - 1
                    or distance_le(p.shift(1), q, s)):
                return i
        return None

    # -- shadows, chains and loops ---------------------------------------------

    def shadow(self, pts: Sequence[SymbolicPoint], eps: Fraction) -> Optional[SymbolicPoint]:
        """An eps-shadow of the sequence, or None when there is none.

        A shadow agrees with each x_i on the shifted window |j| <= t-1, so
        gluing those windows forces the only possible shadow: the closure
        of the glued word, whose tape bytes are that word; a window
        conflict or an inadmissible glue rules every shadow out.  (On a
        reducible transition graph the glued word may admit no eventually
        periodic closure; None then means no *representable* witness.)  A
        point with a symbol outside the alphabet raises, wherever it sits,
        rather than rule shadows out.
        """
        self._check_symbols(pts)
        if eps == 0 or eps >= 1:
            # only an orbit is 0-shadowed, by its start; from 1 on anything shadows
            return pts[0] if _trace_stepwise(self, pts[0], pts, eps) else None
        rho = dyadic_radius(eps) - 1
        word = glue_constraints(pts, rho)
        if word is None:
            return None
        z = self.periodic_closure(word, anchor=-rho)
        assert z is None or z._symbols(-rho, len(word)) == word, \
            "glued candidate must shadow by construction"
        return z

    def piece_coding(self, pieces: dict, eps: Fraction) -> Optional[tuple]:
        """(shadow, traces) for chains of pieces at 0 < eps < 1, else None.

        ``pieces`` maps keys to point sequences.  A chain, a list of keys
        whose each piece starts where the one before it ends, stands for
        the first piece followed by each later one without its first
        point; ``shadow(chain)`` and ``traces(z, chain)`` are ``shadow``
        and ``traces`` of those points.  The shared junction point fixes
        the window |j| <= rho on both of its sides, so the chain's glue is
        the first piece's glue followed by each later one's without its
        first 2 rho + 1 bytes, and None iff some piece's glue is None,
        whatever the pieces' lengths: each piece is glued, and its points
        checked against the alphabet, once.  The shift's distance is an
        ultrametric, so points tracing two sequences more than 4 eps apart
        at an index are more than 2 eps apart there."""
        if not 0 < eps < 1:
            return None
        self._check_symbols([p for pts in pieces.values() for p in pts])
        rho = dyadic_radius(eps) - 1
        glued = {key: glue_constraints(pts, rho) for key, pts in pieces.items()}
        tails = {key: word[2 * rho + 1:] for key, word in glued.items() if word is not None}

        def glue(chain) -> Optional[bytes]:
            parts = [glued[chain[0]], *map(tails.get, chain[1:])]
            return None if None in parts else b"".join(parts)

        def shadow(chain) -> Optional[SymbolicPoint]:
            word = glue(chain)
            return None if word is None else self.periodic_closure(word, anchor=-rho)

        def traces(z: SymbolicPoint, chain) -> bool:
            self._check_alphabet(z, z)
            word = glue(chain)
            return word is not None and z._symbols(-rho, len(word)) == word

        return shadow, traces

    def shadow_steps(self, eps: Fraction, delta: Fraction):
        """The steps of the shadowability search (``shadow_search.unshadowed``),
        or None when every delta-pseudo-orbit is eps-shadowed: eps >= 1,
        delta = 0 (pseudo-orbits are orbits), or every delta-step forces
        agreement beyond the shadow window (s >= t, 2^-s <= delta and
        2^-t <= eps).

        Otherwise (candidates, start state, expand): the candidates are the
        periodic closures of the words on [-t, t]; the state is 1 while the
        glued windows |j| <= t-1 of the path agree and 0 once a step breaks
        them, and ``expand(p, 1)`` pairs each successor candidate q of f(p)
        with the state after p -> q.  For t >= 2 the step keeps the glue iff
        f(p) and q agree on [-(t-1), t-2]; for t = 1 iff the transition
        p_0 -> q_0 is allowed.  Exact for strongly connected transition
        graphs: a path has no shadow iff it contains an inconsistent step.
        """
        if eps >= 1:
            return None
        t = dyadic_radius(eps)
        s = dyadic_radius(delta) if delta > 0 else None
        if s is None or s >= t:
            return None
        rho = t - 1
        transitions = self.transitions

        def candidates():
            for _, p in self.cylinders(-t, t):
                if p is not None:
                    yield p

        def expand(p: SymbolicPoint, state: int) -> list:
            succ = self.successor_candidates(p.shift(1), s, t)
            if rho == 0:
                row = transitions[p.coord(0)]
                return [(q, row[q.coord(0)]) for q in succ]
            head = p.window(1 - rho, rho)
            return [(q, int(q.window(-rho, rho - 1) == head)) for q in succ]

        return candidates(), lambda p: 1, expand

    def successor_candidates(self, image: SymbolicPoint, s: int, window_radius: int) -> list:
        """Admissible periodic representatives q with d(image, q) <= 2^-s: the
        closures of the cylinders on the window that agree with the image on
        |j| <= s-1 (every cylinder when s = 0)."""
        fixed = (-(s - 1), s - 1) if s >= 1 else None
        return [q for _, q in self.cylinders(-window_radius, window_radius, image, fixed)
                if q is not None]

    def chain(self, a: SymbolicPoint, b: SymbolicPoint, delta: Fraction) -> Optional[list]:
        """Points of a delta-chain from a to b.

        Jumps into a periodic splice point whose window copies f(a), rides the
        shift until the window copies the approach to b, and jumps out; both
        jumps cost at most 2^-s <= delta and all other steps are exact.  None
        when the transition graph admits no connecting paths.
        """
        if delta <= 0:
            return [a, b] if a.shift(1) == b else None
        self._check_alphabet(a, b)
        s = dyadic_radius(delta)
        if distance_le(a.shift(1), b, s):
            return [a, b]
        # distance_le holds at s = 0 (delta >= 1), so here s >= 1
        u = a.window(-s + 2, s)          # forced window of f(a), length 2s-1
        v = b.window(-s + 1, s - 1)      # target window of b, length 2s-1
        p1 = self.connecting_path(u[-1], v[0])
        if p1 is None:
            return None
        m0 = self.periodic_closure(u + p1[1:-1] + v, anchor=-(s - 1))
        if m0 is None:
            # p1 joins the windows of f(a) and b, so with a path back the
            # only way to fail is a window that is not admissible
            if self.connecting_path(v[-1], u[0]) is not None:
                raise ValueError("point is not admissible for this system")
            return None
        r = len(u) + len(p1) - 3
        return [a] + [m0.shift(i) for i in range(r + 1)] + [b]

    def dwell_loop(self, p: SymbolicPoint, delta: Fraction) -> Optional[list]:
        """The periodic orbit of p, closed at p; None when p is not periodic."""
        period = p.least_period()
        return None if period is None else [p] + [p.shift(i) for i in range(1, period + 1)]

    def loop_candidates(self, x: SymbolicPoint, delta: Fraction, n_max: int) -> list:
        """Delta-loops at x as point lists: the dwell loop when x is periodic,
        then excursions through the periodic closures q of the width-5
        words (spliced out, once around q's orbit when periodic, and back).
        A splice is no search, so ``n_max``, which bounds the net's search,
        is left to the caller, who drops the loops longer than it."""
        out = []
        dwell = self.dwell_loop(x, delta)
        if dwell is not None:
            out.append(dwell)
        count = 0
        for _, q in self.cylinders(-2, 2):
            if q is None or q == x:
                continue
            count += 1
            if count > LOOP_CANDIDATE_BUDGET:
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
        return [p for _, p in self.cylinders(-depth, depth) if p is not None]

    def sample_point(self, rng) -> SymbolicPoint:
        while True:
            length = rng.randint(1, 6)
            word = tuple(rng.randrange(self.alphabet_size) for _ in range(length))
            p = self.periodic_closure(word, anchor=rng.randint(-3, 3))
            if p is not None:
                return p

    def nearby_point(self, x: SymbolicPoint, eps: Fraction, rng) -> SymbolicPoint:
        """A point at distance < eps from x (strict): the periodic closure of
        x's window on [-t-1, t+1], 2^-t <= eps, or x itself when the window
        has none.  It draws nothing from rng.  The window's length fixes t,
        so the system keeps one closure per window: equal windows give the
        same immutable point, whose hash and canonical form are built once."""
        t = dyadic_radius(eps)  # 2^-t <= eps; agreement to radius t gives d < eps
        w = x._symbols(-t - 1, 2 * t + 3)
        try:
            p = self._nearby[w]
        except KeyError:
            p = self._nearby[w] = self.periodic_closure(w, anchor=-t - 1)
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
        width_lo, width_hi = min(lo, -stamp_depth), max(hi, stamp_depth)
        cells = self.cylinders(width_lo, width_hi, x, (lo, hi))
        members = tuple(p for _, p in cells if p is not None)[:4096]
        return (members, len(cells), f"cylinders on [{width_lo}, {width_hi}]",
                {"forced_window": (lo, hi)})


class _Lazy(dict):
    """A dict that fills a missing key with ``build(key)`` on first lookup."""

    __slots__ = ("build",)

    def __init__(self, build: Callable):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _Tables(_Lazy):
    """Tables keyed by a threshold, each built on first use.  ``table(key)``
    matches the last key by identity first, because hashing a Fraction
    costs more than the lookup it keys."""

    __slots__ = ("_last",)

    def __init__(self, build: Callable):
        super().__init__(build)
        self._last = (_Tables, None)  # a sentinel key that no caller passes

    def table(self, key):
        last_key, last = self._last
        if key is not last_key:
            last = self[key]
            self._last = (key, last)
        return last


def _mask(flags: np.ndarray) -> int:
    """The int bitmask with bit q set where ``flags[q]`` is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _members(mask: int) -> list:
    """The set bits of an int bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _threshold(eps, denominator: int, strict: bool = False) -> int:
    """The largest integer distance t with t / D <= eps (< eps when
    strict), so that d <= eps iff d * D <= t."""
    eps = Fraction(eps)
    scaled = eps.numerator * denominator
    t = scaled // eps.denominator
    if strict and t * eps.denominator == scaled:
        t -= 1
    return t


def _ball_rows(mat: np.ndarray, t: int) -> dict:
    """Rows of closed balls as int bitmasks (bit q of row i: mat[i, q] <= t),
    each built on its first lookup."""
    return _Lazy(lambda i: _mask(mat[i] <= t))


def _int_matrix(nums, denominator: int) -> tuple:
    """(matrix, D): the integer distances over ``denominator`` with the
    factor they all share with it divided out, so that D is their least
    denominator.  The matrix has the narrowest signed type that holds the
    sum of any two distances (the triangle check adds pairs), or holds
    Python ints in an object array when 64 bits are too few."""
    mat = np.asarray(nums)
    if mat.dtype.kind not in "iuO":
        raise ValueError("integer distances required with a denominator")
    # most nets share no factor with D, which the first row shows
    g = denominator
    for row in mat:
        g = math.gcd(g, int(np.gcd.reduce(row, axis=None)))
        if g == 1:
            break
    if g > 1 and mat.any():  # an all-zero matrix keeps its entries; D becomes 1
        mat = mat // g
    bound = 2 * max(-int(mat.min(initial=0)), int(mat.max(initial=0)))
    return mat.astype(_int_type(bound), copy=False), denominator // g


@dataclass
class MetricReport:
    """Diagnostic result of a metric table validation."""

    ok: bool
    mode: str  # "full" or "sampled"
    symmetry_failures: list = field(default_factory=list)
    diagonal_failures: list = field(default_factory=list)
    indiscernible_failures: list = field(default_factory=list)
    triangle_failures: list = field(default_factory=list)

    def summary(self) -> str:
        status = "pass" if self.ok else "fail"
        return (f"metric check ({self.mode}): {status}; "
                f"sym={len(self.symmetry_failures)} diag={len(self.diagonal_failures)} "
                f"ident={len(self.indiscernible_failures)} tri={len(self.triangle_failures)}")


class NetSystem:
    """A finite epsilon-net with an exact metric and a sampled self-map.

    ``dist`` is a full matrix of rationals, or, with ``denominator`` D
    given, an integer matrix of numerators over D.  Either way the net holds
    its metric once, as the integers d(i, j) * D over the least common
    denominator D of the distances (a given D is reduced to it), in the
    narrowest NumPy integer type that also holds the sum of two distances
    (an object array of Python ints beyond 64 bits).

    A threshold test d <= eps is then the exact integer test
    d * D <= floor(eps * D).  ``ball_masks(eps)`` holds the closed eps-balls
    as int bitmasks, one per row, built on first use and cached per eps;
    ``ball``, ``successors``, ``closeness`` and ``neighborhood`` read
    them.  ``row`` and ``distance`` return exact Fractions.  ``resolution``
    records the mesh the net guarantees, so downstream claims can be
    stamped with it.

    ``metric_check`` runs ``validate_metric`` on a table from outside and
    raises ``ValueError`` when it fails; builders whose metric holds by
    construction pass False.
    """

    kind = "net"
    universe = "net"
    depth: Optional[int] = None  # cylinder depth when the net finitizes a shift

    def __init__(self, labels: Sequence, dist, step_map: Sequence[int],
                 resolution: Fraction, invertible: bool = False,
                 metric_check: bool = True, denominator: Optional[int] = None):
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

        if denominator is None:
            rows = [[Fraction(v) for v in row] for row in dist]
            if len(rows) != self.n or any(len(r) != self.n for r in rows):
                raise ValueError("distance matrix shape mismatch")
            denominator = math.lcm(*{v.denominator for row in rows for v in row})
            dist = [[v.numerator * (denominator // v.denominator) for v in row]
                    for row in rows]
        denominator = int(denominator)
        if denominator < 1:
            raise ValueError("denominator must be positive")
        self._imat, self.denominator = _int_matrix(dist, denominator)
        if self._imat.shape != (self.n, self.n):
            raise ValueError("distance matrix shape mismatch")
        # the tables are built over local values, not over the net, so that
        # a dropped net is freed at once rather than by the cyclic GC
        n, mat, D = self.n, self._imat, self.denominator
        fractions = self._fractions = _Lazy(lambda v: Fraction(v, D))
        self._rows = _Lazy(lambda i: tuple([fractions[v] for v in mat[i].tolist()]))

        self.inverse: Optional[tuple] = None
        self.invertible = bool(invertible)
        if self.invertible:
            inv = [-1] * self.n
            for i, j in enumerate(self.map):
                if inv[j] != -1:
                    raise ValueError("map is not injective; cannot mark invertible")
                inv[j] = i
            self.inverse = tuple(inv)

        self._ball_cache = _Tables(lambda eps: _ball_rows(mat, _threshold(eps, D)))
        self._succ_cache = _Tables(lambda delta: [None] * n)
        if metric_check:
            report = self.validate_metric()
            if not report.ok:
                raise ValueError("invalid metric: " + report.summary())

    # -- metric ---------------------------------------------------------------

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def distance(self, i: int, j: int) -> Fraction:
        return self._fractions[self._imat.item(i, j)]

    def ball_masks(self, eps) -> dict:
        """Closed eps-balls as int bitmasks: bit q of entry i is set iff
        d(i, q) <= eps.  A row is built on its first lookup and kept."""
        return self._ball_cache.table(eps)

    def diameter_bound(self) -> Fraction:
        return self._fractions[int(self._imat.max())]

    def validate_metric(self) -> MetricReport:
        """Check symmetry, the zero diagonal, identity of indiscernibles and
        the triangle inequality on the integer matrix, every triple unless
        more than 512 points hold integers beyond 64 bits: then a
        deterministic sample of ``_SAMPLE_TRIPLES`` triples."""
        rep = MetricReport(ok=True, mode="full")
        mat, n = self._imat, self.n
        rep.diagonal_failures = np.flatnonzero(np.diagonal(mat) != 0).tolist()
        for failures, flags in ((rep.symmetry_failures, mat != mat.T),
                                (rep.indiscernible_failures, mat == 0)):
            failures.extend(map(tuple, np.argwhere(np.triu(flags, 1)).tolist()))
        if mat.dtype != object or n <= 512:
            for k in range(n):
                bad = mat > mat[:, k:k + 1] + mat[k:k + 1, :]
                if bad.any():
                    rep.triangle_failures.extend(
                        (i, j, k) for i, j in np.argwhere(bad)[:8].tolist())
        else:
            rep.mode = "sampled"
            idx = np.arange(0, n ** 3, max(1, n ** 3 // _SAMPLE_TRIPLES))
            k, rem = np.divmod(idx, n * n)
            i, j = np.divmod(rem, n)
            bad = mat[i, j] > mat[i, k] + mat[k, j]
            rep.triangle_failures = list(zip(i[bad].tolist(), j[bad].tolist(),
                                             k[bad].tolist()))
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
        table = self._succ_cache.table(delta)
        succ = table[i]
        if succ is None:
            succ = table[i] = tuple(_members(self.ball_masks(delta)[self.map[i]]))
        return succ

    def ball(self, i: int, eps: Fraction) -> frozenset:
        return frozenset(_members(self.ball_masks(eps)[i]))

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
        masks = self.ball_masks(eps)
        return lambda i, j: masks[i] >> j & 1 == 1

    def close_masks(self, points: Sequence[int], eps: Fraction) -> list:
        """Bit j of entry i is set iff d(points[i], points[j]) <= eps: the
        integer test of ``ball_masks`` on the points' rows and columns of
        the metric, 64 rows at a time, so no m x m copy is held."""
        idx = np.asarray(points)
        if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= self.n):
            raise ValueError("points must be point indices of the net system")
        idx = idx.astype(np.intp)
        t = _threshold(eps, self.denominator)
        width = (len(idx) + 7) // 8
        masks = []
        for a in range(0, len(idx), 64):
            close = self._imat.take(idx[a:a + 64], axis=0).take(idx, axis=1) <= t
            packed = np.packbits(close, axis=1, bitorder="little").tobytes()
            masks += [int.from_bytes(packed[k:k + width], "little")
                      for k in range(0, len(packed), width)]
        return masks

    def traces(self, z: int, pts: Sequence[int], eps: Fraction) -> bool:
        """Whether d(f^i(z), x_i) <= eps for every i, point by point."""
        return _trace_stepwise(self, z, pts, eps)

    def step_check(self, pts: Sequence[int], delta: Fraction) -> Optional[int]:
        """The first step with d(f(x_i), x_{i+1}) > delta, or None, after
        checking every point: each step is a bit of the delta-ball masks."""
        for p in pts:
            self.check_point(p)
        close, fmap = self.closeness(delta), self.map
        return next((i for i, (p, q) in enumerate(zip(pts, pts[1:]))
                     if not close(fmap[p], q)), None)

    # -- shadows, chains and loops ---------------------------------------------

    def shadow(self, pts: Sequence[int], eps: Fraction) -> Optional[int]:
        """The least net point that eps-traces the sequence, or None: the net
        is exhausted in one backward pass over the integer metric, where
        z traces x_i, x_{i+1}, ... iff d(z, x_i) <= eps and f(z) traces
        x_{i+1}, ...."""
        for p in pts:
            self.check_point(p)
        t = _threshold(eps, self.denominator)
        fmap = np.array(self.map)
        ok = np.ones(self.n, dtype=bool)
        for x in reversed(pts):
            ok = (self._imat[:, x] <= t) & ok[fmap]
        return int(ok.argmax()) if ok.any() else None

    def piece_coding(self, pieces: dict, eps: Fraction) -> None:
        """None: a net shadows and traces each chain's points one by one
        (``shadow``, ``traces``), which needs no triangle inequality."""
        return None

    def shadow_steps(self, eps: Fraction, delta: Fraction):
        """The steps of the shadowability search (``shadow_search.unshadowed``):
        every point is a candidate start, and the state is the int bitmask of
        the positions a shadow may still hold (bit w: the shadow may sit at
        w), first the eps-ball of the start.  ``expand(p, T)`` pairs each
        delta-successor q of p with f(T) & B_eps(q)."""
        balls = self.ball_masks(eps)
        fmap = self.map
        images: dict = {}  # f(T) of each state T the search has met

        def expand(p: int, tset: int) -> list:
            image = images.get(tset)
            if image is None:
                image, rest = 0, tset
                while rest:
                    low = rest & -rest
                    image |= 1 << fmap[low.bit_length() - 1]
                    rest ^= low
                images[tset] = image
            return [(q, image & balls[q]) for q in self.successors(p, delta)]

        return range(self.n), balls.__getitem__, expand

    def chain(self, a: int, b: int, delta: Fraction) -> Optional[list]:
        """Points of a shortest delta-chain from a to b, or None; among the
        shortest chains the lexicographically least.  When a == b the chain
        makes at least one step."""
        path = _shortest_path(lambda u: self.successors(u, delta), a, b, self.n)
        return None if path is None else list(path)

    def dwell_loop(self, p: int, delta: Fraction) -> Optional[list]:
        """The shortest delta-chain loop at p."""
        return self.chain(p, p, delta)

    def loop_candidates(self, x: int, delta: Fraction, n_max: int) -> list:
        """Delta-loops at x of at most ``n_max`` steps as point lists: the
        shortest chain loop, then detours x -> q -> x through every other
        point.  One search from x, out to ``n_max`` steps, traces the loop
        at x and every outbound chain; a search back from q goes only as
        deep as the steps left."""
        succ = [self.successors(u, delta) for u in range(self.n)].__getitem__
        out = []
        prev = _search(succ, x, n_max)
        loop = _path(prev, x, x)
        if loop is not None:
            out.append(list(loop))
        count = 0
        for q in range(self.n):
            if q == x:
                continue
            count += 1
            if count > LOOP_CANDIDATE_BUDGET:
                raise BudgetExceeded("loop candidate search exceeded its budget")
            first = _path(prev, x, q)
            if first is None:
                continue
            back = _shortest_path(succ, q, x, n_max - (len(first) - 1))
            if back is None:
                continue
            out.append(list(first + back[1:]))
        return out

    def neighborhood(self, points: Sequence[int], delta: Fraction) -> list:
        """Net points within delta of the set, ascending."""
        masks = self.ball_masks(delta)
        near = 0
        for x in points:
            near |= masks[x]
        return _members(near)

    # -- chain classes ----------------------------------------------------------

    def chain_net(self, depth: Optional[int]) -> "NetSystem":
        """The net the delta-chain graph is built on: this one."""
        return self

    def node_of(self, p: int) -> int:
        return p

    def point_of(self, node: int) -> int:
        return node

    def restrict_to(self, nodes) -> Callable:
        """The test keeping shadowability searches inside the given nodes."""
        return frozenset(nodes).__contains__

    # -- measures and entropy -------------------------------------------------------

    def test_centers(self, depth: int) -> list:
        return list(range(self.n))

    def sample_point(self, rng) -> int:
        return rng.randrange(self.n)

    def nearby_point(self, x: int, eps: Fraction, rng) -> int:
        """A point at distance < eps from x (strict)."""
        near = self._imat[x] <= _threshold(eps, self.denominator, strict=True)
        return rng.choice(np.flatnonzero(near).tolist())

    def separated_count(self, n: int, eps: Fraction) -> None:
        """No counting argument: separated sets come from a clique search."""
        return None

    def dynamical_ball(self, x: int, e: Fraction, horizon: int,
                       depth: Optional[int]) -> tuple:
        """(members, count, universe, stamps) of the finite-horizon dynamical
        ball: members q with d(f^i(x), f^i(q)) <= e for |i| <= horizon
        (forward window only when the map is not invertible)."""
        lo = -horizon if self.invertible else 0
        t, mat = _threshold(e, self.denominator), self._imat
        inside = mat[x] <= t
        for maps in ((self.map, self.inverse) if self.invertible else (self.map,)):
            step = np.asarray(maps)
            xi, images = x, np.arange(self.n)
            for _ in range(horizon):
                xi, images = maps[xi], step[images]
                inside &= mat[xi, images] <= t
        members = tuple(np.flatnonzero(inside).tolist())
        return members, len(members), "net", {"window": (lo, horizon)}


System = Union[SymbolicSystem, NetSystem]
SystemPoint = Union[int, SymbolicPoint]


# -- common net constructions ----------------------------------------------


def circle_arcs(angles: np.ndarray, denominator: int) -> np.ndarray:
    """Arc-length distances on R/Z between the angles a_i / D (0 <= a_i < D),
    as integer numerators over D: min(k, D - k) with k = (a_i - a_j) mod D,
    built in place in the narrowest type that holds D."""
    a = np.asarray(angles).astype(_int_type(denominator))
    k = a[:, None] - a
    k %= denominator
    np.minimum(k, denominator - k, out=k)
    return k


def circle_net(size: int, step_fn: Callable[[int], int],
               invertible: bool = False) -> NetSystem:
    """Net of ``size`` equally spaced angles on the circle (``circle_arcs``, unchecked)."""
    if size < 3:
        raise ValueError("need at least 3 net points")
    labels = [Fraction(i, size) for i in range(size)]
    return NetSystem(labels, circle_arcs(np.arange(size), size),
                     [step_fn(i) % size for i in range(size)],
                     resolution=Fraction(1, 2 * size), invertible=invertible,
                     metric_check=False, denominator=size)
