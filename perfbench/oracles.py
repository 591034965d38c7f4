"""Independent checks of library outputs.

Nothing here calls the code under test.  Net checks work from the raw
data of a circle net (its size and its map as an index table) with an
integer circle metric; symbolic checks work from a point's (offset, word,
period) representation; counts come from brute-force enumeration.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- circle nets: points i/n, distance min(|i-j|, n-|i-j|)/n -----------------


def _arc(n: int, i: int, j: int) -> int:
    m = abs(i - j) % n
    return min(m, n - m)


def _within(n: int, i: int, j: int, bound: Fraction) -> bool:
    return _arc(n, i, j) * bound.denominator <= bound.numerator * n


def is_pseudo_orbit(n: int, fmap, pts, delta: Fraction) -> bool:
    return all(_within(n, fmap[p], q, delta) for p, q in zip(pts, pts[1:]))


def circle_shadows(n: int, fmap, z: int, pts, eps: Fraction) -> bool:
    for p in pts:
        if not _within(n, z, p, eps):
            return False
        z = fmap[z]
    return True


def circle_shadow(n: int, fmap, pts, eps: Fraction):
    """First net point whose orbit stays eps-close to pts, or None."""
    return next((z for z in range(n) if circle_shadows(n, fmap, z, pts, eps)), None)


def circle_shortest_chain(n: int, fmap, a: int, b: int, delta: Fraction):
    """Fewest delta-steps from a to b (at least one), or None."""
    succ = [[q for q in range(n) if _within(n, fmap[p], q, delta)] for p in range(n)]
    dist = {}
    queue = deque()
    for q in succ[a]:
        if q not in dist:
            dist[q] = 1
            queue.append(q)
    while queue:
        p = queue.popleft()
        if p == b:
            return dist[p]
        for q in succ[p]:
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return None


def circle_adjacency(n: int, fmap, delta: Fraction) -> np.ndarray:
    idx = np.arange(n, dtype=np.int64)
    diff = np.abs(np.asarray(fmap, dtype=np.int64)[:, None] - idx[None, :]) % n
    arc = np.minimum(diff, n - diff)
    return arc * delta.denominator <= delta.numerator * n


def table_adjacency(rows, fmap, delta: Fraction) -> np.ndarray:
    """Adjacency d(f(i), j) <= delta from an explicit distance table."""
    n = len(fmap)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        row = rows[fmap[i]]
        adj[i] = [v <= delta for v in row]
    return adj


def chain_classes(adj: np.ndarray):
    """(recurrent set, set of classes) by boolean reachability closure:
    repeated squaring, as in acceptance criterion 10."""
    n = adj.shape[0]
    reach = adj.copy()
    steps = 1
    while steps < n:
        prod = reach.astype(np.int32) @ reach.astype(np.int32)
        reach = reach | (prod > 0)
        steps *= 2
    recurrent = frozenset(np.flatnonzero(np.diagonal(reach)).tolist())
    mutual = reach & reach.T
    classes = set()
    for v in recurrent:
        classes.add(frozenset(np.flatnonzero(mutual[v]).tolist()))
    return recurrent, classes


def circle_separated(n: int, fmap, i: int, j: int, steps: int, eps: Fraction) -> bool:
    for _ in range(steps + 1):
        if not _within(n, i, j, eps):
            return True
        i, j = fmap[i], fmap[j]
    return False


def brute_max_separated(n: int, fmap, cands, steps: int, eps: Fraction) -> int:
    """Largest pairwise separated subset, by enumerating all subsets."""
    m = len(cands)
    adj = [0] * m
    for a, b in itertools.combinations(range(m), 2):
        if circle_separated(n, fmap, cands[a], cands[b], steps, eps):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    best = 0
    for mask in range(1 << m):
        size = bin(mask).count("1")
        if size <= best:
            continue
        rest = mask
        ok = True
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if (mask & ~(1 << v)) & ~adj[v]:
                ok = False
                break
        if ok:
            best = size
    return best


# -- symbolic points from their representation -------------------------------


def coord(p, j: int) -> int:
    lo, word, period = p.offset, p.word, p.period
    hi = lo + len(word)
    if lo <= j < hi:
        return word[j - lo]
    if j >= hi:
        return period[(j - hi) % len(period)]
    return period[(j - lo) % len(period)]


def symbolic_distance(a, b) -> Fraction:
    """2^-i for the least |i| where the sequences differ; 0 if equal."""
    edge = max(abs(a.offset), abs(a.offset + len(a.word)),
               abs(b.offset), abs(b.offset + len(b.word)))
    bound = edge + math.lcm(len(a.period), len(b.period)) + 1
    for i in range(bound + 1):
        if coord(a, i) != coord(b, i) or coord(a, -i) != coord(b, -i):
            return Fraction(1, 1 << i)
    return Fraction(0)


def dstar(mu_atoms, nu_atoms, centers, radii, size: int) -> Fraction:
    """Truncated weak* distance over tent functions, center-major order."""
    total = Fraction(0)
    for j in range(1, size + 1):
        c, r = divmod(j - 1, len(radii))
        center, radius = centers[c], radii[r]

        def integral(atoms):
            s = Fraction(0)
            for point, weight in atoms:
                s += weight * max(Fraction(0), radius - symbolic_distance(point, center))
            return s / (1 + radius)

        total += abs(integral(mu_atoms) - integral(nu_atoms)) / (1 << j)
    return total


def count_words(transitions, length: int) -> int:
    """Admissible words of a length, by enumeration of paths."""
    k = len(transitions)
    if length == 0:
        return 1
    ends = [1] * k
    for _ in range(length - 1):
        ends = [sum(ends[a] for a in range(k) if transitions[a][b]) for b in range(k)]
    return sum(ends)


def separation_window(eps: Fraction) -> int:
    """Largest i with 2^-i > eps (eps < 1)."""
    i = 0
    while Fraction(1, 1 << (i + 1)) > eps:
        i += 1
    return i


def all_words(k: int, length: int) -> set:
    return set(itertools.product(range(k), repeat=length))
