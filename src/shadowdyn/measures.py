"""Empirical measures and the explicit weak* metric.

The metric is a weighted sum over a fixed family of tent test functions
with bounded-Lipschitz norm at most 1; the sum is truncated at J terms and
every result carries the certified tail bound 2^(1-J).  The truncated value
is a lower bound for the untruncated metric, so upper-bound inequalities
checked on it are implied by the exact statements.

The arithmetic is exact and integer.  A measure holds its weights as
integer counts over one denominator (the lcm of its weights'
denominators).  A test family keeps two memos.  Per point y it keeps the
tent vector: for every function j (radius a/b, centre p) the numerator
max(0, a D - b n) of phi_j(y) = max(0, a D - b n) / (D (a + b)), where
n / D is d(y, p) over the lcm D of y's distances to the centres.  Per
measure, keyed by its ``(points, counts)`` (which fix its denominator), it
keeps the integral vector: ``integrals`` reads a measure once, scaling each
atom's tent vector to one common denominator and adding count x vector,
which gives the integrals of all functions as integers, and returns the
kept tuple for every equal measure after that.  ``dstar`` compares the two
measures' vectors in one ``zip`` against per-family weights
2^-(j+1) / (a + b) over a common denominator, and builds a single
``Fraction`` at the end, equal to the rational sum; ``value`` and
``integral`` read the same memos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .pseudo_orbits import connect
from .systems import SystemPoint

ZERO = Fraction(0)


class EmpiricalMeasure:
    """Finitely supported probability measure with exact rational weights,
    held as integer ``counts`` over one ``denominator`` (atom i weighs
    counts[i] / denominator), sorted by point."""

    __slots__ = ("points", "counts", "denominator", "_atoms")

    def __init__(self, atoms):
        weights = [(p, Fraction(w)) for p, w in atoms]
        den = math.lcm(*(w.denominator for _, w in weights))
        self._merge([(p, w.numerator * (den // w.denominator)) for p, w in weights], den)

    @classmethod
    def _from_counts(cls, counted, denominator: int) -> "EmpiricalMeasure":
        mu = cls.__new__(cls)
        mu._merge(counted, denominator)
        return mu

    def _merge(self, counted, denominator: int) -> None:
        """Merge (point, count) pairs over the denominator, check that the
        counts are nonnegative and sum to it, and reduce to lowest terms."""
        merged: dict = {}
        for point, count in counted:
            if count < 0:
                raise ValueError("weights must be nonnegative")
            if count:
                merged[point] = merged.get(point, 0) + count
        if not merged:
            raise ValueError("measure needs at least one atom")
        total = sum(merged.values())
        if total != denominator:
            raise ValueError(f"weights sum to {Fraction(total, denominator)}, not 1")
        # points of one system kind are totally ordered (shifts canonically)
        items = sorted(merged.items(), key=_order)
        g = math.gcd(denominator, *merged.values())
        self.points = tuple(p for p, _ in items)
        self.counts = tuple(c // g for _, c in items)
        self.denominator = denominator // g
        self._atoms = None

    @property
    def atoms(self) -> tuple:
        """(point, Fraction weight) pairs, sorted by point."""
        if self._atoms is None:
            den = self.denominator
            self._atoms = tuple((p, Fraction(c, den))
                                for p, c in zip(self.points, self.counts))
        return self._atoms

    @classmethod
    def from_orbit(cls, system, x: SystemPoint, n: int) -> "EmpiricalMeasure":
        """Uniform weights 1/n on the first n orbit points (merged)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        pts = []
        cur = x
        for _ in range(n):
            pts.append((cur, 1))
            cur = system.step(cur)
        return cls._from_counts(pts, n)

    @classmethod
    def point_mass(cls, x: SystemPoint) -> "EmpiricalMeasure":
        return cls._from_counts([(x, 1)], 1)

    @classmethod
    def from_sequence(cls, points: Sequence[SystemPoint]) -> "EmpiricalMeasure":
        return cls._from_counts([(p, 1) for p in points], len(points))

    @classmethod
    def mix(cls, measures: Sequence["EmpiricalMeasure"],
            weights: Sequence[Fraction]) -> "EmpiricalMeasure":
        if len(measures) != len(weights):
            raise ValueError("one weight per measure")
        weights = [Fraction(a) for a in weights]
        den = math.lcm(*(a.denominator * mu.denominator
                         for mu, a in zip(measures, weights)))
        atoms = []
        for mu, a in zip(measures, weights):
            scale = a.numerator * (den // (a.denominator * mu.denominator))
            atoms.extend((p, scale * c) for p, c in zip(mu.points, mu.counts))
        return cls._from_counts(atoms, den)

    def __eq__(self, other):
        if not isinstance(other, EmpiricalMeasure):
            return NotImplemented
        return (self.denominator == other.denominator
                and dict(zip(self.points, self.counts))
                == dict(zip(other.points, other.counts)))

    def __hash__(self):
        return hash((frozenset(zip(self.points, self.counts)), self.denominator))

    def __repr__(self):
        return f"EmpiricalMeasure({len(self.points)} atoms)"


def _order(atom) -> object:
    """Sort key of a (point, count) pair: the canonical form of a symbolic
    point, which is what its ``<`` compares, or the net point itself."""
    canonical = getattr(atom[0], "canonical", None)
    return atom[0] if canonical is None else canonical()


class TestFunctionFamily:
    """Tent functions phi(y) = max(0, r - d(y, p)) / (1 + r) over an
    enumeration of (center, dyadic radius) pairs, center-major.

    Each function has sup norm r/(1+r) and Lipschitz bound 1/(1+r), so the
    bounded-Lipschitz norm is exactly 1.  With r = a/b and d = n/D,
    phi(y) = max(0, a D - b n) / (D (a + b)).
    """

    __test__ = False  # not a pytest class despite the name

    def __init__(self, system, centers: Sequence, radii: Optional[Sequence] = None,
                 size: int = 24):
        self.system = system
        self.centers = tuple(centers)
        self.radii = (tuple(map(Fraction, radii)) if radii is not None
                      else (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)))
        if not self.radii:
            raise ValueError("the family needs at least one radius")
        if min(self.radii) <= 0:
            raise ValueError("radii must be positive")
        if size < 1:
            raise ValueError("family size must be positive")
        if size > len(self.centers) * len(self.radii):
            raise ValueError("not enough (center, radius) pairs for the requested size")
        self.size = size
        # the centres the first `size` (center, radius) pairs reach
        self._used = self.centers[:-(-size // len(self.radii))]
        # per function: (centre index, a, b) for the radius a/b
        self._spec = tuple((c, r.numerator, r.denominator)
                           for c, r in map(self._function, range(1, size + 1)))
        # dstar's term j is 2^-(j+1) |difference| / (a + b): over the common
        # denominator scale << size its weight is (scale / (a + b)) << (size-1-j)
        self._scale = math.lcm(*(a + b for _, a, b in self._spec))
        self._weights = tuple((self._scale // (a + b)) << (size - 1 - j)
                              for j, (_, a, b) in enumerate(self._spec))
        self._tail = Fraction(2, 1 << size)
        # the one vector of every point whose tents all vanish
        self._zero = ((0,) * size, 1)
        self._tents: dict = {}
        # (points, counts) of a measure -> its integrals
        self._integrals: dict = {}

    @classmethod
    def for_system(cls, system, size: int = 24, depth: int = 2,
                   radii: Optional[Sequence] = None) -> "TestFunctionFamily":
        return cls(system, system.test_centers(depth), radii=radii, size=size)

    def _function(self, j: int) -> tuple:
        """(center index, radius) of the j-th function, 1-based."""
        if not 1 <= j <= self.size:
            raise ValueError("function index out of range")
        c, r = divmod(j - 1, len(self.radii))
        return c, self.radii[r]

    def pair(self, j: int) -> tuple:
        """(center, radius) of the j-th function, 1-based."""
        c, r = self._function(j)
        return self.centers[c], r

    def _tent_vector(self, y) -> tuple:
        """(tents, D): y's tent numerators max(0, a D - b n), one per
        function, over the lcm D of the denominators of its distances n / D
        to the used centres (the shared ``_zero`` when all vanish); computed
        once per point."""
        vector = self._tents.get(y)
        if vector is None:
            ds = [self.system.distance(y, p) for p in self._used]
            den = math.lcm(*(d.denominator for d in ds))
            nums = [d.numerator * (den // d.denominator) for d in ds]
            tents = tuple([max(0, a * den - b * nums[c]) for c, a, b in self._spec])
            vector = self._tents[y] = (tents, den) if any(tents) else self._zero
        return vector

    def value(self, j: int, y) -> Fraction:
        _, r = self._function(j)
        tents, den = self._tent_vector(y)
        return Fraction(tents[j - 1], den * (r.numerator + r.denominator))

    def integrals(self, mu: EmpiricalMeasure) -> tuple:
        """(sums, s): the integrals of all functions against mu, function
        j's (radius a/b) being sums[j-1] / (s (a + b)), with sums a tuple.
        Computed once per measure: equal measures share the result."""
        key = (mu.points, mu.counts)
        result = self._integrals.get(key)
        if result is None:
            result = self._integrals[key] = self._integrate(mu)
        return result

    def _integrate(self, mu: EmpiricalMeasure) -> tuple:
        """``integrals`` in one pass over mu's atoms: sums adds
        count x (D / D_y) x tents over the atoms y, D the lcm of their
        vectors' denominators D_y.  Atoms whose tents all vanish add
        nothing and are skipped."""
        zero = self._zero
        live = [(count, vector) for count, vector
                in zip(mu.counts, map(self._tent_vector, mu.points)) if vector is not zero]
        if not live:
            return zero[0], mu.denominator
        den = math.lcm(*(d for _, (_, d) in live))
        scales = [count * (den // d) for count, (_, d) in live]
        sums = tuple([sum(map(mul, scales, column))
                      for column in zip(*(tents for _, (tents, _) in live))])
        return sums, mu.denominator * den

    def integral(self, j: int, mu: EmpiricalMeasure) -> Fraction:
        _, r = self._function(j)
        sums, s = self.integrals(mu)
        return Fraction(sums[j - 1], s * (r.numerator + r.denominator))

    def validate(self, sample_points: Sequence) -> bool:
        """sup|phi| + Lip(phi) <= 1 on all sampled pairs."""
        for j in range(1, self.size + 1):
            _, r = self.pair(j)
            c = 1 / (1 + r)
            sup = ZERO
            for y in sample_points:
                v = self.value(j, y)
                if v > sup:
                    sup = v
            for a in sample_points:
                va = self.value(j, a)
                for b in sample_points:
                    if a is b:
                        continue
                    d = self.system.distance(a, b)
                    if d > 0 and abs(va - self.value(j, b)) > c * d:
                        return False
            if sup + c > 1:
                return False
        return True


@dataclass(frozen=True)
class DStarResult:
    """Truncated weak* distance with its certified truncation tail."""

    value: Fraction
    tail_bound: Fraction
    terms: int


def dstar(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
          family: TestFunctionFamily) -> DStarResult:
    """Sum over j <= J of 2^-j |integral difference|, with tail 2^(1-J).

    Symmetric and zero exactly when all J integrals agree; the value is a
    lower bound for the untruncated metric.
    """
    size = family.size
    # integral(j, mu) = x_j / (s_mu (a + b)) for the j-th radius a/b, so term
    # j is 2^-(j+1) |x_j s_nu - y_j s_mu| / (s_mu s_nu (a + b))
    xs, s_mu = family.integrals(mu)
    ys, s_nu = family.integrals(nu)
    total = sum([abs(x * s_nu - y * s_mu) * w
                 for x, y, w in zip(xs, ys, family._weights)])
    return DStarResult(Fraction(total, (family._scale * s_mu * s_nu) << size),
                       family._tail, size)


# -- measure approximation lemma suite ---------------------------------------


@dataclass
class LemmaViolation:
    item: int
    trial: int
    lhs: Fraction
    rhs: Fraction
    detail: dict = field(default_factory=dict)


@dataclass
class MeasureApproxReport:
    trials: int
    seed: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_measure_approx(system, family: TestFunctionFamily, trials: int = 1000,
                          seed: int = 0) -> MeasureApproxReport:
    """Random instances of the three weak*-approximation inequalities, on
    orbit segments of 12 points with eps = 1/4:

    1. averages over two index sets A, B of one sequence differ by at most
       (|A|+|B|)/(|A||B|) |A delta B| + ||A|-|B||/(|A||B|) |A cap B|;
    2. sequences paired within eps give empirical measures within eps;
    3. convex combinations of measures eps-close to mu stay eps-close.

    All evaluations are exact; expected violation count is zero.
    """
    import random as _random

    rng = _random.Random(seed)
    eps, orbit_len = Fraction(1, 4), 12
    violations = []
    for trial in range(trials):
        # shared random orbit sequence
        base = system.sample_point(rng)
        seq = [base]
        for _ in range(orbit_len - 1):
            seq.append(system.step(seq[-1]))

        # item 1
        idx = range(orbit_len)
        a_set = sorted(rng.sample(idx, rng.randint(1, orbit_len)))
        b_set = sorted(rng.sample(idx, rng.randint(1, orbit_len)))
        mu_a = EmpiricalMeasure.from_sequence([seq[i] for i in a_set])
        mu_b = EmpiricalMeasure.from_sequence([seq[i] for i in b_set])
        na, nb = len(a_set), len(b_set)
        sym_diff = len(set(a_set) ^ set(b_set))
        inter = len(set(a_set) & set(b_set))
        rhs = (Fraction(na + nb, na * nb) * sym_diff
               + Fraction(abs(na - nb), na * nb) * inter)
        lhs = dstar(mu_a, mu_b, family).value
        if lhs > rhs:
            violations.append(LemmaViolation(1, trial, lhs, rhs,
                                             {"A": a_set, "B": b_set}))

        # item 2
        m = rng.randint(1, orbit_len)
        xs = seq[:m]
        ys = [system.nearby_point(x, eps, rng) for x in xs]
        mu_x = EmpiricalMeasure.from_sequence(xs)
        mu_y = EmpiricalMeasure.from_sequence(ys)
        lhs = dstar(mu_x, mu_y, family).value
        if lhs >= eps:
            violations.append(LemmaViolation(2, trial, lhs, eps, {"m": m}))

        # item 3, around the measure mu_x of item 2
        k = rng.randint(1, 4)
        parts = []
        for _ in range(k):
            ys = [system.nearby_point(x, eps, rng) for x in xs]
            parts.append(EmpiricalMeasure.from_sequence(ys))
        if all(dstar(p, mu_x, family).value < eps for p in parts):
            cuts = sorted(rng.randint(0, 24) for _ in range(k - 1))
            raw = [a - b for a, b in zip(cuts + [24], [0] + cuts)]
            weights = [Fraction(r, 24) for r in raw]
            if sum(weights) == 1 and all(w >= 0 for w in weights):
                mix = EmpiricalMeasure.mix(parts, weights)
                lhs = dstar(mix, mu_x, family).value
                if lhs >= eps:
                    violations.append(LemmaViolation(3, trial, lhs, eps, {"k": k}))
    return MeasureApproxReport(trials, seed, violations)


# -- block concatenations (generic segments + short connectors) ---------------


@dataclass
class BlockConcatenation:
    """Rounds of connector/generic-segment blocks and a sequence tracing them.

    Y is the concatenation over rounds m of X^m_1 P^m_1 ... X^m_k P^m_k,
    where P^m_i is the n-step orbit of the i-th generic point and every
    connector X^m_i has at most R points; X stays within eps of Y pointwise.
    """

    system: object
    measures: tuple
    generic_points: tuple  # per round: tuple of k points
    n: int
    connectors: tuple      # per round: tuple of k point-tuples (may be empty)
    x_sequence: tuple
    eps: Fraction
    connector_bound: int

    def round_points(self, m: int) -> list:
        out = []
        for i in range(len(self.measures)):
            out.extend(self.connectors[m][i])
            p = self.generic_points[m][i]
            for _ in range(self.n):
                out.append(p)
                p = self.system.step(p)
        return out

    def y_sequence(self) -> list:
        out = []
        for m in range(len(self.generic_points)):
            out.extend(self.round_points(m))
        return out

    def boundaries(self) -> list:
        """Cumulative lengths s_1..s_M of the rounds."""
        out = []
        total = 0
        for m in range(len(self.generic_points)):
            total += len(self.round_points(m))
            out.append(total)
        return out


def build_periodic_block_concatenation(system, periodic_points: Sequence,
                                       eps, n: int, rounds: int,
                                       connector_bound: int = 4) -> BlockConcatenation:
    """Standard instance of the block form: the given periodic orbits are
    visited for n steps each, in order, connected by spliced eps-chains
    (with the chain endpoints dropped); the traced sequence X replaces every
    point by the system's ``nearby_point``, the periodic closure of a
    central window, staying within eps."""
    eps = Fraction(eps)
    pts = list(periodic_points)
    k = len(pts)
    measures = []
    for p in pts:
        period = p.least_period()
        if period is None:
            raise ValueError("generic points must be periodic")
        if n % period:
            raise ValueError("n must be a multiple of every orbit period")
        measures.append(EmpiricalMeasure.from_orbit(system, p, period))

    generic = []
    connectors = []
    for _ in range(rounds):
        row_conn = []
        for i, p in enumerate(pts):
            prev = pts[(i - 1) % k]
            if i == 0 and not connectors:
                row_conn.append(())  # the very first block starts the sequence
                continue
            chain = connect(prev.shift(n - 1), p, eps, system)
            if chain is None:
                raise ValueError("orbits are not eps-spliceable")
            conn = tuple(chain.points[1:-1])
            if len(conn) > connector_bound:
                raise ValueError(f"connector of {len(conn)} points exceeds the "
                                 f"bound {connector_bound}")
            row_conn.append(conn)
        generic.append(tuple(pts))
        connectors.append(tuple(row_conn))

    construction = BlockConcatenation(
        system=system, measures=tuple(measures), generic_points=tuple(generic),
        n=n, connectors=tuple(connectors), x_sequence=(), eps=eps,
        connector_bound=connector_bound)
    # a shift's nearby point draws nothing from the generator
    construction.x_sequence = tuple(system.nearby_point(q, eps, None)
                                    for q in construction.y_sequence())
    return construction


@dataclass
class EmpiricalLemmaReport:
    eps: Fraction
    bound: Fraction  # 3 eps
    per_round: list  # (m, s_m, exact value)
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_empirical_lemma(construction: BlockConcatenation,
                           family: TestFunctionFamily) -> EmpiricalLemmaReport:
    """Check d*(average of the measures, empirical of X at each round
    boundary) <= 3 eps, after validating the stated block form."""
    c = construction
    eps = Fraction(c.eps)
    k = len(c.measures)
    if any(len(r) != k for r in c.generic_points) or any(len(r) != k for r in c.connectors):
        raise ValueError("malformed block form: need k entries per round")
    for rnd in c.connectors:
        for conn in rnd:
            if len(conn) > c.connector_bound:
                raise ValueError("malformed block form: connector exceeds the bound")
    y = c.y_sequence()
    if len(c.x_sequence) < len(y):
        raise ValueError("x sequence shorter than the block concatenation")
    close = c.system.closeness(eps)
    for xj, yj in zip(c.x_sequence, y):
        if not close(xj, yj):
            raise ValueError("x sequence leaves the eps-tube around the blocks")

    avg = EmpiricalMeasure.mix(list(c.measures),
                               [Fraction(1, k)] * k)
    bound = 3 * eps
    per_round = []
    violations = []
    for m, s_m in enumerate(c.boundaries(), start=1):
        emp = EmpiricalMeasure.from_sequence(list(c.x_sequence[:s_m]))
        val = dstar(avg, emp, family).value
        per_round.append((m, s_m, val))
        if val > bound:
            violations.append((m, s_m, val, bound))
    return EmpiricalLemmaReport(eps, bound, per_round, violations)
