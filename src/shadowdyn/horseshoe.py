"""Semi-horseshoe certificates from families of separated pseudo-orbit loops.

A family of k delta-loops at a common base point, pairwise more than
4 epsilon apart at some matching index, codes every finite word over k
symbols by a shadow of the word's loops joined at the base.
``make_family`` is the one place that builds a family from loops: the
search ``find_loop_family`` and both recipes end in it.  Distinct
words of equal length then yield (n |w|, epsilon)-separated points, which
pins the entropy lower bound log(k)/n.  A certificate stores the loops and
one coded point per word, and nothing derived from them; everything stored
is finitely re-checkable, and no claim is made about the infinite factor
map.  ``HorseshoeCertificate.check`` is the one rule for a valid
certificate; ``verify`` runs it on a certificate loaded from a document.
It traces each coded word once and reads the semiconjugacy (the n-th
iterate of a word's point traces the word's tail) off that pass.

A word's pseudo-orbit is a chain of at most k^2 + k junction pieces:
loop s's body followed by the point the word goes to next.  On a shift
(``piece_coding``) each piece is glued once, and a word's shadow and trace
come from its pieces' joined glue.  The shift's distance is an
ultrametric, so two traced words of a verified family are more than
4 eps - 2 eps = 2 eps apart at their loops' witness index, and separation
tests points only for pairs with an untraced word.  A net traces each
word point by point and tests every pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .pseudo_orbits import PseudoOrbit, concatenate, orbit_segment, repeat, validate
from .shadow_search import find_shadow, shadows
from .systems import BudgetExceeded


class RecipeInapplicable(ValueError):
    """The structural hypothesis of a loop-building recipe fails."""


class CertificateAborted(RuntimeError):
    """Some word admits no shadow at this resolution."""

    def __init__(self, word):
        self.word = word
        super().__init__(f"word {word} admits no shadow; "
                         "certificate aborted (falsification at this resolution)")


@dataclass(frozen=True)
class SeparationWitness:
    loop_a: int
    loop_b: int
    index: int
    distance: Fraction


@dataclass
class LoopFamily:
    """k equal-length delta-loops at one base point with pairwise 4 epsilon
    separation witnesses (strict inequality, re-verifiable)."""

    system: object
    base: object
    loops: tuple  # of PseudoOrbit, all loops at base with equal step_count
    delta: Fraction
    epsilon: Fraction
    witnesses: tuple  # SeparationWitness per unordered pair

    @property
    def k(self) -> int:
        return len(self.loops)

    @property
    def n(self) -> int:
        return self.loops[0].step_count

    def loop_faults(self) -> list:
        """The loops whose steps make no delta-loop: {"loop": i, "steps": 0}
        for a loop with no step, and {"loop": i, "step": j} for one whose
        first step above delta is j."""
        faults = []
        for i, lp in enumerate(self.loops):
            if not lp.step_count:
                faults.append({"loop": i, "steps": 0})
            elif (j := self.system.step_check(lp.points, self.delta)[0]) is not None:
                faults.append({"loop": i, "step": j})
        return faults

    def reverify(self) -> bool:
        """No loop faults, every loop at the base with one step count, and
        a witness per pair, more than 4 epsilon at the distance it states."""
        if self.loop_faults():
            return False
        if any(lp.kind != "loop" or not lp.start == lp.end == self.base for lp in self.loops):
            return False
        if len({lp.step_count for lp in self.loops}) != 1:
            return False
        bound = 4 * self.epsilon
        seen = set()
        for w in self.witnesses:
            a, b = self.loops[w.loop_a], self.loops[w.loop_b]
            d = self.system.distance(a.points[w.index], b.points[w.index])
            if not (d > bound and d == w.distance):
                return False
            seen.add((w.loop_a, w.loop_b))
        expected = {(i, j) for i in range(self.k) for j in range(i + 1, self.k)}
        return seen == expected


def equalize(loops: Sequence[PseudoOrbit]) -> list:
    """Repeat each loop to the least common multiple of the step counts."""
    n = 1
    for lp in loops:
        n = math.lcm(n, lp.step_count)
    return [repeat(lp, n // lp.step_count) if lp.step_count != n else lp
            for lp in loops]


def separation_witness(system, a: PseudoOrbit, b: PseudoOrbit,
                       threshold: Fraction) -> Optional[tuple]:
    """(i, d(a_i, b_i)) for the first index i with d(a_i, b_i) > threshold
    (strict), found with the system's closeness test, or None."""
    close = system.closeness(threshold)
    for i, (p, q) in enumerate(zip(a.points, b.points)):
        if not close(p, q):
            return i, system.distance(p, q)
    return None


def make_family(system, base, loops: Sequence[PseudoOrbit], epsilon,
                delta) -> LoopFamily:
    """Length-equalize delta-loops at the base and certify pairwise
    separation: each pair's witness is the first index of the equalized
    loops more than 4 epsilon apart.  Raises ``ValueError`` when a pair has
    none.  This is the one constructor of a family from loops."""
    epsilon = Fraction(epsilon)
    if not loops:
        raise ValueError("need at least one loop")
    eq = equalize(loops)
    witnesses = []
    for i in range(len(eq)):
        for j in range(i + 1, len(eq)):
            w = separation_witness(system, eq[i], eq[j], 4 * epsilon)
            if w is None:
                raise ValueError(f"loops {i} and {j} have no 4-epsilon separation index")
            witnesses.append(SeparationWitness(i, j, w[0], w[1]))
    fam = LoopFamily(system, base, tuple(eq), Fraction(delta), epsilon, tuple(witnesses))
    assert fam.reverify()
    return fam


def find_loop_family(x, epsilon, delta, n_max: int, k: int, system) -> Optional[LoopFamily]:
    """Search k pairwise-separated delta-loops at x of a common length
    <= n_max, among at most ``systems.LOOP_CANDIDATE_BUDGET`` candidate
    excursions (``BudgetExceeded`` beyond).  Candidates are taken shortest
    first, and each is kept when, equalized with the loops already kept, it
    is separated from every one of them.  Kept pairs need no second test:
    equalizing repeats a loop, which keeps every prefix, and a witness index
    lies below the loop length.  Assumes x already passed the positive
    shadowing test at (epsilon, delta); the family itself never certifies
    that.
    """
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    candidates = sorted((pts for pts in system.loop_candidates(x, delta, n_max)
                         if len(pts) - 1 <= n_max), key=len)
    chosen: list[PseudoOrbit] = []
    for pts in candidates:
        loop = validate(pts, delta, system)
        *eq, new = equalize(chosen + [loop])
        if new.step_count > n_max:
            continue
        if all(separation_witness(system, a, new, 4 * epsilon) is not None for a in eq):
            chosen.append(loop)
            if len(chosen) == k:
                return make_family(system, x, chosen, epsilon, delta)
    return None


# Loop words a failed certificate check names as missing, shortest first.
# Each word the check looks at is coded or named, so the certificate's size
# bounds the scan.
_MISSING_SHOWN = 8


def loop_words(k: int, word_length_max: int):
    """Every word over k loop symbols with 1 <= |w| <= word_length_max,
    shortest first and in lexicographic order within a length."""
    for length in range(1, word_length_max + 1):
        yield from itertools.product(range(k), repeat=length)


@dataclass
class HorseshoeCertificate:
    """A coded point for every loop word up to a stamped length."""

    family: LoopFamily
    word_length_max: int
    coded: dict  # word tuple -> coded point
    entropy_log_arg: int   # k: bound is log(k)/n, kept symbolic
    entropy_divisor: int   # n

    @property
    def entropy_lower_bound(self) -> float:
        return math.log(self.entropy_log_arg) / self.entropy_divisor

    def word_points(self, word: tuple) -> tuple:
        """The points of the pseudo-orbit a nonempty word codes: its loops'
        bodies joined, then the last loop's end (the base, in a valid
        family).  Each junction step is the next loop's first step, which
        that loop's own validation covers."""
        loops = self.family.loops
        return (tuple(itertools.chain.from_iterable(loops[s].points[:-1] for s in word))
                + loops[word[-1]].points[-1:])

    def _coding(self) -> tuple:
        """(shadow(word), traces(z, word), witnessed) at the family's epsilon.

        Each word is the chain of its junction pieces, keyed (s, x) for
        loop s's body followed by the point x the word goes to next; two
        consecutive pieces share x when every loop has a step.  With the
        system's ``piece_coding`` (a shift) each piece is glued once and
        ``witnessed`` is True: two traced words of a verified family are
        separated at their loops' witness index.  Otherwise, or when a
        loop has no step, each word's points are shadowed and traced one
        by one."""
        fam = self.family
        system, eps = fam.system, fam.epsilon
        heads = [lp.points[0] for lp in fam.loops]
        ends = [lp.points[-1] for lp in fam.loops]
        pieces = {(s, x): lp.points[:-1] + (x,)
                  for s, lp in enumerate(fam.loops) for x in (*heads, ends[s])}
        coding = (system.piece_coding(pieces, eps)
                  if all(lp.step_count for lp in fam.loops) else None)
        if coding is None:
            def shadow(word):
                witness = find_shadow(system, self.word_points(word), eps)
                return None if witness is None else witness.shadow_point

            def traces(z, word) -> bool:
                return shadows(system, z, self.word_points(word), eps) is not None

            return shadow, traces, False
        shadow_chain, traces_chain = coding

        def chain(word) -> list:
            return ([(s, heads[t]) for s, t in zip(word, word[1:])]
                    + [(word[-1], ends[word[-1]])])

        return (lambda word: shadow_chain(chain(word)),
                lambda z, word: traces_chain(z, chain(word)), True)

    def check(self) -> dict:
        """Re-check every stored invariant: the family (``reverify``, the one
        judge of the loops), the tracing clause for all coded words (every
        loop word up to ``word_length_max`` must be coded), the
        semiconjugacy relation, the separation counts and the entropy
        stamp.  The details name the loop faults, the untraced words and the
        first missing words, shortest first.

        Each coded point is traced once (``_coding``: on a shift one byte
        comparison against its word's joined piece glue).  When every loop
        has n steps, a point that traces a word a.w' traces w' from its
        n-th iterate, so semiconjugacy traces again only the tails of the
        untraced words, and of every word when the family fails.  On a
        witnessed coding with a valid family, separation tests points only
        for the pairs with an untraced word; otherwise it tests every
        pair."""
        fam = self.family
        system = fam.system
        _, traces, witnessed = self._coding()
        words = sorted(self.coded)
        untraced = [w for w in words if not traces(self.coded[w], w)]
        missing = [list(w) for w in itertools.islice(
            (w for w in loop_words(fam.k, self.word_length_max) if w not in self.coded),
            _MISSING_SHOWN)]
        family = fam.reverify()
        traced = set(words).difference(untraced) if family and witnessed else set()
        checks = {
            "family": family,
            "tracing": not untraced and not missing,
            "semiconjugacy": all(
                traces(system.iterate(self.coded[w], fam.n), w[1:])
                for w in (untraced if family else words) if len(w) > 1),
            "separated_counts": all(self._separated_count(length, traced) == fam.k ** length
                                    for length in sorted({len(w) for w in self.coded})),
            "entropy_bound": (self.entropy_log_arg, self.entropy_divisor) == (fam.k, fam.n),
        }
        details = {}
        if not family and (faults := fam.loop_faults()):
            details["loop_faults"] = faults
        if untraced:
            details["tracing_failures"] = [list(w) for w in untraced]
        if missing:
            details["missing_words"] = missing
        return {"ok": all(checks.values()), "checks": checks, "details": details}

    def separated_pair_count(self, length: int) -> int:
        """The number of coded words of the given length (k^length for a sound
        certificate) when each two are more than 2 epsilon apart at the
        witness index of the loops where they first differ, else -1."""
        return self._separated_count(length, set())

    def _separated_count(self, length: int, traced: set) -> int:
        """``separated_pair_count`` with no test of a pair of two words in
        ``traced``: words known to be traced by their coded points, on a
        witnessed coding of a family that verifies."""
        fam = self.family
        system, n = fam.system, fam.n
        close = system.closeness(2 * fam.epsilon)
        index = {}
        for w in fam.witnesses:
            index.setdefault((min(w.loop_a, w.loop_b), max(w.loop_a, w.loop_b)), w.index)
        words = [w for w in self.coded if len(w) == length]
        tested = [w for w in words if w not in traced]
        pairs = itertools.chain(itertools.combinations(tested, 2),
                                itertools.product(tested, [w for w in words if w in traced]))
        for wa, wb in pairs:
            s = next(i for i in range(length) if wa[i] != wb[i])
            i = index.get((min(wa[s], wb[s]), max(wa[s], wb[s])))
            if i is None:
                return -1
            time = s * n + i
            if close(system.iterate(self.coded[wa], time),
                     system.iterate(self.coded[wb], time)):
                return -1
        return len(words)


def build_certificate(family: LoopFamily, word_length_max: int) -> HorseshoeCertificate:
    """Shadow every loop word with |w| <= word_length_max at the family's
    epsilon (``HorseshoeCertificate._coding``: on a shift the closure of
    the word's joined piece glue).  Aborts with the offending word when
    some word's loops admit no shadow (a falsification at this
    resolution)."""
    cert = HorseshoeCertificate(family, word_length_max, {}, family.k, family.n)
    shadow, _, _ = cert._coding()
    for word in loop_words(family.k, word_length_max):
        z = shadow(word)
        if z is None:
            raise CertificateAborted(word)
        cert.coded[word] = z
    return cert


# -- recipes -------------------------------------------------------------------


def nonminimal_recipe(x, cycle_points: Sequence, delta, system,
                      class_nodes: Optional[Sequence] = None,
                      z=None) -> LoopFamily:
    """Two separated loops from a chain class strictly containing a cycle.

    One loop dwells near a point z of the class off the cycle set, the other
    runs to the cycle, winds there for more than the first loop's length,
    and returns.  The separation scale is epsilon = d(z, cycle)/5, with
    4 delta < epsilon required.  ``make_family`` certifies the pair at the
    first index of the equalized loops more than 4 epsilon apart, and raises
    ``ValueError`` when there is none.
    """
    delta = Fraction(delta)
    cyc = list(cycle_points)
    if not cyc:
        raise RecipeInapplicable("empty cycle set")
    if z is None:
        z = x
        if x in cyc:
            off = sorted(set(class_nodes or ()) - set(cyc))
            z = off[0] if off else None
    if z is None or z in cyc:
        raise RecipeInapplicable("chain class does not strictly contain the cycle")
    dist_zk = min(system.distance(z, c) for c in cyc)
    eps = dist_zk / 5
    if not 4 * delta < eps:
        raise ValueError(f"need 4 delta < epsilon = d(z, K)/5 = {eps}")
    dwell = system.dwell_loop(z, delta)
    if dwell is None:
        raise RecipeInapplicable("no delta-loop dwells at z")
    c1 = validate(dwell, delta, system)
    y = cyc[0]
    to_cycle = system.chain(z, y, delta)
    from_cycle = system.chain(y, z, delta)
    if to_cycle is None or from_cycle is None:
        raise RecipeInapplicable("z and the cycle are not mutually chained")
    a2 = validate(to_cycle, delta, system)
    a1 = validate(from_cycle, delta, system)
    period = system.period(y)
    if period is None:
        raise RecipeInapplicable("cycle points must be periodic")
    a3 = orbit_segment(system, y, period)

    n1 = c1.step_count
    dwell_reps = (n1 // a3.step_count) + 2
    c2 = a2
    for _ in range(dwell_reps):
        c2 = concatenate(c2, a3)
    c2 = concatenate(c2, a1)

    return make_family(system, z, [c1, c2], eps, delta)


def sensitive_recipe(x, neighborhood: Sequence, constant, system, delta,
                     return_budget: int = 512) -> LoopFamily:
    """Two separated loops from a sensitive minimal class.

    Finds a pair of neighborhood points whose orbits diverge past the
    sensitivity constant within 64 steps and later return to the
    neighborhood; the returning orbit segments, closed up through the base
    point, become the loops.  The family's epsilon is constant/5, below
    the constant/4 that the separation needs.  ``make_family`` certifies
    the pair at the first index of the equalized loops more than 4 epsilon
    apart, which is at most the divergence index when that index still
    separates them, and raises ``ValueError`` when there is none.
    """
    constant = Fraction(constant)
    delta = Fraction(delta)
    if constant <= 0:
        raise ValueError("constant must be positive")
    eps = constant / 5
    pts = list(neighborhood)
    if x not in pts:
        pts = [x] + pts

    div = None
    for a, b in itertools.combinations(pts, 2):
        ca, cb = a, b
        for n in range(1, 64 + 1):
            ca, cb = system.step(ca), system.step(cb)
            if system.distance(ca, cb) > constant:
                div = (a, b, n)
                break
        if div:
            break
    if div is None:
        raise RecipeInapplicable("no diverging pair in the neighborhood "
                                 "(equicontinuous at this resolution)")
    a, b, n = div

    def returning_orbit(p):
        cur = system.step(p)
        seg = [cur]
        for steps in range(2, return_budget + 1):
            cur = system.step(cur)
            if steps > n and any(cur == q for q in pts):
                return seg, steps
            seg.append(cur)
        raise BudgetExceeded("orbit did not return to the neighborhood in budget")

    seg_a, na = returning_orbit(a)
    seg_b, nb = returning_orbit(b)
    c1 = validate([x] + seg_a[:na - 1] + [x], delta, system, kind="loop")
    c2 = validate([x] + seg_b[:nb - 1] + [x], delta, system, kind="loop")
    return make_family(system, x, [c1, c2], eps, delta)
