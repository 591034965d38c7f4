from collections import deque
from fractions import Fraction

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowdyn.builders import extension_builder
from shadowdyn.systems import (
    NetSystem,
    SymbolicPoint,
    SymbolicSystem,
    _PACK_RADIUS,
    circle_arcs,
    circle_net,
    distance_le,
    dyadic_radius,
    first_disagreement,
    symbolic_distance,
)
from shadowdyn.words import SubstitutionLanguage

F = Fraction


def pt(period, word=(), offset=0):
    return SymbolicPoint(period, word, offset)


# -- canonical form / equality ------------------------------------------------


def test_equal_representations_of_same_sequence():
    a = pt((0, 1))                      # ...010101... with 0 at coordinate 0
    b = pt((0, 1, 0, 1))                # doubled period
    c = pt((1, 0), offset=1)            # rotated anchoring, same sequence
    d = pt((0, 1), word=(0, 1), offset=0)  # central word matching the tails
    assert a == b == c == d
    assert len({a, b, c, d}) == 1


def test_distinct_sequences_differ():
    assert pt((0, 1)) != pt((1, 0))     # opposite phase
    assert pt((0,)) != pt((1,))
    assert pt((0,), word=(1,), offset=3) != pt((0,))


def test_canonical_splits_preperiodic():
    x = pt((0,), word=(1,), offset=0)   # ...000 1 000...
    tag, neck, phi_l, phi_r, a, b, middle = x.canonical()
    assert tag == "ev"
    assert neck == (0,)
    assert (a, b) == (0, 1)
    assert middle == (1,)


def test_phase_shifted_tails():
    # ...0101 | 0 | 1010...: word absorbs into tails and phases differ by one
    x = pt((0, 1), word=(0,), offset=0)
    y = pt((0, 1))
    assert x != y
    assert x.coord(0) == 0 and x.coord(1) == 0 and x.coord(-1) == 1


@st.composite
def symbolic_points(draw):
    period = tuple(draw(st.lists(st.integers(0, 2), min_size=1, max_size=5)))
    word = tuple(draw(st.lists(st.integers(0, 2), max_size=5)))
    offset = draw(st.integers(-6, 6))
    return SymbolicPoint(period, word, offset)


@st.composite
def reparametrizations(draw, base):
    """A different representation of the same sequence as ``base``.

    Both tails read the same stored period, so the central word may only
    grow by a multiple of the period length in total."""
    m0 = len(base.period)
    reps = draw(st.integers(1, 3))
    grow_l = draw(st.integers(0, 4))
    grow_r = (-grow_l) % m0 + m0 * draw(st.integers(0, 2))
    lo = base.offset - grow_l
    hi = base.offset + len(base.word) + grow_r - 1
    word = tuple(base.coord(j) for j in range(lo, hi + 1))
    # rotate the repeated period so the left tail stays aligned at lo
    per = base.period * reps
    rot = grow_l % m0
    per_rot = per[-rot:] + per[:-rot] if rot else per
    return SymbolicPoint(per_rot, word, lo)


@given(symbolic_points().flatmap(lambda p: st.tuples(st.just(p), reparametrizations(base=p))))
@settings(max_examples=300)
def test_canonical_is_representation_independent(pair):
    p, q = pair
    # same coordinate function by construction
    for j in range(-20, 21):
        assert p.coord(j) == q.coord(j)
    assert p == q
    assert hash(p) == hash(q)


@given(symbolic_points(), symbolic_points())
@settings(max_examples=300)
def test_equality_matches_coordinatewise_comparison(p, q):
    i = first_disagreement(p, q)
    if i is None:
        assert p == q
        for j in range(-40, 41):
            assert p.coord(j) == q.coord(j)
    else:
        assert p != q
        assert p.coord(i) != q.coord(i) or p.coord(-i) != q.coord(-i)
        for j in range(-(i - 1), i):
            assert p.coord(j) == q.coord(j)


# -- symbolic distance ---------------------------------------------------------


def test_distance_examples():
    a = pt((0,))
    b = pt((0, 1), offset=0)  # b_0 = 0, b_1 = 1
    assert symbolic_distance(a, a) == 0
    # differ first at |j| = 1
    assert symbolic_distance(a, b) == F(1, 2)
    c = pt((1, 0), offset=0)  # c_0 = 1: disagree at coordinate 0
    assert symbolic_distance(a, c) == 1


def test_distance_agreeing_inside_window():
    # agree on |j| < 2, differ at j = 2  ->  1/4
    a = pt((0,))
    b = pt((0,), word=(0, 0, 0, 1), offset=-1)  # coords -1..2 = 0,0,0,1
    assert symbolic_distance(a, b) == F(1, 4)


def test_distance_beyond_pack_radius():
    a = pt((0,))
    b = pt((0,), word=(1,), offset=40)  # deep single disagreement
    assert symbolic_distance(a, b) == F(1, 2 ** 40)
    assert distance_le(a, b, 40)
    assert not distance_le(a, b, 41)


@given(symbolic_points(), symbolic_points(), symbolic_points())
@settings(max_examples=200)
def test_ultrametric_inequality(a, b, c):
    assert symbolic_distance(a, c) <= max(symbolic_distance(a, b), symbolic_distance(b, c))


def test_dyadic_radius():
    assert dyadic_radius(F(1)) == 0
    assert dyadic_radius(F(3, 4)) == 1
    assert dyadic_radius(F(1, 2)) == 1
    assert dyadic_radius(F(1, 5)) == 3
    with pytest.raises(ValueError):
        dyadic_radius(F(0))
    with pytest.raises(ValueError):
        dyadic_radius(F(-1, 4))


def loop_dyadic_radius(eps):
    """The definition: halve from 1 until 2^-t <= eps."""
    t, value = 0, F(1)
    while value > eps:
        t, value = t + 1, value / 2
    return t


@given(st.one_of(
    st.builds(F, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6)),   # mostly not dyadic
    st.builds(lambda m, k: F(m, 1 << k), st.integers(1, 2 ** 12), st.integers(0, 60)),
))
@settings(max_examples=300)
def test_dyadic_radius_matches_halving_loop(eps):
    assert dyadic_radius(eps) == loop_dyadic_radius(eps)


# -- symbolic systems ------------------------------------------------------------


def test_full_shift_admissibility_and_shift():
    sigma2 = SymbolicSystem.full_shift(2)
    p = sigma2.point((0, 1))
    q = p.shift(1)
    assert q.coord(0) == p.coord(1) == 1
    assert sigma2.admissible(q)
    assert sigma2.iterate(p, 0) == p
    assert sigma2.iterate(pt((0,)), 5) == pt((0,))


def test_golden_mean_rejects_11():
    gm = SymbolicSystem.golden_mean()
    assert gm.word_admissible((0, 1, 0, 0, 1))
    assert not gm.word_admissible((0, 1, 1))
    with pytest.raises(ValueError):
        gm.point((1, 1, 0))
    assert gm.admissible(pt((0, 1)))


def test_stranded_symbols_rejected():
    with pytest.raises(ValueError):
        SymbolicSystem(2, [[1, 1], [0, 0]])  # symbol 1 has no outgoing
    with pytest.raises(ValueError):
        SymbolicSystem(2, [[1, 0], [1, 0]])  # symbol 1 has no incoming


def test_word_counts_golden_mean():
    gm = SymbolicSystem.golden_mean()
    # counts follow the Fibonacci recurrence: 2, 3, 5, 8, 13, 21
    assert [gm.count_words(n) for n in range(1, 7)] == [2, 3, 5, 8, 13, 21]
    assert len(gm.words(6)) == 21
    assert all(gm.word_admissible(w) for w in gm.words(6))


def test_periodic_closure():
    gm = SymbolicSystem.golden_mean()
    p = gm.periodic_closure((1, 0, 1), anchor=-1)
    assert p is not None
    assert p.window(-1, 1) == (1, 0, 1)
    assert gm.admissible(p)


def reference_connecting_path(system, a, b):
    """The breadth-first search over (symbol, steps so far, capped at 1)
    states that built every path before paths were tabled: the shortest
    admissible word (a, ..., b) with at least one transition, ties to the
    lowest symbols."""
    start = (a, 0)
    prev = {start: None}
    queue = deque([start])
    goal = None
    while queue and goal is None:
        u, s = queue.popleft()
        for v in range(system.alphabet_size):
            if not system.allowed(u, v):
                continue
            state = (v, 1)
            if state in prev:
                continue
            prev[state] = (u, s)
            if v == b:
                goal = state
                break
            queue.append(state)
    if goal is None:
        return None
    path = []
    while goal is not None:
        path.append(goal[0])
        goal = prev[goal]
    return tuple(reversed(path))


# 0 -> 1 -> 2 with self-loops: no path leads back to a lower symbol
REDUCIBLE = SymbolicSystem(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
CLOSURE_SYSTEMS = {
    "fullshift:2": SymbolicSystem.full_shift(2),
    "fullshift:3": SymbolicSystem.full_shift(3),
    "goldenmean": SymbolicSystem.golden_mean(),
    "reducible:3": REDUCIBLE,
}


@pytest.mark.parametrize("name", sorted(CLOSURE_SYSTEMS))
def test_connecting_path_table_matches_a_fresh_search(name):
    system = CLOSURE_SYSTEMS[name]
    k = system.alphabet_size
    # twice: the second round reads the filled table
    for _ in range(2):
        for a in range(k):
            for b in range(k):
                assert system.connecting_path(a, b) == reference_connecting_path(system, a, b)
    if system is REDUCIBLE:
        assert [(a, b) for a in range(k) for b in range(k)
                if system.connecting_path(a, b) is None] == [(1, 0), (2, 0), (2, 1)]


@st.composite
def closure_words(draw):
    name = draw(st.sampled_from(sorted(CLOSURE_SYSTEMS)))
    system = CLOSURE_SYSTEMS[name]
    word = draw(st.lists(st.integers(0, system.alphabet_size - 1), min_size=1, max_size=7))
    return system, tuple(word)


@given(closure_words())
@settings(max_examples=400, deadline=None)
def test_closing_junctions_decide_admissibility(case):
    """Closing a word with the path from its last symbol back to its first
    gives an admissible period exactly when the word is admissible and the
    two junction transitions (word into path, path into word) are allowed."""
    system, word = case
    path = system.connecting_path(word[-1], word[0])
    if path is None:
        assert system.periodic_closure(word) is None
        return
    period = word + path[1:-1]
    junctions = (system.allowed(word[-1], period[len(word) % len(period)])
                 and system.allowed(period[-1], word[0]))
    assert (system.admissible(SymbolicPoint(period))
            == (system.word_admissible(word) and junctions))
    closure = system.periodic_closure(word, anchor=-2)
    if system.word_admissible(word):
        assert closure == SymbolicPoint(period, (), -2)
        assert closure.window(-2, len(word) - 3) == word
    else:
        assert closure is None


def test_chain_at_delta_zero_is_the_true_step_or_none():
    sigma2 = SymbolicSystem.full_shift(2)
    a = sigma2.point((0, 1))
    assert sigma2.chain(a, a.shift(1), F(0)) == [a, a.shift(1)]
    assert sigma2.chain(a, a, F(0)) is None


def test_chain_on_a_reducible_shift_needs_both_connecting_paths():
    zero, two = REDUCIBLE.fixed_point(0), REDUCIBLE.fixed_point(2)
    # no path leads from 2 back to 0: neither the jump in (2* to 0*) nor
    # the way back round the splice period (0* to 2*) closes
    assert REDUCIBLE.chain(two, zero, F(1, 8)) is None
    assert REDUCIBLE.chain(zero, two, F(1, 8)) is None
    one = REDUCIBLE.fixed_point(1)
    assert REDUCIBLE.chain(one, one, F(1, 8)) == [one, one]


def test_chain_rejects_a_point_that_is_not_admissible():
    gm = SymbolicSystem.golden_mean()
    with pytest.raises(ValueError, match="not admissible"):
        gm.chain(pt((1,)), gm.fixed_point(0), F(1, 8))


@st.composite
def closure_pairs(draw):
    name = draw(st.sampled_from(sorted(CLOSURE_SYSTEMS)))
    system = CLOSURE_SYSTEMS[name]
    words = st.lists(st.integers(0, system.alphabet_size - 1), min_size=1, max_size=5)
    return system, system.periodic_closure(draw(words)), system.periodic_closure(draw(words))


@given(closure_pairs(), st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_chain_is_a_delta_chain_when_both_paths_exist(case, s):
    system, a, b = case
    if a is None or b is None:
        return
    delta = F(1, 1 << s)
    pts = system.chain(a, b, delta)
    if system.distance(a.shift(1), b) <= delta:
        assert pts == [a, b]
        return
    u, v = a.window(-s + 2, s), b.window(-s + 1, s - 1)
    closes = (system.connecting_path(u[-1], v[0]) is not None
              and system.connecting_path(v[-1], u[0]) is not None)
    assert (pts is not None) == closes
    if pts is not None:
        assert pts[0] == a and pts[-1] == b
        assert system.step_check(pts, delta) is None


def test_shift_of_admissible_is_admissible():
    gm = SymbolicSystem.golden_mean()
    p = gm.point((0, 0, 1), word=(0, 1, 0), offset=-1)
    for k in range(-8, 9):
        assert gm.admissible(p.shift(k))


@given(st.integers(-10, 10), st.integers(-10, 10))
def test_iterate_composes(j, k):
    sigma2 = SymbolicSystem.full_shift(2)
    p = sigma2.point((0, 1, 1), word=(1, 0), offset=2)
    assert sigma2.iterate(sigma2.iterate(p, j), k) == sigma2.iterate(p, j + k)


@given(symbolic_points(), st.lists(st.integers(-40, 40), min_size=1, max_size=4),
       symbolic_points())
@settings(max_examples=300)
def test_shift_is_a_view_equal_to_a_fresh_point(p, ks, other):
    # repeated shifts: each view is shifted again, down to the last one
    view, total = p, 0
    for k in ks:
        view, total = view.shift(k), total + k
    fresh = SymbolicPoint(p.period, p.word, p.offset - total)
    assert view.word is p.word and view.period is p.period
    assert view.offset == fresh.offset
    assert view.top_symbol == fresh.top_symbol
    assert view == fresh and hash(view) == hash(fresh)
    assert view.canonical() == fresh.canonical()
    assert view._pack() == fresh._pack()
    assert view.window(-30, 30) == fresh.window(-30, 30)
    assert symbolic_distance(view, other) == symbolic_distance(fresh, other)


R = _PACK_RADIUS


def scanned_canonical(p):
    """The canonical form by brute force: the primitive root and its least
    rotation by trying every divisor and rotation, then coordinate scans."""
    m = len(p.period)
    d = next(d for d in range(1, m + 1) if m % d == 0 and p.period == p.period[:d] * (m // d))
    root = p.period[:d]
    neck = min(root[k:] + root[:k] for k in range(d))
    kstar = next(k for k in range(d) if root[k:] + root[:k] == neck)
    off, L = p.offset, len(p.word)
    phi_l = (-off - kstar) % d
    phi_r = (-off - L - kstar) % d
    a = next((j for j in range(off, off + L + d) if p.coord(j) != neck[(j + phi_l) % d]), None)
    if a is None:
        return ("per", neck, phi_l)
    b = next(j + 1 for j in range(off + L - 1, off - d - 2, -1)
             if p.coord(j) != neck[(j + phi_r) % d])
    return ("ev", neck, phi_l, phi_r, a, b, tuple(p.coord(j) for j in range(a, b)))


def scanned_first_disagreement(a, b):
    # beyond every central word both sequences are periodic, so one joint
    # period past the farthest word end settles equality
    far = max(abs(a.offset), abs(a.offset + len(a.word)),
              abs(b.offset), abs(b.offset + len(b.word)))
    for i in range(far + math.lcm(len(a.period), len(b.period)) + 1):
        if a.coord(i) != b.coord(i) or a.coord(-i) != b.coord(-i):
            return i
    return None


@st.composite
def tape_cases(draw):
    """A point with a word shorter or longer than the packed window, a
    shift of it (near the word or deep inside either tail), a window, and a
    point agreeing with the shift on |j| <= depth."""
    symbols = st.integers(0, 7)
    period = tuple(draw(st.lists(symbols, min_size=1, max_size=7)))
    word = tuple(draw(st.one_of(st.lists(symbols, max_size=8),
                                st.lists(symbols, min_size=2 * R, max_size=2 * R + 40))))
    p = SymbolicPoint(period, word, draw(st.integers(-60, 60)))
    k = draw(st.one_of(st.integers(-150, 150), st.integers(-5000, 5000)))
    lo = draw(st.integers(-80, 80))
    hi = lo + draw(st.integers(-1, 160))
    depth = draw(st.integers(0, 2 * R))
    other_period = tuple(draw(st.lists(symbols, min_size=1, max_size=3)))
    return p, k, (lo, hi), depth, other_period


@given(tape_cases())
@settings(max_examples=400, deadline=None)
def test_shift_reads_the_shared_tape_like_a_fresh_point_and_a_coordinate_scan(case):
    p, k, (lo, hi), depth, other_period = case
    view = p.shift(k)
    fresh = SymbolicPoint(p.period, p.word, p.offset - k)
    assert view._tape is p._tape
    packed = int.from_bytes(bytes(view.coord(j) for j in range(-R, R + 1)), "little")
    assert view._pack() == fresh._pack() == packed
    assert view.canonical() == fresh.canonical() == scanned_canonical(view)
    assert view == fresh and hash(view) == hash(fresh)
    assert view.window(lo, hi) == fresh.window(lo, hi) == tuple(
        view.coord(j) for j in range(lo, hi + 1))
    other = SymbolicPoint(other_period, view.window(-depth, depth), -depth)
    # the second point also read deep in its left and right tails
    tails = (other.shift(-depth - 3 * R), other.shift(depth + 3 * R))
    for q in (other, *tails, p, p.shift(k + 1)):
        expected = scanned_first_disagreement(view, q)
        assert first_disagreement(view, q) == first_disagreement(fresh, q) == expected
        for t in range(R + 3):
            agree = all(view.coord(j) == q.coord(j) for j in range(-(t - 1), t))
            assert distance_le(view, q, t) == distance_le(fresh, q, t) == agree


def test_equal_points_far_from_zero_compare_without_a_scan(monkeypatch):
    """Two representations of one sequence, their words at offset 10^7, are
    equal without reading the coordinates out to the words (a scan there
    costs time and memory in proportion to the offset)."""
    read = []
    symbols = SymbolicPoint._symbols
    monkeypatch.setattr(SymbolicPoint, "_symbols",
                        lambda self, lo, n: read.append(n) or symbols(self, lo, n))
    for offset in (10 ** 5, 10 ** 7, -10 ** 7):
        a, b = pt((0,), (1,), offset), pt((0,), (1, 0), offset)
        assert first_disagreement(a, b) is None
        assert symbolic_distance(a.shift(3), b.shift(3)) == 0
    assert max(read) <= 2 * R + 1


@pytest.mark.parametrize("j", [R + 1, R + 2, 3 * R, -(R + 1), -(R + 2), -3 * R])
@pytest.mark.parametrize("period", [(0,), (0, 1), (1, 0, 0)])
def test_first_difference_just_past_the_packed_window_is_located(j, period):
    """Points that agree on the packed window and differ at j alone."""
    p, m = pt(period), len(period)
    lo, hi = (min(j, 0) // m - 1) * m, (max(j, 0) // m + 2) * m
    word = list(p.window(lo, hi - 1))
    word[j - lo] = 1 - word[j - lo]
    q = pt(period, word, lo)
    assert first_disagreement(p, q) == scanned_first_disagreement(p, q) == abs(j)


@st.composite
def far_pairs(draw):
    """Two points with offsets up to +-3,000 that mostly agree on the packed
    window: a shift of the first by whole periods (one shared tape), a point
    built from a window of the first with at most one symbol changed (a
    distinct tape), or an independent point."""
    symbols = st.integers(0, 2)
    periods = st.lists(symbols, min_size=1, max_size=12).map(tuple)

    def point(period):
        return SymbolicPoint(period, draw(st.lists(symbols, max_size=61)),
                             draw(st.integers(-3000, 3000)))

    a = point(draw(periods))
    kind = draw(st.sampled_from(("shift", "window", "other")))
    if kind == "shift":
        return a, a.shift(len(a.period) * draw(st.integers(-300, 300)))
    if kind == "window":
        lo, hi = -draw(st.integers(R + 1, 3 * R)), draw(st.integers(R + 1, 3 * R))
        word = list(a.window(lo, hi))
        word[draw(st.integers(0, hi - lo))] = draw(symbols)
        return a, SymbolicPoint(draw(st.one_of(st.just(a.period), periods)), word, lo)
    return a, point(draw(st.one_of(st.just(a.period), periods)))


@given(far_pairs())
@settings(max_examples=300, deadline=None)
def test_first_disagreement_from_the_forms_matches_a_coordinate_scan(pair):
    a, b = pair
    expected = scanned_first_disagreement(a, b)
    assert first_disagreement(a, b) == first_disagreement(b, a) == expected
    depths = {R, R + 1, R + 2, 2 * R}
    if expected is not None:
        depths |= {expected, expected + 1}
    for t in depths:
        assert distance_le(a, b, t) == (expected is None or expected >= t)


@pytest.fixture
def bounded_reads(monkeypatch):
    """Fail any read of more than 4,096 coordinates before it allocates."""
    symbols = SymbolicPoint._symbols

    def read(self, lo, n):
        assert n <= 4096, f"read of {n} coordinates"
        return symbols(self, lo, n)
    monkeypatch.setattr(SymbolicPoint, "_symbols", read)


@pytest.mark.parametrize("K", [10 ** 7, -10 ** 7, 10 ** 9, -10 ** 9])
@pytest.mark.parametrize("period, word, i", [
    ((0,), (1, 1, 0, 1), 2),
    ((0, 1), (1, 1, 0, 1, 0, 0, 1), 0),
    ((0, 1), (1, 1, 0, 1, 0, 0, 1), 6),
    ((1, 0, 0), tuple(range(3)) * 20, 41),
])
def test_far_offsets_are_compared_from_the_forms(bounded_reads, K, period, word, i):
    """Middle words at offset K that differ at index i first disagree at
    |K + i|, read without a scan out to the words."""
    changed = list(word)
    changed[i] = 2 + word[i]
    a, b = pt(period, word, K), pt(period, changed, K)
    assert first_disagreement(a, b) == first_disagreement(b, a) == abs(K + i)
    assert distance_le(a, b, abs(K + i)) and not distance_le(a, b, abs(K + i) + 1)
    # one shared tape: the word 1 at K and at K + 1
    c = pt((0,), (1,), K)
    assert first_disagreement(c, c.shift(-1)) == min(abs(K), abs(K + 1))


def test_distance_rejects_out_of_alphabet_points_and_their_shifts():
    sigma2 = SymbolicSystem.full_shift(2)
    x = SymbolicSystem.full_shift(3).point((0, 1), word=(2,), offset=5)
    y = sigma2.fixed_point(0)
    assert sigma2.distance(y, y.shift(3)) == 0
    for k in (0, 1, -7, 40):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            sigma2.distance(x.shift(k), y)
        with pytest.raises(ValueError, match="alphabet mismatch"):
            sigma2.distance(y, x.shift(k))


def test_fixed_point_range_checks_its_symbol():
    sigma2 = SymbolicSystem.full_shift(2)
    assert sigma2.fixed_point(1) == pt((1,))
    for symbol in (-1, 2):
        with pytest.raises(ValueError, match="not in the alphabet"):
            sigma2.fixed_point(symbol)
    with pytest.raises(ValueError, match="no self-transition"):
        SymbolicSystem.golden_mean().fixed_point(1)


# -- net systems ---------------------------------------------------------------


def test_circle_net_metric_valid():
    net = circle_net(360, lambda i: (i + 1) % 360, invertible=True)
    assert net.validate_metric().ok
    assert net.distance(0, 180) == F(1, 2)
    assert net.distance(0, 359) == F(1, 360)


def test_identity_net_iterates():
    net = circle_net(12, lambda i: i, invertible=True)
    assert net.iterate(5, 5) == 5
    assert net.iterate(5, -3) == 5
    assert net.iterate(net.iterate(7, 1), -1) == 7


def test_non_invertible_negative_iterate_raises():
    # everything collapses onto point 0
    labels = list(range(4))
    dist = [[F(abs(i - j), 4) for j in range(4)] for i in range(4)]
    net = NetSystem(labels, dist, [0, 0, 0, 0], resolution=F(1, 8))
    with pytest.raises(ValueError):
        net.iterate(2, -1)


def test_metric_validation_catches_asymmetry():
    dist = [[F(0), F(1, 2)], [F(1, 3), F(0)]]
    with pytest.raises(ValueError) as err:
        NetSystem([0, 1], dist, [0, 1], resolution=F(1, 4))
    assert "invalid metric" in str(err.value)


def test_metric_validation_catches_triangle_violation():
    dist = [
        [F(0), F(1), F(1, 100)],
        [F(1), F(0), F(1, 100)],
        [F(1, 100), F(1, 100), F(0)],
    ]
    sysnet = NetSystem([0, 1, 2], dist, [0, 1, 2], resolution=F(1, 4), metric_check=False)
    rep = sysnet.validate_metric()
    assert not rep.ok
    assert rep.triangle_failures


def test_metric_validation_catches_a_nonzero_diagonal_entry():
    dist = [[F(0), F(1, 2)], [F(1, 2), F(1, 4)]]
    with pytest.raises(ValueError, match="invalid metric") as err:
        NetSystem([0, 1], dist, [0, 1], resolution=F(1, 4))
    assert "diag=1" in str(err.value)
    rep = NetSystem([0, 1], dist, [0, 1], resolution=F(1, 4),
                    metric_check=False).validate_metric()
    assert rep.diagonal_failures == [1] and not rep.symmetry_failures


def test_period_on_a_cycle_and_off_every_cycle():
    # 0 -> 1 -> 2 -> 0 is a 3-cycle; 4 -> 3 -> 0 falls into it
    step = [1, 2, 0, 0, 3]
    net = circle_net(5, step.__getitem__)
    assert [net.period(p) for p in range(5)] == [3, 3, 3, None, None]


@pytest.mark.parametrize("denominator, dtype", [(32767, np.int16), (40000, np.int32)])
def test_circle_arcs_in_the_narrowest_type_that_holds_the_denominator(denominator, dtype):
    angles = np.array([0, 1, denominator // 2, denominator - 1], dtype=np.int64)
    k = (angles[:, None] - angles) % denominator
    arcs = circle_arcs(angles, denominator)
    assert arcs.dtype == dtype
    assert np.array_equal(arcs, np.minimum(k, denominator - k))


def test_successors_and_ball():
    net = circle_net(12, lambda i: (i + 1) % 12, invertible=True)
    succ = net.successors(0, F(1, 12))
    assert succ == (0, 1, 2)
    assert net.ball(0, F(1, 12)) == frozenset({11, 0, 1})


def test_invertibility_verified():
    with pytest.raises(ValueError):
        labels = [0, 1]
        dist = [[F(0), F(1, 2)], [F(1, 2), F(0)]]
        NetSystem(labels, dist, [0, 0], resolution=F(1, 4), invertible=True)


HALF = [[F(0), F(1, 2)], [F(1, 2), F(0)]]


@pytest.mark.parametrize("labels, dist, step, keywords, message", [
    ([], [], [], {}, "at least one point"),
    ([0, 1], HALF, [0, 1], {"resolution": F(0)}, "resolution must be positive"),
    ([0, 1], HALF, [0, 2], {}, "total function"),
    ([0, 1], HALF, [0], {}, "total function"),
    ([0, 1], HALF[:1], [0, 1], {}, "shape mismatch"),
    ([0, 1], [[0, 1], [1, 0]], [0, 1], {"denominator": 0}, "denominator must be positive"),
    ([0, 1], [[0, 1, 1], [1, 0, 1]], [0, 1], {"denominator": 2}, "shape mismatch"),
    ([0, 1], [[0.0, 0.5], [0.5, 0.0]], [0, 1], {"denominator": 2}, "integer distances"),
])
def test_net_constructor_rejects(labels, dist, step, keywords, message):
    keywords = {"resolution": F(1, 4), **keywords}
    with pytest.raises(ValueError, match=message):
        NetSystem(labels, dist, step, **keywords)


@pytest.mark.parametrize("size", [0, 1, 2])
def test_circle_net_needs_three_points(size):
    with pytest.raises(ValueError, match="at least 3"):
        circle_net(size, lambda i: i)


def test_wide_metric_past_512_points_is_checked_by_sampling():
    # the smallest table of Python ints past 512 points: the extension net
    # of the Fibonacci subshift at five levels
    net = extension_builder(SubstitutionLanguage.fibonacci(), 5).net
    assert net.n > 512 and net._imat.dtype == object
    report = net.validate_metric()
    assert report.ok and report.mode == "sampled"


def test_out_of_range_symbols_are_not_admissible():
    # a negative symbol would index the transition matrix from the end
    sigma2 = SymbolicSystem.full_shift(2)
    assert not sigma2.admissible(pt((-1,)))
    assert not sigma2.admissible(pt((0, -1)))
    assert not sigma2.admissible(pt((0,), word=(-1,)))
    assert not sigma2.admissible(pt((0, 2)))
    with pytest.raises(ValueError):
        sigma2.point((-1,))


def test_distance_and_closeness_reject_symbols_below_the_alphabet():
    sigma8 = SymbolicSystem.full_shift(8)
    low, high = pt((-1,)), pt((7,))
    assert sigma8.distance(high, high.shift(2)) == 0
    for a, b in ((low, high), (high, low), (low.shift(5), high)):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            sigma8.distance(a, b)
        for eps in (F(0), F(1, 4), F(1)):
            with pytest.raises(ValueError, match="alphabet mismatch"):
                sigma8.closeness(eps)(a, b)
    assert pt((3, 1), word=(5, 2)).low_symbol == 1
    assert pt((3, 4), word=(6,)).top_symbol == 6
