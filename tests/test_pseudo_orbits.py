import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowdyn import io as sio
from shadowdyn.pseudo_orbits import (
    PseudoOrbit,
    PseudoOrbitError,
    concatenate,
    connect,
    orbit_segment,
    repeat,
    validate,
)
from shadowdyn.shadow_search import find_shadow, shadows
from shadowdyn.systems import SymbolicPoint, SymbolicSystem, circle_net

F = Fraction


@pytest.fixture
def sigma2():
    return SymbolicSystem.full_shift(2)


def test_true_orbit_is_zero_pseudo_orbit(sigma2):
    x = sigma2.point((0, 1, 1))
    po = orbit_segment(sigma2, x, 3)
    assert po.delta == 0
    assert po.reverify()
    assert validate(po.points, 0, sigma2).step_count == 3


def test_symbolic_validation_example(sigma2):
    # (0^inf, p) with p reading all zeros except a 1 at coordinate 3
    zero = sigma2.point((0,))
    p = sigma2.point((0,), word=(1,), offset=3)
    assert p.coord(3) == 1 and p.window(-2, 2) == (0, 0, 0, 0, 0)
    po = validate([zero, p], F(1, 4), sigma2)
    assert po.step_count == 1
    with pytest.raises(PseudoOrbitError) as err:
        validate([zero, p], F(1, 16), sigma2)
    assert err.value.first_bad_index == 0
    assert err.value.worst_error == F(1, 8)


def test_concatenate_adds_steps_and_maxes_delta(sigma2):
    a = sigma2.fixed_point(0)
    x = validate([a, a, a, a], F(1, 10), sigma2)     # 3-step loop at a
    y = validate([a, a, a, a, a], F(1, 20), sigma2)  # 4-step loop at a
    z = concatenate(x, y)
    assert z.step_count == 7
    assert z.kind == "loop"
    assert z.delta == F(1, 10)


def test_concatenate_requires_matching_endpoints(sigma2):
    a = sigma2.fixed_point(0)
    b = sigma2.point((0, 1))
    x = validate([a, a], F(1, 2), sigma2)
    y = validate([b, b.shift(1)], 0, sigma2)
    with pytest.raises(ValueError):
        concatenate(x, y)


def test_concatenate_associative(sigma2):
    a = sigma2.fixed_point(0)
    x = validate([a, a], F(1, 8), sigma2)
    y = validate([a, a, a], F(1, 4), sigma2)
    z = validate([a, a, a, a], 0, sigma2)
    left = concatenate(concatenate(x, y), z)
    right = concatenate(x, concatenate(y, z))
    assert left.points == right.points
    assert left.delta == right.delta


def test_repeat(sigma2):
    a = sigma2.fixed_point(1)
    loop = validate([a, a, a], F(1, 4), sigma2)
    assert repeat(loop, 1).points == loop.points
    tripled = repeat(loop, 3)
    assert tripled.step_count == 3 * loop.step_count
    n = loop.step_count
    doubled = repeat(loop, 2)
    for i in range(2 * n):
        assert doubled.points[i] == loop.points[i % n]
    with pytest.raises(ValueError):
        repeat(loop, 0)
    seg = validate([a, a.shift(1)], 0, sigma2, kind="segment")
    with pytest.raises(ValueError):
        repeat(seg, 2)


def test_repeat_equals_self_concatenation(sigma2):
    p = sigma2.point((0, 1))
    loop = validate([p, p.shift(1), p], 0, sigma2)
    assert repeat(loop, 3).points == concatenate(concatenate(loop, loop), loop).points


def flow_circle(size=36):
    # simple monotone net flow with a fixed point at 0
    def step(i):
        return i if i == 0 else (i + 1) % size
    return circle_net(size, step)


def test_connect_one_step():
    net = flow_circle()
    for a in (3, 17):
        po = connect(a, net.step(a), F(0), net)
        assert po is not None
        assert po.points == (a, net.step(a))


def test_connect_follows_flow_and_fails_against_it():
    net = flow_circle()
    po = connect(1, 5, F(0), net)
    assert po is not None and po.step_count == 4
    # against the flow with delta = 0 there is no chain into the source side
    assert connect(5, 1, F(0), net) is None


def test_connect_self_chain_has_steps():
    net = flow_circle()
    po = connect(0, 0, F(0), net)  # fixed point: 1-step loop
    assert po is not None and po.step_count == 1 and po.kind == "loop"
    assert connect(4, 4, F(0), net) is None  # non-recurrent at delta 0


def test_connect_minimality_against_exhaustive():
    net = flow_circle(12)
    delta = F(1, 12)

    def exhaustive_shortest(a, b, max_len=8):
        frontier = {(a,)}
        for length in range(max_len + 1):
            for path in sorted(frontier):
                if path[-1] == b and len(path) > 1:
                    return len(path) - 1
            nxt = set()
            for path in frontier:
                for q in net.successors(path[-1], delta):
                    nxt.add(path + (q,))
            frontier = nxt
        return None

    for a, b in [(1, 4), (3, 3), (10, 2)]:
        po = connect(a, b, delta, net)
        oracle = exhaustive_shortest(a, b)
        if oracle is None:
            assert po is None
        else:
            assert po is not None and po.step_count == oracle
            assert po.reverify()


# -- differential oracle: shift step checks and traces against stepwise Fractions


def scanned_depth(a, b):
    """Least |j| with a_j != b_j by a coordinate scan, None when equal."""
    # beyond every central word both sequences are periodic, so one joint
    # period past the farthest word end settles equality
    far = max(abs(a.offset), abs(a.offset + len(a.word)),
              abs(b.offset), abs(b.offset + len(b.word)))
    for i in range(far + math.lcm(len(a.period), len(b.period)) + 1):
        if a.coord(i) != b.coord(i) or a.coord(-i) != b.coord(-i):
            return i
    return None


def scanned_distance(a, b):
    i = scanned_depth(a, b)
    return F(0) if i is None else F(1, 2 ** i)


def in_alphabet(system, p):
    return all(0 <= s < system.alphabet_size for s in p.period + p.word)


def scanned_admissible(system, p):
    lo, hi = p.offset - len(p.period) - 1, p.offset + len(p.word) + len(p.period) + 1
    return in_alphabet(system, p) and all(
        system.transitions[p.coord(j)][p.coord(j + 1)] for j in range(lo, hi))


def reference_validate(system, pts, delta):
    """("ok",) or ("bad", first bad index, worst error), stepping Fractions."""
    if not pts or not all(scanned_admissible(system, p) for p in pts):
        raise ValueError("not a point sequence of the system")
    errors = [scanned_distance(pts[i].shift(1), pts[i + 1]) for i in range(len(pts) - 1)]
    bad = [i for i, e in enumerate(errors) if e > delta]
    return ("bad", bad[0], max(errors)) if bad else ("ok",)


def reference_trace(system, z, pts, eps):
    """The checked window, or None, stepping z one shift per point."""
    if not all(in_alphabet(system, p) for p in (z, *pts)):
        raise ValueError("alphabet mismatch")
    for i, x in enumerate(pts):
        if scanned_distance(z.shift(i), x) > eps:
            return None
    return (0, len(pts) - 1)


def library_validate(system, pts, delta):
    try:
        po = validate(pts, delta, system)
    except PseudoOrbitError as err:
        return ("bad", err.first_bad_index, err.worst_error)
    assert po.points == tuple(pts) and po.delta == delta
    return ("ok",)


def library_trace(system, z, pts, eps):
    w = shadows(system, z, pts, eps)
    if w is None:
        return None
    assert w.shadow_point is z and w.epsilon == eps
    return w.window


def glued_shadow(system, pts, eps):
    w = find_shadow(system, pts, eps) if pts else None
    return None if w is None else w.shadow_point


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def random_point(system, rng):
    """An admissible point: a periodic closure, or one with a central word
    of up to 70 symbols, at an offset near 0."""
    while True:
        period = system.sample_point(rng).period
        word = [rng.randrange(system.alphabet_size) for _ in range(rng.choice([0, 3, 70]))]
        for j in range(1, len(word)):
            if not system.allowed(word[j - 1], word[j]):
                word[j] = 0
        p = SymbolicPoint(period, word, rng.randint(-40, 40))
        if system.admissible(p):
            return p


def next_point(system, p, rng):
    """A successor of p of one of five kinds: its shift on the same tape, a
    copy of that shift on a fresh tape (io round trip), a point near it, any
    point, or a view of p deep in one tail."""
    kind = rng.randrange(5)
    if kind == 0:
        return p.shift(1)
    if kind == 1:
        return sio.point_from_json(sio.point_to_json(p.shift(1)), system)
    if kind == 2:
        s = rng.randint(0, 4)
        return rng.choice(system.successor_candidates(p.shift(1), s, s))
    if kind == 3:
        return random_point(system, rng)
    return p.shift(rng.choice([-1, 1]) * rng.randint(150, 400))


TOLERANCES = [F(0), F(1, 8), F(1, 5), F(1), F(2)]


@given(st.sampled_from(["fullshift:2", "goldenmean"]), st.sampled_from(TOLERANCES),
       st.sampled_from(TOLERANCES), st.integers(0, 10), st.integers(0, 2 ** 32))
@settings(max_examples=250, deadline=None)
def test_shift_step_check_and_trace_match_stepwise_fractions(name, eps, delta, length, seed):
    system = SymbolicSystem.full_shift(2) if name == "fullshift:2" else SymbolicSystem.golden_mean()
    rng = random.Random(seed)  # uniform choices, where a shrinking random leans to the first
    start = random_point(system, rng)
    if rng.random() < 0.3:
        start = start.shift(rng.choice([-1, 1]) * rng.randint(150, 400))
    pts = [start]
    for _ in range(length):
        pts.append(next_point(system, pts[-1], rng))
    if rng.random() < 0.3:
        pts = pts[:1]
        for _ in range(length):
            pts.append(pts[-1].shift(1))  # a true orbit, with a few fresh copies
            if rng.random() < 0.2:
                pts[-1] = sio.point_from_json(sio.point_to_json(pts[-1]), system)
    if length == 0 and rng.random() < 0.5:
        pts = []
    foreign_at = rng.randrange(len(pts)) if pts and rng.random() < 0.25 else None
    if foreign_at is not None:
        # a symbol outside the alphabet, anywhere in the sequence
        pts[foreign_at] = SymbolicPoint((0,), (2,), rng.randint(-3, 3))

    expected = outcome(reference_validate, system, pts, delta)
    assert outcome(library_validate, system, pts, delta) == expected
    if expected is not ValueError:
        po = PseudoOrbit(system, tuple(pts), delta, "segment")
        assert po.reverify() == (expected == ("ok",))

    z = pts[0] if pts else start
    glued = None if foreign_at is not None else outcome(glued_shadow, system, pts, eps)
    foreign = SymbolicPoint((0,), (2,), 1)
    for cand in (z, glued, start.shift(len(start.period) * 200), random_point(system, rng),
                 foreign):
        if cand is None or cand is ValueError:
            continue
        want = outcome(reference_trace, system, cand, pts, eps)
        got = outcome(library_trace, system, cand, pts, eps)
        assert got == want


def test_empty_trace_and_foreign_symbols_wherever_they_sit():
    sigma2 = SymbolicSystem.full_shift(2)
    z = sigma2.point((0, 1))
    for eps in TOLERANCES:
        assert shadows(sigma2, z, [], eps).window == (0, -1)
    foreign = SymbolicPoint((0,), (2,), 0)
    orbit = [z.shift(i) for i in range(6)]
    for eps in TOLERANCES:
        # below eps = 1 the first step already fails, yet the foreign point is seen
        with pytest.raises(ValueError, match="alphabet mismatch"):
            shadows(sigma2, z.shift(1), orbit[:-1] + [foreign], eps)
    with pytest.raises(ValueError):
        validate(orbit[:-1] + [foreign], F(1, 8), sigma2)
