"""The cylinder layer: ``SymbolicSystem.cylinders`` against a brute-force
filter of all words, the cylinder net's integer ultrametric against
first-disagreement Fraction distances, the verdict sites built on it, and
the symbolic shadowability scan and separated-set count against the net
engines on the cylinder net of the same shift."""

import itertools
from fractions import Fraction

import pytest

from shadowdyn.entropy import (
    expansivity_witness,
    max_separated_cylinders,
    separated_set,
    separation_window,
)
from shadowdyn.finitize import CylinderNet
from shadowdyn.pseudo_orbits import validate
from shadowdyn.shadow_search import SearchStats, find_shadow, unshadowed
from shadowdyn.systems import SymbolicSystem, dyadic_radius

F = Fraction

SYSTEMS = {
    "fullshift:2": SymbolicSystem.full_shift(2),
    "fullshift:3": SymbolicSystem.full_shift(3),
    "goldenmean": SymbolicSystem.golden_mean(),
    # 1 -> 0 is forbidden, so a word with 0 before 1 has no periodic closure
    "reducible": SymbolicSystem(2, [[1, 1], [0, 1]]),
}


def brute_force_cylinders(system, lo, hi, x=None, fixed=None):
    words = itertools.product(range(system.alphabet_size), repeat=hi - lo + 1)
    out = []
    for w in words:
        if not system.word_admissible(w):
            continue
        if fixed is not None:
            a, b = fixed
            if w[a - lo:b - lo + 1] != x.window(a, b):
                continue
        out.append((w, system.periodic_closure(w, anchor=lo)))
    return out


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("lo, hi, fixed", [
    (0, 0, None), (-2, 2, None), (-1, 3, None),
    (-3, 3, (0, 0)), (-3, 2, (-1, 1)), (-2, 4, (-2, 0)), (-1, 3, (1, 3)),
    (-2, 2, (-2, 2)),
])
def test_cylinders_match_brute_force(name, lo, hi, fixed):
    system = SYSTEMS[name]
    points = [None] if fixed is None else [
        system.periodic_closure(w, anchor=-1) for w in system.words(3)]
    for x in points:
        if fixed is not None and x is None:
            continue
        got = system.cylinders(lo, hi, x, fixed)
        assert got == brute_force_cylinders(system, lo, hi, x, fixed)
        assert [w for w, _ in got] == sorted(w for w, _ in got)


def first_disagreement_distance(u, v, depth):
    for a in range(depth + 1):
        if u[depth + a] != v[depth + a] or u[depth - a] != v[depth - a]:
            return F(1, 2 ** a)
    return F(0)


# fullshift:3 stops at depth 2: depth 3 has 2187 nodes, 4.8 M pairs
@pytest.mark.parametrize("name, depth", [
    (name, depth) for name in sorted(SYSTEMS) for depth in range(4)
    if (name, depth) != ("fullshift:3", 3)])
def test_cylinder_net_metric_and_order(name, depth):
    system = SYSTEMS[name]
    net = CylinderNet(system, depth)
    # node order: the admissible words on [-depth, depth] that have a
    # closure, lexicographic
    assert net.words_ == tuple(w for w in system.words(2 * depth + 1)
                               if system.periodic_closure(w, anchor=-depth) is not None)
    for i, u in enumerate(net.words_):
        assert net.reps[i].window(-depth, depth) == u
        for j, v in enumerate(net.words_):
            assert net.distance(i, j) == first_disagreement_distance(u, v, depth)


def test_cylinder_net_numerators_past_64_bits():
    # only the two constant words close up; D = 2^70 outgrows int64
    net = CylinderNet(SYSTEMS["reducible"], 70)
    assert net.words_ == ((0,) * 141, (1,) * 141)
    assert net.distance(0, 1) == 1
    assert net.ball(0, F(1, 2)) == frozenset({0})


def test_expansivity_witness_long_horizon():
    sigma2 = SymbolicSystem.full_shift(2)
    rep = expansivity_witness(sigma2, sigma2.fixed_point(0), F(1, 4), horizon=10)
    assert rep.cardinality == 1
    assert rep.members == (sigma2.fixed_point(0),)


def test_successor_candidates_at_zero_radius():
    # delta >= 1 forces no coordinate: every word on [-R, R] is a candidate
    sigma2 = SymbolicSystem.full_shift(2)
    cands = sigma2.successor_candidates(sigma2.fixed_point(0), 0, 2)
    assert len(cands) == 32
    assert [q.window(-2, 2) for q in cands] == sigma2.words(5)


# -- the symbolic engines against the cylinder net -----------------------------------

RATIONALS = [F(1), F(3, 4), F(1, 2), F(1, 3), F(1, 4), F(1, 8)]


def faithful_cases(depth):
    """(eps, delta, horizon) the cylinder net of this depth decides like the
    shift: its depth covers the window a delta-step fixes (s) and the one an
    eps-shadow compares (rho + 1), and the horizon keeps every compared
    coordinate of a net orbit inside the depth (horizon <= depth - rho),
    where the net map follows the shift."""
    for eps in RATIONALS:
        rho = dyadic_radius(eps) - 1
        for delta in RATIONALS + [F(0)]:
            s = dyadic_radius(delta) if delta else 0
            if depth >= max(s, rho + 1):
                for horizon in range(1, depth - max(rho, 0) + 1):
                    yield eps, delta, horizon


@pytest.mark.parametrize("name", ["fullshift:2", "goldenmean"])
def test_symbolic_scan_matches_net_dfs_on_the_cylinder_net(name):
    system = SYSTEMS[name]
    found = 0
    for depth in (1, 2, 3):
        net = CylinderNet(system, depth)
        for eps, delta, horizon in faithful_cases(depth):
            bad = unshadowed(system, None, eps, delta, horizon, SearchStats())
            bad_nodes = unshadowed(net, None, eps, delta, horizon, SearchStats())
            assert (bad is None) == (bad_nodes is None), (depth, eps, delta, horizon)
            if bad is None:
                continue
            found += 1
            # each side's counterexample is one on the other side too
            nodes = [net.node_of(p) for p in bad]
            assert find_shadow(net, validate(nodes, delta, net), eps) is None
            points = [net.point_of(i) for i in bad_nodes]
            assert find_shadow(system, validate(points, delta, system), eps) is None
    assert found >= 10  # the grid reaches unshadowable verdicts, not only trivial ones


# nets of depth n + t' (at least 1), up to depth 3 (128 nodes of fullshift:2)
SEPARATION_CASES = [(name, eps, n, max(1, n + (separation_window(eps) or 0)))
                    for name in ("fullshift:2", "goldenmean")
                    for eps in (F(1), F(1, 2), F(1, 3), F(1, 4)) for n in range(4)
                    if n + (separation_window(eps) or 0) <= 3]


@pytest.mark.parametrize("name, eps, n, depth", SEPARATION_CASES)
def test_max_separated_cylinders_matches_clique_search_on_nodes(name, eps, n, depth):
    # two nodes of a net of depth >= n + t' are (n, eps)-separated iff their
    # representatives' words on [-t', n + t'] differ, as for the shift
    system = SYSTEMS[name]
    net = CylinderNet(system, depth)
    counted = max_separated_cylinders(system, n, eps)
    searched = separated_set(net, range(net.n), n, eps)
    assert searched.cardinality == counted.cardinality
    # the counted witnesses sit in distinct nodes that separate in the net
    nodes = {net.node_of(p) for p in counted.witness}
    assert len(nodes) == counted.cardinality
    assert separated_set(net, sorted(nodes), n, eps).cardinality == len(nodes)
