"""The cylinder layer: ``SymbolicSystem.cylinders`` against a brute-force
filter of all words, the cylinder net's integer ultrametric against
first-disagreement Fraction distances, and the verdict sites built on it."""

import itertools
from fractions import Fraction

import pytest

from shadowdyn.entropy import expansivity_witness
from shadowdyn.finitize import CylinderNet
from shadowdyn.shadow_search import symbolic_successor_candidates
from shadowdyn.systems import SymbolicSystem

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
    cands = symbolic_successor_candidates(sigma2, sigma2.fixed_point(0), 0, 2)
    assert len(cands) == 32
    assert [q.window(-2, 2) for q in cands] == sigma2.words(5)
