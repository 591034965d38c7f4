from fractions import Fraction

import numpy as np
import pytest

from shadowdyn.chain import (
    build_chain_graph,
    chain_class,
    chain_recurrent_set,
    cycle_of,
    decomposition,
    is_equicontinuous_at_resolution,
    nearest_minimal_point,
    strongly_connected_components,
)
from shadowdyn.finitize import MAX_POINTS, CylinderNet
from shadowdyn.systems import (
    BudgetExceeded,
    NetSystem,
    SymbolicSystem,
    circle_net,
    word_ultrametric,
)

F = Fraction


def test_tarjan_textbook_graph():
    succ = [(1,), (2,), (0,), (1, 2, 4), (3, 5), (2, 6), (5,), (4, 6, 7)]
    comps = {frozenset(c) for c in strongly_connected_components(succ)}
    assert comps == {frozenset({0, 1, 2}), frozenset({3, 4}),
                     frozenset({5, 6}), frozenset({7})}


def identity_net(n=8):
    labels = [F(i, n) for i in range(n)]
    dist = [[min(abs(labels[i] - labels[j]), 1 - abs(labels[i] - labels[j]))
             for j in range(n)] for i in range(n)]
    return NetSystem(labels, dist, list(range(n)), resolution=F(1, 2 * n),
                     invertible=True)


def test_identity_map_everything_recurrent():
    net = identity_net()
    g = build_chain_graph(net, F(0))
    assert all(i in g.succ[i] for i in range(net.n))
    assert chain_recurrent_set(g) == frozenset(range(net.n))


def test_delta_above_diameter_gives_complete_graph():
    net = identity_net()
    g = build_chain_graph(net, F(2))
    assert all(len(s) == net.n for s in g.succ)
    assert len(decomposition(g).classes) == 1


def test_two_distant_fixed_points_are_singleton_classes():
    labels = [0, 1]
    dist = [[F(0), F(1)], [F(1), F(0)]]
    net = NetSystem(labels, dist, [0, 1], resolution=F(1, 4), invertible=True)
    g = build_chain_graph(net, F(1, 8))
    dec = decomposition(g)
    assert dec.classes == (frozenset({0}), frozenset({1}))
    assert chain_class(g, 0) == frozenset({0})
    with pytest.raises(ValueError):
        # making the graph with a non-recurrent node: collapse map
        net2 = NetSystem(labels, dist, [0, 0], resolution=F(1, 4))
        chain_class(build_chain_graph(net2, F(1, 8)), 1)


def test_full_shift_finitization_single_class():
    # the net must be finer than delta for the delta-graph to carry jitter
    sigma2 = SymbolicSystem.full_shift(2)
    g = build_chain_graph(sigma2, F(1, 8), depth=3)
    assert g.depth_stamp == 3
    assert chain_recurrent_set(g) == frozenset(range(g.n))
    assert len(decomposition(g).classes) == 1


def test_finitization_budget():
    with pytest.raises(BudgetExceeded):
        SymbolicSystem.full_shift(3).chain_net(4)  # 3^9 words
    net = SymbolicSystem.full_shift(2).chain_net(5)  # 2^11 = 2,048 words
    assert net.n <= MAX_POINTS and net._imat.dtype == np.int16


@pytest.mark.parametrize("radius, dtype", [(1, np.int16), (13, np.int16), (14, np.int32),
                                           (29, np.int32), (30, np.int64), (61, np.int64),
                                           (62, object)])
def test_word_ultrametric_is_built_in_the_kept_type(radius, dtype):
    """The narrowest type holding the sum of two numerators 2^radius, so the
    net keeps the matrix without a copy."""
    width = 2 * radius + 1
    words = [(0,) * width, (0,) * (width - 1) + (1,), (1,) + (0,) * (width - 1)]
    dist = word_ultrametric(words, radius)
    assert dist.dtype == dtype
    assert dist.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    outer = [(0,) * width, (0,) * radius + (1,) + (0,) * radius]
    assert word_ultrametric(outer, radius).tolist() == [[0, 1 << radius], [1 << radius, 0]]


def test_chain_classes_partition():
    net = identity_net(6)
    g = build_chain_graph(net, F(1, 6))
    dec = decomposition(g)
    seen = set()
    for cls in dec.classes:
        assert not (cls & seen)
        seen |= cls
    assert seen == dec.recurrent_nodes


def test_recurrence_monotone_in_delta():
    size = 24

    def step(i):
        return i if i % 6 == 0 else (i + 1) % size

    net = circle_net(size, step)
    deltas = [F(0), F(1, 48), F(1, 24), F(1, 12), F(1, 6)]
    prev = None
    for d in deltas:
        cur = chain_recurrent_set(build_chain_graph(net, d))
        if prev is not None:
            assert prev <= cur
        prev = cur


def test_brute_force_oracle_equivalence_small():
    # oracle: x recurrent iff some delta-chain x -> x of length <= n exists
    size = 18

    def step(i):
        return i if i in (0, 6, 12) else (i + 1) % size

    net = circle_net(size, step)
    for delta in [F(0), F(1, 36), F(1, 18), F(1, 9)]:
        g = build_chain_graph(net, delta)

        def reachable_back(x):
            frontier = set(g.succ[x])
            for _ in range(net.n):
                if x in frontier:
                    return True
                frontier = {q for p in frontier for q in g.succ[p]}
            return x in frontier

        oracle = frozenset(x for x in range(net.n) if reachable_back(x))
        assert chain_recurrent_set(g) == oracle


def test_cycle_of_enters_recurrent_set():
    size = 12

    def step(i):
        return i if i == 0 else (i + 1) % size

    net = circle_net(size, step)
    g = build_chain_graph(net, F(0))
    rec = chain_recurrent_set(g)
    for x in range(net.n):
        assert set(cycle_of(net, x)) <= rec


def test_nearest_minimal_point_on_cycle_returns_self():
    net = identity_net(6)
    assert nearest_minimal_point(2, net, F(1, 3)) == 2


def test_nearest_minimal_point_flows_to_sink():
    size = 24

    def step(i):
        return i if i == 0 else (i + 1) % size  # sink-like funnel onto 0

    net = circle_net(size, step)
    q = nearest_minimal_point(20, net, F(1, 2))
    assert q is not None
    assert q in cycle_of(net, q)
    assert net.distance(q, 20) <= F(1, 2) + F(1, 4) + F(1, 4)


def test_equicontinuity_identity_vs_shift():
    net = identity_net(8)
    rep = is_equicontinuous_at_resolution(net, range(net.n), F(1, 8), horizon=6)
    assert rep.verdict == "equicontinuous"

    sigma2 = SymbolicSystem.full_shift(2)
    cyl = CylinderNet(sigma2, 3)
    rep2 = is_equicontinuous_at_resolution(cyl, range(cyl.n), F(1, 4), horizon=8)
    assert rep2.verdict == "sensitive"
    assert rep2.constant >= F(1, 2)


def test_equicontinuity_isolated_cycle():
    labels = [0, 1, 2]
    dist = [[F(0), F(1, 3), F(1, 3)],
            [F(1, 3), F(0), F(1, 3)],
            [F(1, 3), F(1, 3), F(0)]]
    net = NetSystem(labels, dist, [1, 2, 0], resolution=F(1, 6), invertible=True)
    rep = is_equicontinuous_at_resolution(net, [0, 1, 2], F(1, 6), horizon=5)
    assert rep.verdict == "equicontinuous"


def test_equicontinuity_requires_invariant_set():
    net = identity_net(8)
    with pytest.raises(ValueError):
        # a half-moon is invariant for the identity, so force a moving map
        size = 8

        def step(i):
            return (i + 1) % size

        moving = circle_net(size, step, invertible=True)
        is_equicontinuous_at_resolution(moving, [0, 1], F(1, 8), horizon=3)
