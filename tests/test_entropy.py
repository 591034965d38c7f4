import dataclasses
import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowdyn.entropy import (
    entropy_estimate,
    expansivity_witness,
    is_separated,
    max_clique,
    max_separated_cylinders,
    separated_set,
    separation_window,
)
from shadowdyn.builders import fig1_circle
from shadowdyn.systems import (BudgetExceeded, NetSystem, SymbolicSystem, circle_net,
                               symbolic_distance)

F = Fraction


def brute_force_full_shift_count(k, length):
    """Oracle: enumerate all words over k symbols directly."""
    return sum(1 for _ in itertools.product(range(k), repeat=length))


def brute_force_golden_mean_words(length):
    out = []
    for w in itertools.product((0, 1), repeat=length):
        if all(not (w[i] == 1 and w[i + 1] == 1) for i in range(length - 1)):
            out.append(w)
    return out


def test_max_clique_small_graphs():
    # path graph 0-1-2: maximum clique is an edge
    neighbors = [0b010, 0b101, 0b010]
    assert len(max_clique(neighbors, 3)) == 2
    # complete graph
    neighbors = [0b1110, 0b1101, 0b1011, 0b0111]
    assert max_clique(neighbors, 4) == [0, 1, 2, 3]
    # triangle plus isolated vertex
    neighbors = [0b0110, 0b0101, 0b0011, 0b0000]
    assert max_clique(neighbors, 4) == [0, 1, 2]


@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.booleans(), min_size=n * n, max_size=n * n))))
@settings(max_examples=200)
def test_max_clique_matches_exhaustive_search(case):
    n, flags = case
    neighbors = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if flags[i * n + j]:
                neighbors[i] |= 1 << j
                neighbors[j] |= 1 << i
    clique = max_clique(neighbors, n)
    assert all(neighbors[a] >> b & 1 for a, b in itertools.combinations(clique, 2))
    best = max(len(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)
               if all(neighbors[a] >> b & 1 for a, b in itertools.combinations(c, 2)))
    assert len(clique) == best


def test_max_clique_deeper_than_the_recursion_limit(monkeypatch):
    # a complete graph on 1,100 vertices minus one edge: the search goes
    # 1,099 levels deep and must not touch the interpreter's recursion limit
    n = 1100
    neighbors = [((1 << n) - 1) & ~(1 << i) for i in range(n)]
    neighbors[0] &= ~(1 << 1)
    neighbors[1] &= ~1
    limit = sys.getrecursionlimit()

    def forbidden(value):
        raise AssertionError("max_clique changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
    clique = max_clique(neighbors, n)
    assert clique in ([0] + list(range(2, n)), list(range(1, n)))
    assert sys.getrecursionlimit() == limit


def test_separation_window():
    assert separation_window(F(3, 4)) == 0
    assert separation_window(F(1, 2)) == 0
    assert separation_window(F(1, 4)) == 1
    assert separation_window(F(3, 8)) == 1
    assert separation_window(F(2)) is None


def test_full_shift_separated_counts_match_oracle():
    sigma2 = SymbolicSystem.full_shift(2)
    for n in range(0, 6):
        res = max_separated_cylinders(sigma2, n, F(3, 4))
        assert res.cardinality == 2 ** (n + 1)
        assert res.cardinality == brute_force_full_shift_count(2, n + 1)
        if res.witness:
            assert res.reverify(sigma2)


def test_golden_mean_separated_count_matches_word_enumeration():
    gm = SymbolicSystem.golden_mean()
    for n in range(0, 6):
        res = max_separated_cylinders(gm, n, F(3, 4))
        oracle = len(brute_force_golden_mean_words(n + 1))
        assert res.cardinality == oracle
    # the n = 5 instance counts admissible words of length 6
    assert max_separated_cylinders(gm, 5, F(3, 4)).cardinality == 21


def test_separated_set_clique_agrees_with_cylinder_count():
    sigma2 = SymbolicSystem.full_shift(2)
    n = 3
    res_fast = max_separated_cylinders(sigma2, n, F(3, 4))
    cands = list(res_fast.witness)
    res_clique = separated_set(sigma2, cands, n, F(3, 4))
    assert res_clique.cardinality == res_fast.cardinality
    assert res_clique.reverify(sigma2)


def test_separated_set_on_net_matches_brute_force():
    rotation = circle_net(12, lambda i: (i + 1) % 12, invertible=True)
    # not injective: each third of the circle falls onto its first point
    collapsing = circle_net(12, lambda i: i - i % 4)
    for net, n, eps in [(rotation, 2, F(1, 4)), (rotation, 0, F(1, 6)),
                        (collapsing, 1, F(1, 6)), (collapsing, 3, F(1, 12))]:
        res = separated_set(net, range(net.n), n, eps)

        # oracle: check all subsets of a small candidate pool
        best = 0
        pool = list(range(net.n))
        for size in range(len(pool), 0, -1):
            if best:
                break
            for sub in itertools.combinations(pool, size):
                if all(is_separated(net, a, b, n, eps)
                       for a, b in itertools.combinations(sub, 2)):
                    best = size
                    break
        assert res.cardinality == best
        assert res.reverify(net)


def test_reverify_rejects_a_witness_that_stays_close():
    # replace one witness point by a point that stays eps-close to another
    # witness point at every step 0..n, checked on exact distances
    net, n, eps = fig1_circle(120), 2, F(1, 20)
    res = separated_set(net, range(net.n), n, eps)
    assert res.reverify(net)
    w = res.witness[1]
    q = next(q for q in range(net.n) if q not in res.witness and all(
        net.distance(net.iterate(q, i), net.iterate(w, i)) <= eps for i in range(n + 1)))
    assert not dataclasses.replace(res, witness=(q, *res.witness[1:])).reverify(net)

    sigma2, n, eps = SymbolicSystem.full_shift(2), 3, F(3, 4)
    res = max_separated_cylinders(sigma2, n, eps)
    assert res.reverify(sigma2)
    w = res.witness[1]
    # the same coordinates 0..n, and another one at n + 1
    q = sigma2.periodic_closure(w.window(0, n) + (1 - w.coord(n + 1),))
    assert q not in res.witness
    assert all(symbolic_distance(q.shift(i), w.shift(i)) <= eps for i in range(n + 1))
    assert not dataclasses.replace(res, witness=(q, *res.witness[1:])).reverify(sigma2)


@pytest.mark.parametrize("n", [-1, -3])
def test_negative_step_counts_raise(n):
    net, sigma2 = fig1_circle(120), SymbolicSystem.full_shift(2)
    with pytest.raises(ValueError, match="n must be >= 0"):
        separated_set(net, range(net.n), n, F(1, 20))
    with pytest.raises(ValueError, match="n must be >= 0"):
        separated_set(sigma2, [sigma2.fixed_point(0), sigma2.fixed_point(1)], n, F(3, 4))
    for eps in (F(3, 4), F(2)):  # with a separated count, and with one point
        with pytest.raises(ValueError, match="n must be >= 0"):
            max_separated_cylinders(sigma2, n, eps)
    for system, eps in ((net, F(1, 20)), (sigma2, F(3, 4))):
        with pytest.raises(ValueError, match="n must be >= 0"):
            entropy_estimate(system, eps, range(n, 2))


def test_separated_set_past_the_clique_budget_raises(monkeypatch):
    from shadowdyn import entropy

    net = circle_net(12, lambda i: i + 1)
    monkeypatch.setattr(entropy, "CLIQUE_LIMIT", 11)
    with pytest.raises(BudgetExceeded, match="12 candidates"):
        separated_set(net, range(12), 1, F(1, 4))
    assert separated_set(net, range(11), 1, F(1, 4)).reverify(net)


def test_separated_trivial_cases():
    sigma2 = SymbolicSystem.full_shift(2)
    res = max_separated_cylinders(sigma2, 0, F(2))
    assert res.cardinality == 1
    net = circle_net(6, lambda i: i, invertible=True)
    res2 = separated_set(net, range(6), 0, F(2))
    assert res2.cardinality == 1


def test_entropy_slope_full_shifts():
    sigma2 = SymbolicSystem.full_shift(2)
    est2 = entropy_estimate(sigma2, F(3, 4), range(1, 8))
    assert abs(est2.slope - math.log(2)) < 1e-12

    sigma3 = SymbolicSystem.full_shift(3)
    est3 = entropy_estimate(sigma3, F(3, 4), range(1, 6))
    assert abs(est3.slope - math.log(3)) < 1e-12


def test_entropy_slope_fixed_point_zero():
    net = NetSystem(["p", "q"], [[F(0), F(1)], [F(1), F(0)]], [0, 1],
                    resolution=F(1, 4), invertible=True)
    est = entropy_estimate(net, F(1, 2), range(1, 6), candidates=[0])
    assert est.slope == 0


def test_entropy_monotonicity_in_eps_and_n():
    gm = SymbolicSystem.golden_mean()
    for n in range(1, 5):
        small_eps = max_separated_cylinders(gm, n, F(1, 4)).cardinality
        large_eps = max_separated_cylinders(gm, n, F(3, 4)).cardinality
        assert small_eps >= large_eps
        assert (max_separated_cylinders(gm, n + 1, F(3, 4)).cardinality
                >= max_separated_cylinders(gm, n, F(3, 4)).cardinality)


def test_expansivity_witness_symbolic():
    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.fixed_point(0)
    rep = expansivity_witness(sigma2, x, F(1, 4), horizon=5)
    # forced window [-6, 6]: exactly one cylinder at the stamped depth
    assert rep.stamps["forced_window"] == (-6, 6)
    assert rep.cardinality == 1
    assert all(m.window(-6, 6) == tuple([0] * 13) for m in rep.members)


def test_expansivity_witness_net_identity_never_shrinks():
    net = circle_net(24, lambda i: i, invertible=True)
    e = F(1, 8)
    first = expansivity_witness(net, 0, e, horizon=1)
    later = expansivity_witness(net, 0, e, horizon=9)
    assert set(first.members) == set(later.members)
    assert later.cardinality == len([q for q in range(24)
                                     if net.distance(0, q) <= e])


def test_expansivity_witness_whole_space_radius():
    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.fixed_point(1)
    rep = expansivity_witness(sigma2, x, F(2), horizon=3, depth=2)
    assert rep.cardinality == 2 ** 5
