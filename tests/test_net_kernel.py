"""The integer net kernel against direct Fraction comparisons.

Threshold tests (balls, successors, closeness, neighborhoods and the
``close_masks`` rows of a candidate list) are compared with d <= eps on
independently computed Fraction distances, at thresholds on, between and
off the metric's values; the separation graph that ``separated_set``
builds from ``close_masks`` is compared with the pairwise construction of
``closeness`` calls it replaced, on random nets and shift closures; the
one-pass shadow search is compared with the stepwise ``traces`` of every
net point; the shadowability search is compared, on nets, with an
exhaustive preorder enumeration of pseudo-orbits and an exhaustive
Fraction shadow search, and on shifts with a preorder enumeration of the
successor candidates checked by ``find_shadow``.
"""

import functools
import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowdyn.builders import dense_shadowable_example, fig1_circle
from shadowdyn.entropy import max_clique, separated_set
from shadowdyn.finitize import CylinderNet
from shadowdyn.pseudo_orbits import connect
from shadowdyn.shadow_search import SearchStats, find_shadow, unshadowed
from shadowdyn.shadowing import is_positively_shadowable_at
from shadowdyn.systems import (
    NetSystem,
    SymbolicSystem,
    circle_net,
    dyadic_radius,
    symbolic_distance,
)

F = Fraction


def circle_distance(a, b):
    """Arc-length distance on R/Z between rational angles."""
    d = abs(a - b) % 1
    return min(d, 1 - d)


def _circle():
    net = circle_net(12, lambda i: (i + 5) % 12)
    labels = net.labels
    return net, lambda i, j: circle_distance(labels[i], labels[j])


def _layered():
    net = dense_shadowable_example(12).net
    labels = net.labels

    def dist(a, b):
        (ha, ta), (hb, tb) = labels[a], labels[b]
        return max(abs(ha - hb), circle_distance(ta, tb))

    return net, dist


def _cylinder():
    net = CylinderNet(SymbolicSystem.golden_mean(), 2)
    reps = net.reps
    return net, lambda i, j: symbolic_distance(reps[i], reps[j])


def _wide():
    # numerators past 64 bits: the metric is held as Python ints
    points = [F(0), F(1, 3 ** 45), F(1, 2), F(2, 3), F(1)]
    table = [[abs(a - b) for b in points] for a in points]
    net = NetSystem(points, table, [1, 2, 3, 4, 0], resolution=F(1, 3 ** 46))
    return net, lambda i, j: table[i][j]


def _thresholds(values, denominator, limit):
    """Metric values, midpoints between neighbours, points off the 1/D
    grid, zero and values at and beyond the diameter."""
    values = sorted(values)
    if len(values) > limit:
        values = values[::len(values) // limit] + [values[-1]]
    out = {F(0), values[-1], values[-1] + 1, 2 * values[-1]}
    for a, b in zip(values, values[1:]):
        out.update((a, (a + b) / 2, a + F(1, 7 * denominator)))
    return sorted(out)


@pytest.mark.parametrize("build, denominator, limit", [
    (_circle, 12, 100), (_layered, 27720, 4), (_cylinder, 4, 100),
    (_wide, 2 * 3 ** 45, 100)])
def test_thresholds_agree_with_fraction_comparisons(build, denominator, limit):
    net, dist = build()
    assert net.denominator == denominator
    table = [[dist(i, j) for j in range(net.n)] for i in range(net.n)]
    assert all(net.row(i) == tuple(table[i]) for i in range(net.n))
    values = {v for row in table for v in row}
    for eps in _thresholds(values, denominator, limit):
        close = net.closeness(eps)
        balls = [[q for q in range(net.n) if table[i][q] <= eps] for i in range(net.n)]
        for i, near in enumerate(balls):
            assert net.ball(i, eps) == frozenset(near)
            assert net.neighborhood([i], eps) == near
            assert [q for q in range(net.n) if close(i, q)] == near
            assert net.successors(i, eps) == tuple(balls[net.step(i)])
        assert net.neighborhood([0, net.n - 1], eps) == sorted({*balls[0], *balls[-1]})
        # a candidate list out of order and with repeats, past 64 points
        # (one block of rows) on the layered net
        pts = [net.n - 1, 0, *range(net.n - 1, -1, -2), net.n - 1, 1 % net.n]
        assert net.close_masks(pts, eps) == [
            sum(1 << j for j, q in enumerate(pts) if table[p][q] <= eps) for p in pts]
    for bad in ([0, net.n], [-1, 0], [0.5]):
        with pytest.raises(ValueError, match="point indices"):
            net.close_masks(bad, max(values))


SHADOW_NETS = {
    "fig1": lambda: fig1_circle(36),
    "layered": lambda: dense_shadowable_example(4).net,
    # not invertible: each third of the circle falls onto its first point
    "collapsing": lambda: circle_net(12, lambda i: i - i % 4),
    "cylinder": lambda: _cylinder()[0],
    "wide": lambda: _wide()[0],
}


@pytest.mark.parametrize("name", sorted(SHADOW_NETS))
def test_one_pass_shadow_is_the_least_tracing_point(name):
    """``shadow`` against the stepwise ``traces`` of every net point, on
    true orbit segments, segments with random jumps and random sequences,
    at eps = 0, at every metric value and at and beyond the diameter."""
    net = SHADOW_NETS[name]()
    rng = random.Random(name)
    values = sorted({v for i in range(net.n) for v in net.row(i)})
    seqs = [[]]
    for _ in range(30):
        length = rng.randint(1, 8)
        z = rng.randrange(net.n)
        orbit = [net.iterate(z, i) for i in range(length)]
        jumped = [p if rng.random() < 0.7 else rng.randrange(net.n) for p in orbit]
        seqs += [orbit, jumped, [rng.randrange(net.n) for _ in range(length)]]
    for eps in [F(0)] + values + [2 * values[-1]]:
        for pts in seqs:
            expected = next((z for z in range(net.n) if net.traces(z, pts, eps)), None)
            assert net.shadow(pts, eps) == expected
    with pytest.raises(ValueError):
        net.shadow([0, net.n], values[-1])


def _random_line_net(rng):
    """A net of 2-14 points of [0, 1) at distance |x - y| with a random map,
    mostly not injective, and a delta among its distances (0 included), so
    that many targets are unreachable; with the successor lists of Fraction
    comparisons."""
    n = rng.randint(2, 14)
    labels = [F(x, 40) for x in sorted(rng.sample(range(40), n))]
    net = NetSystem(labels, [[abs(x - y) for y in labels] for x in labels],
                    [rng.randrange(n) for _ in range(n)], F(1, 80))
    delta = rng.choice(sorted({abs(x - y) for x in labels for y in labels}))
    succ = [[q for q in range(n) if abs(labels[net.step(p)] - labels[q]) <= delta]
            for p in range(n)]
    return net, delta, succ


@pytest.mark.parametrize("delta", [F(1, 24), F(1, 12)])
def test_chains_are_shortest_and_lowest_index(delta):
    # chain() is a breadth-first search over the successor rows cached per
    # delta; every chain, a == b and unreachable targets included, must be
    # the shortest one and, among those, the lexicographically least, as
    # found by a layered search over Fraction comparisons
    net = fig1_circle(24)
    succ = [[q for q in range(net.n)
             if circle_distance(net.labels[net.step(p)], net.labels[q]) <= delta]
            for p in range(net.n)]
    cases = [(net, delta, succ)]
    rng = random.Random(str(delta))
    cases += [_random_line_net(rng) for _ in range(60)]
    for net, d, succ in cases:
        n = net.n
        for a in range(n):
            expected = {}
            best = {a: [a]}
            for _ in range(n):
                layer = {}
                for p in sorted(best, key=best.get):
                    for q in succ[p]:
                        layer.setdefault(q, best[p] + [q])
                best = layer
                for b, path in best.items():
                    expected.setdefault(b, path)
            for b in range(n):
                assert net.chain(a, b, d) == expected.get(b)


@pytest.mark.parametrize("n_max", [1, 2, 3, 5, 9])
def test_loop_candidates_are_the_chain_loops_within_n_max(n_max):
    # the searches of loop_candidates stop at n_max steps: they must keep
    # exactly the loops built from whole chains (the loop at x, then
    # x -> q -> x for every other q) that have at most n_max steps
    rng = random.Random(n_max)
    for net, d, _ in [_random_line_net(rng) for _ in range(40)]:
        for x in range(net.n):
            loops = [net.chain(x, x, d)]
            for q in range(net.n):
                first, back = net.chain(x, q, d), net.chain(q, x, d)
                if q != x and first is not None and back is not None:
                    loops.append(first + back[1:])
            expected = [lp for lp in loops if lp is not None and len(lp) - 1 <= n_max]
            assert net.loop_candidates(x, d, n_max) == expected


# -- the bitmask DFS against an exhaustive enumeration ------------------------


def reference_separated_set(system, cands, n, eps):
    """(cardinality, witness) by the pairwise construction ``separated_set``
    used before ``close_masks``: orbits once, then one ``closeness`` call per
    pair and step, and the same clique search."""
    orbits = []
    for x in cands:
        orb = [x]
        for _ in range(n):
            orb.append(system.step(orb[-1]))
        orbits.append(orb)
    close = system.closeness(eps)
    m = len(cands)
    neighbors = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if not all(map(close, orbits[i], orbits[j])):
                neighbors[i] |= 1 << j
                neighbors[j] |= 1 << i
    chosen = max_clique(neighbors, m)
    return len(chosen), tuple(cands[i] for i in chosen)


SEPARATION_SYSTEMS = {**SHADOW_NETS, "fullshift:2": lambda: SymbolicSystem.full_shift(2),
                      "goldenmean": SymbolicSystem.golden_mean}


def _separation_universe(system):
    """(candidate points, thresholds at, between and beyond their distances):
    every point of a net, or the closures of a shift's words on [-1, 3]."""
    if system.kind == "net":
        points, denominator = list(range(system.n)), system.denominator
    else:
        points, denominator = [q for _, q in system.cylinders(-1, 3)], 16
    values = {system.distance(a, b) for a in points for b in points}
    return points, _thresholds(values, denominator, 12)


@functools.lru_cache(maxsize=None)
def _fixed_separation_case(name):
    system = SEPARATION_SYSTEMS[name]()
    return (system, *_separation_universe(system))


@st.composite
def separation_cases(draw):
    """A system (a fixed net or shift, or a random line net), a candidate
    list drawn from it with repeats and out of order, a step count n and a
    threshold."""
    name = draw(st.sampled_from(["line", *sorted(SEPARATION_SYSTEMS)]))
    if name == "line":
        system = _random_line_net(random.Random(draw(st.integers(0, 10 ** 6))))[0]
        universe, thresholds = _separation_universe(system)
    else:
        system, universe, thresholds = _fixed_separation_case(name)
    picks = draw(st.lists(st.integers(0, len(universe) - 1), min_size=1, max_size=14))
    return (system, [universe[k] for k in picks], draw(st.integers(0, 3)),
            draw(st.sampled_from(thresholds)))


@given(separation_cases())
@settings(max_examples=300, deadline=None)
def test_separation_graph_matches_the_pairwise_construction(case):
    system, cands, n, eps = case
    close = system.closeness(eps)
    assert system.close_masks(cands, eps) == [
        sum(1 << j for j, q in enumerate(cands) if close(p, q)) for p in cands]
    res = separated_set(system, cands, n, eps)
    assert (res.cardinality, res.witness) == reference_separated_set(system, cands, n, eps)


@st.composite
def small_nets(draw):
    """A net whose metric is a shortest-path metric of positive integer
    edge weights, scaled by 1/D, with an arbitrary map."""
    n = draw(st.integers(1, 5))
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = draw(st.integers(1, 4))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                w[i][j] = min(w[i][j], w[i][k] + w[k][j])
    scale = draw(st.sampled_from([1, 2, 3, 6]))
    table = [[F(v, scale) for v in row] for row in w]
    step = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return NetSystem(list(range(n)), table, step, resolution=F(1, 2 * scale)), table


def _shadowed(table, step, path, eps):
    """Whether some point z has d(f^i(z), x_i) <= eps along the path."""
    for z in range(len(table)):
        for x in path:
            if table[z][x] > eps:
                break
            z = step[z]
        else:
            return True
    return False


def _first_unshadowed(table, step, start, eps, delta, horizon):
    """First pseudo-orbit from start, in depth-first preorder over ascending
    successors with at most ``horizon`` steps, that no point shadows."""
    path = [start]

    def walk():
        if not _shadowed(table, step, path, eps):
            return list(path)
        if len(path) > horizon:
            return None
        for q in range(len(table)):
            if table[step[path[-1]]][q] <= delta:
                path.append(q)
                bad = walk()
                if bad is not None:
                    return bad
                path.pop()
        return None

    return walk()


@settings(max_examples=80, deadline=None)
@given(small_nets(), st.fractions(0, 2, max_denominator=12),
       st.fractions(0, 2, max_denominator=12), st.integers(1, 4))
def test_bitmask_dfs_matches_exhaustive_search(net_table, eps, delta, horizon):
    net, table = net_table
    expected = [_first_unshadowed(table, net.map, s, eps, delta, horizon)
                for s in range(net.n)]
    for s in range(net.n):
        bad = unshadowed(net, [s], eps, delta, horizon, SearchStats())
        assert bad == expected[s]
        if bad is not None:
            assert find_shadow(net, bad, eps) is None
        rep = is_positively_shadowable_at(net, s, eps, delta, horizon=horizon)
        assert rep.shadowable == (bad is None)
        if bad is not None:
            assert list(rep.counterexample.points) == bad
    first = next((b for b in expected if b is not None), None)
    assert unshadowed(net, None, eps, delta, horizon, SearchStats()) == first


def _first_unshadowed_on_shift(system, start, eps, delta, horizon):
    """First pseudo-orbit from start, in depth-first preorder over the
    successor candidates with at most ``horizon`` steps, for which
    ``find_shadow`` finds no shadow."""
    s, t = dyadic_radius(delta), dyadic_radius(eps)
    path = [start]

    def walk():
        if find_shadow(system, path, eps) is None:
            return list(path)
        if len(path) > horizon:
            return None
        for q in system.successor_candidates(path[-1].shift(1), s, t):
            path.append(q)
            bad = walk()
            if bad is not None:
                return bad
            path.pop()
        return None

    return walk()


def _shift_cases(name):
    """(eps, delta) with a delta-step that can break the glued windows (s < t);
    eps = 1/2 only on the golden mean, where a failing path is short (on a
    full shift every path glues there, and the oracle would walk them all)."""
    for eps in (F(1, 2), F(1, 4), F(1, 8)):
        for delta in (F(1), F(1, 2), F(1, 4)):
            if dyadic_radius(delta) < dyadic_radius(eps) and (
                    eps < F(1, 2) or name == "goldenmean"):
                yield eps, delta


@pytest.mark.parametrize("name", ["fullshift:2", "goldenmean", "fullshift:3"])
def test_shift_search_finds_the_lexicographically_first_counterexample(name):
    system = {"fullshift:2": SymbolicSystem.full_shift(2),
              "goldenmean": SymbolicSystem.golden_mean(),
              "fullshift:3": SymbolicSystem.full_shift(3)}[name]
    found = 0
    for period in [(0,), (0, 1), (1, 0, 0)]:
        x = system.point(period)
        for eps, delta in _shift_cases(name):
            for horizon in range(1, 6):
                expected = _first_unshadowed_on_shift(system, x, eps, delta, horizon)
                bad = unshadowed(system, [x], eps, delta, horizon, SearchStats())
                assert bad == expected, (period, eps, delta, horizon)
                found += bad is not None
    assert found >= 20  # the grid reaches counterexamples, not only trivial verdicts


def test_a_dropped_net_is_freed_without_the_cyclic_gc():
    gc.disable()
    try:
        net = fig1_circle(120)
        # fill every table: rows, balls, successors
        net.row(4)
        net.ball(5, F(1, 60))
        assert connect(3, 10, F(1, 60), net) is not None
        ref = weakref.ref(net)
        del net
        assert ref() is None
        ref = weakref.ref(CylinderNet(SymbolicSystem.golden_mean(), 2))
        assert ref() is None
    finally:
        gc.enable()
