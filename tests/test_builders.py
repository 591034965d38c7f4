import itertools
import random
from fractions import Fraction

import pytest

from shadowdyn.builders import (
    _branching_delta,
    crossing_pseudo_orbit,
    cylinder_partition,
    dense_shadowable_example,
    embed_binary,
    extension_builder,
    fig1_circle,
    minimal_layer_net,
    reverse_base_pseudo_orbit,
    verify_extension_claims,
    vertex_shift_points,
)
from shadowdyn.chain import build_chain_graph, chain_class, chain_recurrent_set
from shadowdyn.cli import _named_system
from shadowdyn.finitize import CylinderNet
from shadowdyn.pseudo_orbits import validate
from shadowdyn.shadow_search import find_shadow
from shadowdyn.shadowing import is_positively_shadowable_at
from shadowdyn.systems import circle_net, symbolic_distance
from shadowdyn.words import SubstitutionLanguage, screen_minimality

F = Fraction


@pytest.fixture(scope="module")
def fib():
    return SubstitutionLanguage.fibonacci()


@pytest.fixture(scope="module")
def fig1():
    return fig1_circle(360)


@pytest.fixture(scope="module")
def layered():
    return dense_shadowable_example(12)


@pytest.fixture(scope="module")
def extension(fib):
    return extension_builder(fib, 4)


# -- substitution language ------------------------------------------------------


def test_fibonacci_complexity_and_screen(fib):
    # Sturmian complexity: exactly length + 1 factors
    for ell in range(1, 9):
        assert fib.complexity(ell) == ell + 1
    assert screen_minimality(fib).passed


def test_periodic_language_fails_screen():
    periodic = SubstitutionLanguage({0: (0, 0)})
    scr = screen_minimality(periodic)
    assert not scr.passed  # complexity 1 < length + 1: not aperiodic


# -- the circle flow ------------------------------------------------------------


def test_fig1_fixed_points_and_directions(fig1):
    size = fig1.n
    x, y, z = 0, size // 3, 2 * size // 3
    for p in (x, y, z):
        assert fig1.step(p) == p
    # a point in (y, z) iterates monotonically toward z
    cur = y + 7
    seen = [cur]
    for _ in range(200):
        cur = fig1.step(cur)
        seen.append(cur)
    assert seen[-1] == z
    assert all(a <= b for a, b in zip(seen, seen[1:]))
    # arc (z, x): moves backward toward z
    assert fig1.step(z + 5) < z + 5
    # arc (x, y): moves forward toward y
    assert fig1.step(x + 5) > x + 5


def test_fig1_validates_and_size_guard():
    with pytest.raises(ValueError):
        fig1_circle(10)
    with pytest.raises(ValueError):
        fig1_circle(40)  # not a multiple of 3... 40 % 3 != 0
    small = fig1_circle(36)
    assert small.validate_metric().ok


def test_fig1_chain_classes_are_fixed_points(fig1):
    g = build_chain_graph(fig1, F(1, 1000))
    size = fig1.n
    assert chain_recurrent_set(g) == {0, size // 3, 2 * size // 3}
    assert chain_class(g, 2 * size // 3) == {2 * size // 3}


def test_fig1_positive_test_in_sink_arc(fig1):
    rep = is_positively_shadowable_at(fig1, 180, F(1, 20), F(1, 100), horizon=10,
                                      budget=10 ** 7)
    assert rep.shadowable


@pytest.mark.parametrize("variant", [1, 2])
def test_fig1_crossing_orbits_unshadowable(fig1, variant):
    pts = crossing_pseudo_orbit(fig1, F(1, 100), variant)
    po = validate(pts, F(1, 100), fig1)
    assert find_shadow(fig1, po, F(1, 20)) is None
    # the shapes exist at every delta >= net spacing
    assert validate(pts, F(1, 360), fig1).reverify()


# -- the layered example ---------------------------------------------------------


def test_layered_structure(layered):
    assert layered.net.invertible
    assert len(layered.layers) == 12
    for n, members in layered.layers.items():
        assert len(members) == n
        assert layered.heights[n] == F(1, n)
        # the layer is a single cycle rotating with the same orientation
        start = members[0]
        cur = start
        for _ in range(n):
            cur = layered.net.step(cur)
        assert cur == start


def test_layered_isolation_gaps(layered):
    # B_gap(K_n) meets only K_n itself: the gap is the least distance from
    # K_n to a point outside it
    for n, members in layered.layers.items():
        inside = set(members)
        least = min(layered.net.row(p)[q] for p in members
                    for q in range(layered.net.n) if q not in inside)
        assert layered.gaps[n] == least > 0


def test_layered_positive_tests_below_gap(layered):
    for n, members in layered.layers.items():
        bound = layered.gaps[n] / 2
        rep = is_positively_shadowable_at(layered.net, members[0], bound, bound,
                                          horizon=10)
        assert rep.shadowable


def test_layered_reverse_orbit_unshadowable(layered):
    pts = reverse_base_pseudo_orbit(layered, F(1, 50), F(1, 40))
    po = validate(pts, F(1, 40), layered.net)
    errs = po.step_errors()
    assert all(F(1, 50) <= e <= F(1, 40) for e in errs)
    assert find_shadow(layered.net, po, F(1, 10)) is None


def test_uniform_delta_over_adjacent_layers(layered):
    from shadowdyn.shadowing import uniform_delta_for_set

    k3, k4 = layered.layers[3], layered.layers[4]
    eps = min(layered.gaps[3], layered.gaps[4]) / 2
    ladder = [layered.gaps[3] / 2, layered.gaps[4] / 2,
              layered.gaps[4] / 4, layered.gaps[4] / 8]
    delta, reports = uniform_delta_for_set(layered.net, list(k3) + list(k4),
                                           eps, horizon=6, ladder=ladder)
    # the first rung, half the coarser gap, already sits below both
    # isolation gaps, so it is the uniform constant
    assert delta == layered.gaps[3] / 2
    assert delta < min(layered.gaps[3], layered.gaps[4])
    assert all(r.shadowable for r in reports.values())


def test_fig1_no_loop_family(fig1):
    from shadowdyn.horseshoe import find_loop_family

    fam = find_loop_family(0, F(1, 20), F(1, 1000), n_max=12, k=2, system=fig1)
    assert fam is None


def test_fig1_connect_follows_flow_but_not_backwards(fig1):
    from shadowdyn.pseudo_orbits import connect

    size = fig1.n
    y, z = size // 3, 2 * size // 3
    spacing = F(1, size)
    # a chain from the source basin into the sink basin exists at the net
    # spacing and passes through both arcs
    po = connect(5, z - 5, spacing, fig1)
    assert po is not None
    # runs through the first arc and then the second
    assert any(0 < p < y for p in po.points)
    assert any(y < p < z for p in po.points)
    # against all arrows: the sink cannot be chained back to the source
    assert connect(z, 0, spacing, fig1) is None


def test_fig1_sink_is_its_own_minimal_point(fig1):
    from shadowdyn.chain import nearest_minimal_point

    z = 2 * fig1.n // 3
    assert nearest_minimal_point(z, fig1, F(1, 10)) == z


def test_fig1_uniform_delta_on_sink_arc(fig1):
    from shadowdyn.shadowing import uniform_delta_for_set

    z = 2 * fig1.n // 3
    arc = list(range(z - 5, z + 6))
    delta, reports = uniform_delta_for_set(fig1, arc, F(1, 20), horizon=6,
                                           ladder=[F(1, 360)])
    assert delta == F(1, 360)
    assert all(r.shadowable for r in reports.values())


# -- the extension space ----------------------------------------------------------


def test_cylinder_partition_counts(fib):
    # cell count is the factor complexity 2m + 2 at window radius m
    for level, m in [(1, 0), (2, 1), (3, 2), (4, 2)]:
        part = cylinder_partition(fib, level)
        assert part.window_radius == m
        assert part.cell_count == 2 * m + 2
        assert part.delta > 0
        assert F(1, 1 << m) <= F(1, level) or m == 0


def test_vertex_shift_points_closed_under_shift(fib):
    part = cylinder_partition(fib, 3)
    pts = vertex_shift_points(part)
    st = set(pts)
    assert all(p.shift(1) in st for p in pts)


def test_extension_net_bijective(extension):
    net = extension.net
    assert net.invertible
    assert sorted(net.map) == list(range(net.n))


def test_extension_base_is_input_shift(extension):
    net = extension.net
    for t, idx in enumerate(extension.base_indices):
        nxt = net.step(idx)
        xp, ev, h = net.labels[idx]
        xq, ev2, h2 = net.labels[nxt]
        assert (ev, h) == (ev2, h2) == (F(0), F(0))
        assert xq == xp.shift(1)


def test_extension_layers_isolated_and_invariant(extension):
    net = extension.net
    for n, lvl in extension.levels.items():
        members = set(lvl.indices)
        assert all(net.step(i) in members for i in members)
        # heights separate distinct layers
        for other, lvl2 in extension.levels.items():
            if other != n:
                gap = abs(F(1, n) - F(1, other))
                i, j = lvl.indices[0], lvl2.indices[0]
                assert net.distance(i, j) >= gap


def test_branching_delta_is_least_distance_from_an_image(extension):
    for n in extension.levels:
        mnet = minimal_layer_net(extension, n)
        least = min(mnet.row(mnet.step(i))[q] for i in range(mnet.n)
                    for q in range(mnet.n) if q != mnet.step(i))
        assert _branching_delta(mnet) == least


def test_extension_claims(extension):
    rep = verify_extension_claims(extension)
    assert rep.ok
    assert all(r.shadowable for _, r in rep.base_shadowable)
    for n in extension.levels:
        assert rep.layer_counterexamples[n] is not None
        assert not rep.layer_shadowing[n].shadowable


def embed_reference(point, window):
    """The base-3 embedding summed as Fractions, one rank at a time."""
    total, rank = F(0), 0
    for j in range(window + 1):
        for c in ((j,) if j == 0 else (-j, j)):
            if point.coord(c):
                total += F(1, 3 ** (rank + 1))
            rank += 1
    return total


def product_distance(a, b):
    """The extension metric on two labels, in Fractions."""
    (xa, ea, ha), (xb, eb, hb) = a, b
    return max(symbolic_distance(xa, xb), abs(ea - eb), abs(ha - hb))


def test_extension_metric_matches_fraction_reference(fib, extension):
    small = extension_builder(fib, 2).net
    for i in range(small.n):
        assert small.row(i) == tuple(product_distance(small.labels[i], b)
                                     for b in small.labels)
    net = extension.net
    assert net.n == 346
    rng = random.Random(4)
    for _ in range(4000):
        i, j = rng.randrange(net.n), rng.randrange(net.n)
        assert net.distance(i, j) == product_distance(net.labels[i], net.labels[j])
    window = extension.meta["minimal_period"]
    for lvl in extension.levels.values():
        for p in lvl.minimal_cycle:
            assert embed_binary(p, window) == embed_reference(p, window)


def test_minimal_layer_net_matches_fraction_reference(extension):
    window = extension.meta["minimal_period"]
    for level, lvl in extension.levels.items():
        mnet = minimal_layer_net(extension, level)
        values = [F(1, level) * embed_reference(p, window) for p in lvl.minimal_cycle]
        table = [[abs(a - b) for b in values] for a in values]
        assert [list(mnet.row(i)) for i in range(mnet.n)] == table
        assert mnet.resolution == min(v for row in table for v in row if v) / 2


def test_extension_rejects_non_minimal_input():
    periodic = SubstitutionLanguage({0: (0, 0)})
    with pytest.raises(ValueError):
        extension_builder(periodic, 2)


# -- the metrics the library builds, against the full check -----------------------

# The builders skip ``validate_metric``: each of these metrics holds by
# construction.  The full check is the oracle that the construction is right.


def test_circle_net_metric_passes_the_full_check_at_every_size():
    for size in range(3, 201):
        report = circle_net(size, lambda i: i + 1).validate_metric()
        assert report.ok and report.mode == "full", (size, report.summary())


def test_layered_metric_passes_the_full_check():
    for levels in range(2, 13):
        report = dense_shadowable_example(levels).net.validate_metric()
        assert report.ok and report.mode == "full", (levels, report.summary())


def test_extension_and_minimal_layer_metrics_pass_the_full_check(fib):
    for max_level in range(1, 5):
        space = extension_builder(fib, max_level)
        report = space.net.validate_metric()
        assert report.ok and report.mode == "full", (max_level, report.summary())
        report = minimal_layer_net(space, max_level).validate_metric()
        assert report.ok and report.mode == "full", (max_level, report.summary())


@pytest.mark.parametrize("name", ["fullshift:2", "fullshift:3", "goldenmean"])
def test_cylinder_net_metric_passes_the_full_check(name):
    system = _named_system(name)
    depths = list(itertools.takewhile(lambda d: system.count_words(2 * d + 1) <= 512,
                                      itertools.count()))
    assert len(depths) >= 3
    for depth in depths:
        report = CylinderNet(system, depth).validate_metric()
        assert report.ok and report.mode == "full", (depth, report.summary())
