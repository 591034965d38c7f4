import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowdyn.builders import fig1_circle
from shadowdyn.pseudo_orbits import orbit_segment, validate
from shadowdyn.shadow_search import SearchStats, find_shadow, shadows, unshadowed
from shadowdyn.shadowing import (
    chain_class_shadowability,
    h_class_two_sided_shadowing,
    has_shadowing_at_resolution,
    is_positively_shadowable_at,
    uniform_delta_for_set,
)
from shadowdyn.systems import (
    NetSystem,
    SymbolicPoint,
    SymbolicSystem,
    circle_net,
    dyadic_radius,
)

F = Fraction


# -- shadow verification and search -------------------------------------------


def test_orbit_shadows_itself():
    gm = SymbolicSystem.golden_mean()
    x = gm.point((0, 1, 0))
    po = orbit_segment(gm, x, 6)
    w = shadows(gm, x, po, F(0))
    assert w is not None and w.shadow_point == x
    assert find_shadow(gm, po, F(1, 64)) is not None


def random_pseudo_orbit(system, start, delta, length, rng):
    s = dyadic_radius(delta)
    pts = [start]
    for _ in range(length):
        cands = system.successor_candidates(pts[-1].shift(1), s, s)
        pts.append(rng.choice(cands))
    return validate(pts, delta, system)


@pytest.mark.parametrize("m", [2, 3])
def test_golden_mean_gluing_matches_exhaustive_oracle(m):
    gm = SymbolicSystem.golden_mean()
    delta, eps = F(1, 2 ** (m + 1)), F(1, 2 ** m)
    rng = random.Random(m)
    start = gm.point((0, 1, 0, 0, 1))
    for trial in range(5):
        po = random_pseudo_orbit(gm, start, delta, length=6, rng=rng)
        w = find_shadow(gm, po, eps)
        assert w is not None
        assert shadows(gm, w.shadow_point, po, eps) is not None

        # independent oracle: exhaust periodic closures of all admissible
        # words on the constrained window
        t = dyadic_radius(eps)
        width = len(po.points) + 2 * t + 1
        found = False
        for word in gm.words(width):
            z = gm.periodic_closure(word, anchor=-(t + 1))
            if z is not None and shadows(gm, z, po, eps) is not None:
                found = True
                break
        assert found


@given(st.sampled_from(["fullshift:2", "goldenmean"]),
       st.sampled_from([F(1, 2), F(1, 4), F(1, 8)]),
       st.sampled_from([F(1), F(1, 2), F(1, 4), F(1, 8)]),
       st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_glued_find_shadow_matches_brute_force_over_cylinders(name, eps, delta, length, rng):
    system = SymbolicSystem.full_shift(2) if name == "fullshift:2" else SymbolicSystem.golden_mean()
    po = random_pseudo_orbit(system, system.sample_point(rng), delta, length, rng)
    w = find_shadow(system, po, eps)
    if w is not None:
        assert shadows(system, w.shadow_point, po, eps) is not None
    # the glue window: a shadow agrees with x_i on |j| <= rho around i
    rho = dyadic_radius(eps) - 1
    brute = any(z is not None and shadows(system, z, po, eps) is not None
                for _, z in system.cylinders(-rho, len(po.points) - 1 + rho))
    assert (w is not None) == brute


def test_glue_conflict_is_a_proof_of_absence():
    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.fixed_point(0)
    q = sigma2.point((0,), word=(1,), offset=-1)  # q_{-1} = 1, else 0
    # one delta-step at delta = 1/2, but eps = 1/4 forces z_0 = x_0 = 0 and
    # z_0 = q_{-1} = 1: contradiction
    po = validate([x, q], F(1, 2), sigma2)
    assert find_shadow(sigma2, po, F(1, 4)) is None
    # and at eps = 1/2 the conflict coordinate leaves the window: witness
    assert find_shadow(sigma2, po, F(1, 2)) is not None


@pytest.mark.parametrize("eps", [F(0), F(1, 8), F(1, 5), F(1), F(2)])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_find_shadow_rejects_foreign_symbols_wherever_they_sit(eps, where):
    """A symbol outside the alphabet is an invalid input, not a proof that no
    shadow exists, at every eps and at every index of the sequence."""
    sigma2 = SymbolicSystem.full_shift(2)
    z = sigma2.point((0, 1))
    for foreign in (SymbolicPoint((2,)), SymbolicPoint((0,), (-1,), 0)):
        pts = [z, z.shift(1), z.shift(2)]
        pts[where] = foreign
        with pytest.raises(ValueError, match="alphabet mismatch"):
            find_shadow(sigma2, pts, eps)
        with pytest.raises(ValueError, match="alphabet mismatch"):
            sigma2.shadow(pts, eps)


def sink_circle(size=36):
    """Monotone circle flow: source at 0, sink at size//2."""
    half = size // 2

    def step(i):
        if i in (0, half):
            return i
        if 0 < i < half:
            return min(i + 1, half)
        return max(i - 1, half)

    return circle_net(size, step)


def test_net_find_shadow_exhaustive():
    net = sink_circle()
    po = orbit_segment(net, 3, 5)
    w = find_shadow(net, po, F(0))
    assert w is not None and w.shadow_point == 3


# -- positive shadowability -----------------------------------------------------


@pytest.mark.parametrize("m", [2])
def test_full_shift_positively_shadowable(m):
    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.point((0, 1))
    rep = is_positively_shadowable_at(sigma2, x, F(1, 2 ** m), F(1, 2 ** (m + 2)),
                                      horizon=10)
    assert rep.shadowable


def test_symbolic_counterexample_when_delta_too_coarse():
    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.fixed_point(0)
    rep = is_positively_shadowable_at(sigma2, x, F(1, 4), F(1, 2), horizon=4)
    assert not rep.shadowable
    assert rep.counterexample is not None
    assert rep.reverify_counterexample(sigma2)


def test_net_sink_point_positively_shadowable():
    net = sink_circle()
    # a point in the sink basin; small delta below the net spacing means
    # pseudo-orbits are true orbits
    rep = is_positively_shadowable_at(net, 5, F(1, 18), F(1, 100), horizon=8)
    assert rep.shadowable


def test_one_point_system_always_shadowable():
    net = NetSystem(["pt"], [[F(0)]], [0], resolution=F(1, 2), invertible=True)
    for eps, delta in [(F(1, 10), F(1)), (F(1), F(1))]:
        rep = has_shadowing_at_resolution(net, delta, eps, horizon=5)
        assert rep.shadowable


def brute_force_net_verdict(net, x, eps, delta, horizon):
    """Independent oracle: enumerate all delta-pseudo-orbits in lexicographic
    (prefix-first) order, testing each by exhaustive shadow search."""

    def rec(path):
        if find_shadow(net, list(path), eps) is None:
            return path
        if len(path) - 1 == horizon:
            return None
        for q in net.successors(path[-1], delta):
            bad = rec(path + (q,))
            if bad is not None:
                return bad
        return None

    bad = rec((x,))
    return bad is None, bad


def test_net_dfs_matches_brute_force():
    rng = random.Random(7)
    for trial in range(6):
        size = 10
        step_map = [rng.randrange(size) for _ in range(size)]
        labels = [F(i, size) for i in range(size)]
        dist = [[min(abs(labels[i] - labels[j]), 1 - abs(labels[i] - labels[j]))
                 for j in range(size)] for i in range(size)]
        net = NetSystem(labels, dist, step_map, resolution=F(1, 2 * size))
        eps = rng.choice([F(1, 10), F(1, 5), F(3, 10)])
        delta = rng.choice([F(1, 10), F(1, 5)])
        for x in range(0, size, 3):
            rep = is_positively_shadowable_at(net, x, eps, delta, horizon=4)
            ok, bad = brute_force_net_verdict(net, x, eps, delta, 4)
            assert rep.shadowable == ok
            if not ok:
                assert rep.counterexample.points == bad


def test_monotonicity_in_eps_and_delta():
    net = sink_circle(24)
    x = 4
    base = is_positively_shadowable_at(net, x, F(1, 8), F(1, 24), horizon=5)
    assert base.shadowable
    stronger_eps = is_positively_shadowable_at(net, x, F(1, 4), F(1, 24), horizon=5)
    smaller_delta = is_positively_shadowable_at(net, x, F(1, 8), F(1, 48), horizon=5)
    assert stronger_eps.shadowable and smaller_delta.shadowable


@pytest.mark.parametrize("name, eps, delta, horizon", [
    ("fig1:36", F(1, 36), F(1, 36), 8),
    ("fullshift:2", F(1, 8), F(1, 4), 6),
])
def test_within_restricts_both_engines(name, eps, delta, horizon):
    """``within = restrict_to(every node)`` leaves the search unchanged, and
    under a proper restriction the counterexample stays inside it."""
    if name == "fig1:36":
        system = net = fig1_circle(36)
        half = range(18, 36)
    else:
        system = SymbolicSystem.full_shift(2)
        net = system.chain_net(2)
        half = [i for i, w in enumerate(net.words_) if w[2] == 1]
    free = unshadowed(system, None, eps, delta, horizon, SearchStats())
    assert free is not None
    every = net.restrict_to(range(net.n))
    assert unshadowed(system, None, eps, delta, horizon, SearchStats(), every) == free
    within = net.restrict_to(half)
    bad = unshadowed(system, None, eps, delta, horizon, SearchStats(), within)
    assert bad is not None and bad != free
    assert all(within(p) for p in bad)
    assert find_shadow(system, validate(bad, delta, system), eps) is None


# -- resolution-level shadowing ---------------------------------------------------


@pytest.mark.parametrize("m", [2, 3])
def test_full_shift_has_shadowing(m):
    sigma2 = SymbolicSystem.full_shift(2)
    rep = has_shadowing_at_resolution(sigma2, F(1, 2 ** (m + 2)), F(1, 2 ** m),
                                      horizon=10)
    assert rep.shadowable


def test_two_sided_requires_invertible():
    net = sink_circle()
    with pytest.raises(ValueError):
        has_shadowing_at_resolution(net, F(1, 100), F(1, 10), horizon=3,
                                    two_sided=True)


def test_sh_subset_sh_plus_on_invertible_net():
    # rigid rotation: passes two-sided shadowing at matching constants,
    # hence passes the positive test too
    size = 12
    net = circle_net(size, lambda i: (i + 1) % size, invertible=True)
    eps, delta = F(1, 6), F(1, 24)
    two = has_shadowing_at_resolution(net, delta, eps, horizon=3, two_sided=True)
    one = has_shadowing_at_resolution(net, delta, eps, horizon=3)
    assert two.shadowable
    assert one.shadowable


# -- uniform constants and chain classes ----------------------------------------


def test_uniform_delta_single_fixed_point():
    net = sink_circle()
    half = net.n // 2
    delta, reports = uniform_delta_for_set(net, [half], F(1, 9), horizon=5)
    assert delta > 0
    assert all(r.shadowable for r in reports.values())


def test_chain_class_shadowability_full_shift():
    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.fixed_point(0)
    rep = chain_class_shadowability(sigma2, x, F(1, 2), F(1, 8), horizon=6, depth=3)
    assert rep.all_shadowable
    assert len(rep.class_nodes) == 2 ** 7


def test_chain_class_singleton_on_net():
    net = sink_circle()
    half = net.n // 2
    rep = chain_class_shadowability(net, half, F(1, 9), F(1, 100), horizon=5)
    assert rep.all_shadowable
    assert rep.class_nodes == (half,)


def test_h_class_two_sided_full_shift_and_singleton():
    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.fixed_point(1)
    rep = h_class_two_sided_shadowing(sigma2, x, F(1, 2), F(1, 8), horizon=4, depth=3)
    assert rep.all_shadowable

    net = sink_circle()
    half = net.n // 2
    rep2 = h_class_two_sided_shadowing(net, half, F(1, 9), F(1, 100), horizon=4)
    assert rep2.all_shadowable


def test_uniform_delta_reports_keyed_by_symbolic_point():
    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.fixed_point(0)
    delta, reports = uniform_delta_for_set(sigma2, [x], F(1, 4), horizon=4)
    assert delta > 0
    # an equal point with another representation finds the same report
    assert reports[sigma2.point((0, 0), word=(0,), offset=5)].shadowable


def line_net(positions, step_map, resolution):
    """Net of points on a line with the metric |s - t|."""
    dist = [[abs(s - t) for t in positions] for s in positions]
    return NetSystem(list(range(len(positions))), dist, step_map, resolution=resolution)


# x = 0 goes to the fixed point 1/2; y, 1/25 from x, goes to the fixed
# point p at 4/5, and p', 1/25 from p, goes to the fixed point 3/10.
# So y is not shadowable while delta >= 1/25 (the path y, p', 3/10
# leaves y's orbit behind) but x is at every delta.
REFINE_POSITIONS = [F(0), F(1, 25), F(3, 10), F(1, 2), F(4, 5), F(21, 25)]
REFINE_MAP = [3, 4, 2, 3, 4, 2]


def test_uniform_delta_refines_past_an_unshadowable_neighbour():
    net = line_net(REFINE_POSITIONS, REFINE_MAP, F(1, 100))
    assert not is_positively_shadowable_at(net, 1, F(1, 10), F(1, 20)).shadowable
    delta, reports = uniform_delta_for_set(net, [0], F(1, 10))
    # the ladder's first rung, 1/20, passes at x but its neighbourhood
    # holds y; one halving drops y from it
    assert reports[0].delta == F(1, 20)
    assert delta == F(1, 40)
    assert net.neighborhood([0], delta) == [0]


def test_uniform_delta_refinement_stops_at_the_net_resolution():
    net = line_net(REFINE_POSITIONS, REFINE_MAP, F(1, 30))
    with pytest.raises(ValueError, match="below the net resolution"):
        uniform_delta_for_set(net, [0], F(1, 10))


def test_h_class_two_sided_records_a_failure():
    # two fixed points 1/10 apart form one chain class at delta 1/10, and
    # hopping between them has no 1/20-shadow
    net = line_net([F(0), F(1, 10)], [0, 1], F(1, 20))
    rep = h_class_two_sided_shadowing(net, 0, F(1, 20), F(1, 10), horizon=2)
    assert rep.class_nodes == (0, 1)
    assert not rep.all_shadowable
    [(node, failure)] = rep.failures
    assert node == failure.counterexample.points[0]
    assert failure.reverify_counterexample(net)
