import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowdyn import measures
from shadowdyn.builders import fig1_circle
from shadowdyn.measures import (
    BlockConcatenation,
    EmpiricalMeasure,
    TestFunctionFamily,
    dstar,
    verify_empirical_lemma,
    verify_measure_approx,
)
from shadowdyn.pseudo_orbits import connect
from shadowdyn.systems import SymbolicSystem, circle_net, dyadic_radius

F = Fraction


@pytest.fixture(scope="module")
def sigma2():
    return SymbolicSystem.full_shift(2)


@pytest.fixture(scope="module")
def family(sigma2):
    return TestFunctionFamily.for_system(sigma2, size=24, depth=2)


def test_empirical_measure_merges_multiplicity(sigma2):
    fixed = sigma2.fixed_point(0)
    mu = EmpiricalMeasure.from_orbit(sigma2, fixed, 7)
    assert mu.atoms == ((fixed, F(1)),)

    p = sigma2.point((0, 1))
    nu = EmpiricalMeasure.from_orbit(sigma2, p, 4)
    assert sorted(w for _, w in nu.atoms) == [F(1, 2), F(1, 2)]

    # weights 2/3 on x and 1/3 on f(x) for the period-2 point at n = 3
    rho = EmpiricalMeasure.from_orbit(sigma2, p, 3)
    assert dict(rho.atoms)[p] == F(2, 3)
    assert dict(rho.atoms)[p.shift(1)] == F(1, 3)


def test_empirical_measure_rejects_bad_weights(sigma2):
    fixed = sigma2.fixed_point(0)
    with pytest.raises(ValueError):
        EmpiricalMeasure([(fixed, F(1, 2))])
    with pytest.raises(ValueError):
        EmpiricalMeasure([(fixed, F(-1)), (fixed.shift(0), F(2))])


def test_family_norm_validated(sigma2, family):
    sample = [sigma2.fixed_point(0), sigma2.fixed_point(1),
              sigma2.point((0, 1)), sigma2.point((0, 0, 1))]
    assert family.validate(sample)


def test_dstar_identity_and_symmetry(sigma2, family):
    mu = EmpiricalMeasure.from_orbit(sigma2, sigma2.point((0, 1)), 4)
    nu = EmpiricalMeasure.from_orbit(sigma2, sigma2.fixed_point(0), 3)
    assert dstar(mu, mu, family).value == 0
    assert dstar(mu, nu, family).value == dstar(nu, mu, family).value
    assert dstar(mu, nu, family).tail_bound == F(2, 2 ** 24)


def test_dstar_point_masses_bounded_by_distance(sigma2, family):
    # tails sum to 1 and each Lipschitz bound is <= 1
    for a, b in [((0,), (1,)), ((0, 1), (0, 0, 1))]:
        pa, pb = sigma2.point(a), sigma2.point(b)
        lhs = dstar(EmpiricalMeasure.point_mass(pa),
                    EmpiricalMeasure.point_mass(pb), family).value
        assert lhs <= sigma2.distance(pa, pb)


def test_dstar_triangle_on_samples(sigma2, family):
    pts = [sigma2.fixed_point(0), sigma2.fixed_point(1), sigma2.point((0, 1)),
           sigma2.point((0, 0, 1))]
    measures = [EmpiricalMeasure.from_orbit(sigma2, p, 3) for p in pts]
    for a, b, c in itertools.permutations(measures, 3):
        ab = dstar(a, b, family).value
        bc = dstar(b, c, family).value
        ac = dstar(a, c, family).value
        assert ac <= ab + bc


def test_measure_approx_suite_small(sigma2, family):
    report = verify_measure_approx(sigma2, family, trials=60, seed=11)
    assert report.ok, report.violations[:3]


def test_measure_approx_suite_on_net():
    net = circle_net(24, lambda i: (i + 1) % 24, invertible=True)
    fam = TestFunctionFamily.for_system(net, size=24)
    report = verify_measure_approx(net, fam, trials=40, seed=5)
    assert report.ok, report.violations[:3]


@pytest.mark.parametrize("name, seed, trials, calls, digest", [
    ("fullshift:3", 4, 30, 158,
     "df01260a2a317a0b6cd92937589bce15ffc221357815d90d01d13477c5daa823"),
    ("circle:24", 5, 20, 115,
     "13832192d2e2dc0f62f2dd41c93712bf73cc408a3831c4a7b67c627b306b2c49"),
])
def test_measure_approx_trials_are_pinned(monkeypatch, name, seed, trials, calls, digest):
    """The d* values a fixed-seed run evaluates, in order: the random draws,
    and so the trials and the report, do not depend on how the kernel or
    the suite is implemented."""
    system = (SymbolicSystem.full_shift(3) if name == "fullshift:3"
              else circle_net(24, lambda i: (i + 1) % 24, invertible=True))
    library_dstar = measures.dstar
    values = []

    def recording_dstar(mu, nu, fam):
        res = library_dstar(mu, nu, fam)
        values.append(res.value)
        return res

    monkeypatch.setattr(measures, "dstar", recording_dstar)
    family = TestFunctionFamily.for_system(system, size=24)
    report = verify_measure_approx(system, family, trials=trials, seed=seed)
    assert report.ok and report.trials == trials
    text = " ".join(map(str, values)).encode()
    assert (len(values), hashlib.sha256(text).hexdigest()) == (calls, digest)


# -- differential oracle: the rational kernel the integer one replaced --------


def reference_value(family, j, y):
    p, r = family.pair(j)
    d = family.system.distance(y, p)
    return max(F(0), r - d) / (1 + r)


def reference_integral(family, j, mu):
    return sum((w * reference_value(family, j, p) for p, w in mu.atoms), F(0))


def reference_dstar(mu, nu, family):
    total = F(0)
    weight = F(1, 2)
    for j in range(1, family.size + 1):
        total += weight * abs(reference_integral(family, j, mu)
                              - reference_integral(family, j, nu))
        weight /= 2
    return total


def reference_atoms(pairs):
    """Weights merged per point as Fractions, sorted by point."""
    merged = {}
    for p, w in pairs:
        merged[p] = merged.get(p, F(0)) + F(w)
    return tuple(sorted(((p, w) for p, w in merged.items() if w), key=lambda a: a[0]))


ORACLE_SYSTEMS = {
    "fullshift:2": SymbolicSystem.full_shift(2),
    "fullshift:3": SymbolicSystem.full_shift(3),
    "goldenmean": SymbolicSystem.golden_mean(),
    "fig1:36": fig1_circle(36),
}


def random_measure(system, rng):
    """An orbit, point-mass or mixed measure, with its reference atoms."""
    kind = rng.choice(("orbit", "point", "mix"))
    if kind == "point":
        x = system.sample_point(rng)
        return EmpiricalMeasure.point_mass(x), ((x, F(1)),)
    if kind == "orbit":
        x, n = system.sample_point(rng), rng.randint(1, 12)
        pts = [x]
        for _ in range(n - 1):
            pts.append(system.step(pts[-1]))
        return (EmpiricalMeasure.from_orbit(system, x, n),
                reference_atoms((p, F(1, n)) for p in pts))
    parts = [random_measure(system, rng)[0] for _ in range(rng.randint(1, 3))]
    raw = [rng.randint(0, 6) for _ in parts]
    raw[0] += 1
    weights = [F(r, sum(raw)) for r in raw]
    return (EmpiricalMeasure.mix(parts, weights),
            reference_atoms((p, a * w) for mu, a in zip(parts, weights)
                            for p, w in mu.atoms))


@given(name=st.sampled_from(sorted(ORACLE_SYSTEMS)),
       radii=st.permutations([None, (F(1, 3), F(1, 5))]),
       sizes=st.tuples(st.integers(1, 24), st.integers(1, 24)),
       seed=st.integers(0, 2 ** 32))
@settings(max_examples=120, deadline=None)
def test_integer_kernel_matches_rational_reference(name, radii, sizes, seed):
    """Two families of different sizes and radii over the same measures: d*,
    its symmetry and identity, then each integral and tent value read back
    from the per-point cache that d* filled."""
    system = ORACLE_SYSTEMS[name]
    rng = random.Random(seed)
    (mu, mu_ref), (nu, nu_ref) = random_measure(system, rng), random_measure(system, rng)
    assert mu.atoms == mu_ref and nu.atoms == nu_ref
    for size, r in zip(sizes, radii):
        family = TestFunctionFamily.for_system(system, size=size, radii=r)
        value = dstar(mu, nu, family).value
        assert value == reference_dstar(mu, nu, family)
        assert dstar(nu, mu, family).value == value
        assert dstar(mu, mu, family).value == 0
        for j in range(1, size + 1):
            assert family.integral(j, mu) == reference_integral(family, j, mu)
            assert family.integral(j, nu) == reference_integral(family, j, nu)
            for p in mu.points + nu.points:
                assert family.value(j, p) == reference_value(family, j, p)


class RecordingSystem:
    """A system whose distance calls record the second point (the centre)."""

    def __init__(self, system):
        self.system = system
        self.centres = set()

    def distance(self, a, b):
        self.centres.add(b)
        return self.system.distance(a, b)


@pytest.mark.parametrize("size, radii", [(24, None), (7, None), (24, (F(1, 3), F(1, 5)))])
def test_family_reads_only_the_centres_it_uses(size, radii):
    sigma3 = SymbolicSystem.full_shift(3)
    system = RecordingSystem(sigma3)
    centres = sigma3.test_centers(2)
    family = TestFunctionFamily(system, centres, radii=radii, size=size)
    mu = EmpiricalMeasure.from_orbit(sigma3, sigma3.point((0, 1, 2)), 5)
    nu = EmpiricalMeasure.from_orbit(sigma3, sigma3.point((1, 1, 0)), 4)
    assert dstar(mu, nu, family).value == reference_dstar(mu, nu, family)
    used = math.ceil(size / len(family.radii))
    assert len(centres) == 243 and system.centres == set(centres[:used])


@pytest.mark.parametrize("radii", [(), (0, F(-1, 2)), (-1,)])
def test_family_rejects_radii_it_cannot_use(sigma2, radii):
    """An empty list used to fall back to the default radii, radii 0 and
    -1/2 made every tent vanish (d* of two distinct point masses read 0)
    and -1 divided by zero."""
    with pytest.raises(ValueError):
        TestFunctionFamily.for_system(sigma2, size=2, radii=radii)


def test_integrals_are_kept_per_measure(sigma2, family):
    """Equal measures built from distinct point objects share one result;
    the same points with other counts get their own."""
    def near_centres():
        return sigma2.fixed_point(0), sigma2.point((0, 0, 0, 0, 1)).shift(2)

    a, b = near_centres()
    mu = EmpiricalMeasure.from_sequence([a, b, b])
    twin = EmpiricalMeasure.from_sequence([near_centres()[1], *near_centres()])
    assert twin.points[0] is not mu.points[0]
    assert family.integrals(twin) == family.integrals(mu)
    other = EmpiricalMeasure.from_sequence([a, a, b])
    assert other.points == mu.points and other.counts != mu.counts
    assert family.integrals(other) != family.integrals(mu)
    for m in (mu, other):
        sums, _ = family.integrals(m)
        assert type(sums) is tuple and any(sums)
        assert [family.integral(j, m) for j in range(1, 25)] == \
            [reference_integral(family, j, m) for j in range(1, 25)]


# -- the lemma suite against a copy that builds everything afresh --------------


def fresh_nearby_point(system, x, eps, rng):
    """``nearby_point`` with a new closure on every call (a net's draws from
    rng as before)."""
    if not isinstance(system, SymbolicSystem):
        return system.nearby_point(x, eps, rng)
    t = dyadic_radius(eps)
    p = system.periodic_closure(x.window(-t - 1, t + 1), anchor=-t - 1)
    return p if p is not None else x


def reference_measure_approx(system, centres, trials, seed):
    """The lemma suite as it was before closures and integrals were kept:
    fresh closures, and every d* on a new family, so that nothing computed
    for one measure serves another.  Returns the report and the d* values
    in order."""
    values = []

    def fresh_dstar(mu, nu):
        values.append(dstar(mu, nu, TestFunctionFamily(system, centres, size=24)).value)
        return values[-1]

    rng = random.Random(seed)
    eps, orbit_len = F(1, 4), 12
    violations = []
    for trial in range(trials):
        base = system.sample_point(rng)
        seq = [base]
        for _ in range(orbit_len - 1):
            seq.append(system.step(seq[-1]))

        idx = range(orbit_len)
        a_set = sorted(rng.sample(idx, rng.randint(1, orbit_len)))
        b_set = sorted(rng.sample(idx, rng.randint(1, orbit_len)))
        mu_a = EmpiricalMeasure.from_sequence([seq[i] for i in a_set])
        mu_b = EmpiricalMeasure.from_sequence([seq[i] for i in b_set])
        na, nb = len(a_set), len(b_set)
        sym_diff = len(set(a_set) ^ set(b_set))
        inter = len(set(a_set) & set(b_set))
        rhs = (F(na + nb, na * nb) * sym_diff + F(abs(na - nb), na * nb) * inter)
        lhs = fresh_dstar(mu_a, mu_b)
        if lhs > rhs:
            violations.append(measures.LemmaViolation(1, trial, lhs, rhs,
                                                      {"A": a_set, "B": b_set}))

        m = rng.randint(1, orbit_len)
        xs = seq[:m]
        ys = [fresh_nearby_point(system, x, eps, rng) for x in xs]
        mu_x = EmpiricalMeasure.from_sequence(xs)
        mu_y = EmpiricalMeasure.from_sequence(ys)
        lhs = fresh_dstar(mu_x, mu_y)
        if lhs >= eps:
            violations.append(measures.LemmaViolation(2, trial, lhs, eps, {"m": m}))

        k = rng.randint(1, 4)
        parts = []
        for _ in range(k):
            ys = [fresh_nearby_point(system, x, eps, rng) for x in xs]
            parts.append(EmpiricalMeasure.from_sequence(ys))
        if all(fresh_dstar(p, mu_x) < eps for p in parts):
            cuts = sorted(rng.randint(0, 24) for _ in range(k - 1))
            raw = [a - b for a, b in zip(cuts + [24], [0] + cuts)]
            weights = [F(r, 24) for r in raw]
            if sum(weights) == 1 and all(w >= 0 for w in weights):
                mix = EmpiricalMeasure.mix(parts, weights)
                lhs = fresh_dstar(mix, mu_x)
                if lhs >= eps:
                    violations.append(measures.LemmaViolation(3, trial, lhs, eps, {"k": k}))
    return measures.MeasureApproxReport(trials, seed, violations), values


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
@pytest.mark.parametrize("seed", [3, 17])
def test_measure_approx_matches_fresh_reference(monkeypatch, name, seed):
    """The report and every d* value of a batch, with closures and integrals
    kept, equal those of the suite that rebuilds them on every call."""
    system = ORACLE_SYSTEMS[name]
    family = TestFunctionFamily.for_system(system, size=24)
    want, want_values = reference_measure_approx(system, family.centers, 25, seed)
    library_dstar = measures.dstar
    values = []

    def recording_dstar(mu, nu, fam):
        res = library_dstar(mu, nu, fam)
        values.append(res.value)
        return res

    monkeypatch.setattr(measures, "dstar", recording_dstar)
    report = verify_measure_approx(system, family, trials=25, seed=seed)
    assert report == want
    assert values == want_values


def test_measure_approx_builds_each_closure_and_integral_once(monkeypatch):
    """One 50-trial batch on fullshift:3: ``nearby_point`` closes each
    distinct window once, and ``integrals`` computes each distinct
    (points, counts) once, however often the trials ask again."""
    system = SymbolicSystem.full_shift(3)
    family = TestFunctionFamily.for_system(system, size=24, depth=2)
    inside, windows, nearby_calls = [False], [], [0]
    keys, integral_calls = [], [0]
    nearby_point, closure = SymbolicSystem.nearby_point, SymbolicSystem.periodic_closure
    integrals, integrate = TestFunctionFamily.integrals, TestFunctionFamily._integrate

    def counting_nearby(self, x, eps, rng):
        nearby_calls[0] += 1
        inside[0] = True
        try:
            return nearby_point(self, x, eps, rng)
        finally:
            inside[0] = False

    def counting_closure(self, word, anchor=0):
        if inside[0]:
            windows.append(tuple(word))
        return closure(self, word, anchor)

    def counting_integrals(self, mu):
        integral_calls[0] += 1
        return integrals(self, mu)

    def counting_integrate(self, mu):
        keys.append((mu.points, mu.counts))
        return integrate(self, mu)

    monkeypatch.setattr(SymbolicSystem, "nearby_point", counting_nearby)
    monkeypatch.setattr(SymbolicSystem, "periodic_closure", counting_closure)
    monkeypatch.setattr(TestFunctionFamily, "integrals", counting_integrals)
    monkeypatch.setattr(TestFunctionFamily, "_integrate", counting_integrate)
    assert verify_measure_approx(system, family, trials=50, seed=31).ok
    assert windows and len(windows) == len(set(windows)) < nearby_calls[0]
    assert keys and len(keys) == len(set(keys)) < integral_calls[0]


# -- block concatenation lemma -------------------------------------------------


def build_two_measure_blocks(sigma2, eps, n, rounds, connector_bound=4):
    """Connect the fixed-point orbit and the period-2 orbit with short
    eps-chains, rounds times, then perturb within eps."""
    p1 = sigma2.fixed_point(0)
    p2 = sigma2.point((0, 1))
    mu1 = EmpiricalMeasure.point_mass(p1)
    mu2 = EmpiricalMeasure.from_orbit(sigma2, p2, 2)

    generic = []
    connectors = []
    for _ in range(rounds):
        # connector into p1 is empty at round start; between blocks use a
        # splice chain without its endpoints
        c12 = connect(p1.shift(n - 1), p2, eps, sigma2)
        assert c12 is not None
        conn12 = tuple(c12.points[1:-1])
        assert len(conn12) <= connector_bound
        c21 = connect(p2.shift(n - 1), p1, eps, sigma2)
        assert c21 is not None
        conn21 = tuple(c21.points[1:-1])
        generic.append((p1, p2))
        connectors.append(((), conn12))
    construction = BlockConcatenation(
        system=sigma2, measures=(mu1, mu2), generic_points=tuple(generic),
        n=n, connectors=tuple(connectors), x_sequence=(), eps=eps,
        connector_bound=connector_bound)
    y = construction.y_sequence()
    # x: agree with y on a window deep enough to stay within eps
    from shadowdyn.systems import dyadic_radius

    t = dyadic_radius(eps)
    xs = []
    for q in y:
        w = q.window(-t - 1, t + 1)
        xs.append(sigma2.periodic_closure(w, anchor=-t - 1))
    construction.x_sequence = tuple(xs)
    return construction


def test_empirical_lemma_two_measures(sigma2, family):
    eps = F(1, 4)
    n = 24  # n >= 3R/eps with R = 4
    cons = build_two_measure_blocks(sigma2, eps, n, rounds=5)
    report = verify_empirical_lemma(cons, family)
    assert report.ok, report.violations
    assert len(report.per_round) == 5
    assert all(val <= report.bound for _, _, val in report.per_round)


def test_empirical_lemma_bound_scales_with_eps(sigma2, family):
    # shrinking eps tenfold (and growing n to keep n >= 3R/eps) keeps the
    # bound, now ten times smaller, satisfied
    from shadowdyn.measures import build_periodic_block_concatenation

    eps = F(1, 40)
    n = 480
    cons = build_periodic_block_concatenation(
        sigma2, [sigma2.fixed_point(0), sigma2.point((0, 1))], eps, n,
        rounds=3, connector_bound=16)
    report = verify_empirical_lemma(cons, family)
    assert report.ok
    assert report.bound == 3 * eps


def test_empirical_lemma_k1_trivial(sigma2, family):
    p = sigma2.point((0, 1))
    mu = EmpiricalMeasure.from_orbit(sigma2, p, 2)
    cons = BlockConcatenation(
        system=sigma2, measures=(mu,), generic_points=((p,), (p,)),
        n=4, connectors=(((),), ((),)),
        x_sequence=tuple(p.shift(i) for i in range(8)),
        eps=F(1, 8), connector_bound=0)
    report = verify_empirical_lemma(cons, family)
    assert report.ok
    # the generic orbit realizes its own measure: distance is exactly 0
    assert all(val == 0 for _, _, val in report.per_round)


def test_empirical_lemma_rejects_malformed(sigma2, family):
    p = sigma2.fixed_point(0)
    mu = EmpiricalMeasure.point_mass(p)
    cons = BlockConcatenation(
        system=sigma2, measures=(mu,), generic_points=((p,),),
        n=2, connectors=(((p, p, p),),),
        x_sequence=tuple([p] * 5), eps=F(1, 8), connector_bound=2)
    with pytest.raises(ValueError):
        verify_empirical_lemma(cons, family)


def test_connect_splices_fixed_point_to_cycle(sigma2):
    a = sigma2.fixed_point(0)
    b = sigma2.point((0, 1))
    for delta in [F(1, 4), F(1, 16), F(1, 64)]:
        po = connect(a, b, delta, sigma2)
        assert po is not None
        assert po.start == a and po.end == b
        assert po.reverify()
