import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowdyn import systems
from shadowdyn.cli import EXIT_BUDGET, _named_system, main
from shadowdyn.horseshoe import (
    CertificateAborted,
    HorseshoeCertificate,
    LoopFamily,
    RecipeInapplicable,
    build_certificate,
    equalize,
    find_loop_family,
    loop_words,
    make_family,
    nonminimal_recipe,
    sensitive_recipe,
    separation_witness,
)
from shadowdyn.pseudo_orbits import PseudoOrbit, connect, orbit_segment, repeat, validate
from shadowdyn.shadow_search import find_shadow, shadows
from shadowdyn.systems import SymbolicPoint, SymbolicSystem, circle_net, glue_constraints

F = Fraction


@pytest.fixture(scope="module")
def sigma2():
    return SymbolicSystem.full_shift(2)


def two_loop_family(sigma2, eps=F(1, 5), delta=F(1, 32)):
    """Constant loop at 0^inf versus an excursion through a point reading a
    1 at coordinate 0; separated at the excursion's visit (distance 1)."""
    from shadowdyn.pseudo_orbits import concatenate

    x = sigma2.fixed_point(0)
    q = sigma2.point((0,), word=(1,), offset=0)
    c2 = concatenate(connect(x, q, delta, sigma2),
                     connect(q, x, delta, sigma2))
    c1 = validate([x] * (c2.step_count + 1), delta, sigma2)
    return make_family(sigma2, x, [c1, c2], eps, delta)


def test_family_construction_and_reverify(sigma2):
    fam = two_loop_family(sigma2)
    assert fam.k == 2
    assert fam.reverify()
    w = fam.witnesses[0]
    assert w.distance == 1 and w.distance > 4 * fam.epsilon


def test_equalize_lcm():
    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.fixed_point(0)
    l2 = validate([x] * 3, 0, sigma2)
    l3 = validate([x] * 4, 0, sigma2)
    e2, e3 = equalize([l2, l3])
    assert e2.step_count == e3.step_count == 6


def test_find_loop_family_full_shift(sigma2):
    x = sigma2.fixed_point(0)
    fam = find_loop_family(x, F(1, 5), F(1, 16), n_max=24, k=2, system=sigma2)
    assert fam is not None
    assert fam.k == 2 and fam.reverify()


def test_find_loop_family_k1_trivial(sigma2):
    x = sigma2.fixed_point(1)
    fam = find_loop_family(x, F(1, 5), F(1, 16), n_max=12, k=1, system=sigma2)
    assert fam is not None and fam.k == 1
    assert math.log(fam.k) == 0


def test_find_loop_family_none_on_contracting_net():
    # all chain classes are fixed points: loops stay epsilon-close
    size = 36

    def step(i):
        if i in (0, 18):
            return i
        return i - 1 if i > 18 else i + 1 if i < 18 else i

    net = circle_net(size, lambda i: step(i) % size)
    fam = find_loop_family(0, F(1, 10), F(1, 200), n_max=10, k=2, system=net)
    assert fam is None


def test_loop_candidates_past_the_budget_raise(sigma2, monkeypatch, capsys):
    # 0* has 31 other width-5 closures on the full 2-shift, and fig1(24) has
    # 23 points other than 0: more excursions than a budget of 3 admits
    from shadowdyn.builders import fig1_circle

    monkeypatch.setattr(systems, "LOOP_CANDIDATE_BUDGET", 3)
    with pytest.raises(systems.BudgetExceeded):
        find_loop_family(sigma2.fixed_point(0), F(1, 5), F(1, 16), n_max=24, k=2,
                         system=sigma2)
    with pytest.raises(systems.BudgetExceeded):
        find_loop_family(0, F(1, 36), F(1, 6), n_max=20, k=2, system=fig1_circle(24))
    assert main(["horseshoe", "--system", "fullshift:2", "--base", '{"period": [0]}',
                 "--eps", "1/5", "--delta", "1/16"]) == EXIT_BUDGET
    out = capsys.readouterr()
    assert out.out == "" and "loop candidate search exceeded its budget" in out.err


def test_certificate_codes_all_words(sigma2):
    fam = two_loop_family(sigma2)
    cert = build_certificate(fam, word_length_max=4)
    n_words = sum(2 ** l for l in range(1, 5))
    assert len(cert.coded) == n_words
    assert cert.check()["ok"]
    assert cert.entropy_log_arg == 2
    assert cert.entropy_divisor == fam.n
    assert cert.entropy_lower_bound == pytest.approx(math.log(2) / fam.n)


def test_certificate_separation_counts(sigma2):
    fam = two_loop_family(sigma2)
    cert = build_certificate(fam, word_length_max=4)
    for length in (2, 3, 4):
        assert cert.separated_pair_count(length) == 2 ** length


def test_certificate_word_length_zero(sigma2):
    fam = two_loop_family(sigma2)
    cert = build_certificate(fam, word_length_max=0)
    assert cert.coded == {}
    assert cert.entropy_lower_bound > 0


def test_semiconjugacy_pass_and_corruption(sigma2):
    fam = two_loop_family(sigma2)
    cert = build_certificate(fam, word_length_max=3)
    assert cert.check()["checks"]["semiconjugacy"]

    # corrupt one coded point: fail at that word
    cert.coded[(1, 0, 1)] = sigma2.fixed_point(1)
    rep = cert.check()
    assert not rep["checks"]["semiconjugacy"]
    assert not rep["checks"]["tracing"]
    assert rep["details"]["tracing_failures"] == [[1, 0, 1]]


def test_single_word_semiconjugacy_vacuous(sigma2):
    fam = two_loop_family(sigma2)
    cert = build_certificate(fam, word_length_max=1)
    assert cert.check()["checks"]["semiconjugacy"]
    # one-letter words have no tail, so an untraced one breaks only tracing
    cert.coded[(1,)] = sigma2.fixed_point(1)
    checks = cert.check()["checks"]
    assert checks["semiconjugacy"] and not checks["tracing"]


def test_nonminimal_recipe_golden_mean():
    gm = SymbolicSystem.golden_mean()
    z = gm.point((0, 1))          # periodic point off the fixed point
    k_point = gm.fixed_point(0)   # proper minimal subset {0^inf}
    delta = F(1, 64)
    fam = nonminimal_recipe(z, [k_point], delta, gm)
    assert fam.k == 2
    assert fam.epsilon == gm.distance(z, k_point) / 5
    assert fam.reverify()
    cert = build_certificate(fam, word_length_max=2)
    assert cert.check()["checks"]["semiconjugacy"]


def test_nonminimal_recipe_net_figure_eight():
    # identity map: every point is fixed and delta-chains run both ways
    size = 120
    net = circle_net(size, lambda i: i, invertible=True)
    delta = F(1, 120)
    fam = nonminimal_recipe(60, [0], delta, net,
                            class_nodes=range(size), z=60)
    assert fam.k == 2 and fam.reverify()
    assert fam.epsilon == F(1, 10)


def _join_oracle_family(name):
    if name == "figure-eight":
        net = circle_net(120, lambda i: i, invertible=True)
        return nonminimal_recipe(60, [0], F(1, 120), net, class_nodes=range(120), z=60)
    system, eps, delta = {
        "fullshift:2": (SymbolicSystem.full_shift(2), F(1, 5), F(1, 32)),
        "goldenmean": (SymbolicSystem.golden_mean(), F(1, 9), F(1, 64))}[name]
    return find_loop_family(system.point((0,)), eps, delta, 64, 2, system)


@pytest.mark.parametrize("name", ["fullshift:2", "goldenmean", "figure-eight"])
def test_word_points_is_the_concatenate_chain(name):
    """A word's one join equals its loops' chain of concatenations, on the
    families of the tampered-certificate documents and the figure-eight net
    (where no certificate exists, so none is built)."""
    from shadowdyn.pseudo_orbits import concatenate

    fam = _join_oracle_family(name)
    cert = HorseshoeCertificate(fam, 4, {}, fam.k, fam.n)
    for word in loop_words(fam.k, 4):
        po = fam.loops[word[0]]
        for s in word[1:]:
            po = concatenate(po, fam.loops[s])
        assert cert.word_points(word) == po.points


# -- the certificate rule against the rules it replaced ---------------------------


def _tail_rule(cert):
    """Semiconjugacy as a separate pass: the n-th iterate of every coded
    point of a word a.w' traces w'."""
    fam = cert.family
    return all(shadows(fam.system, fam.system.iterate(z, fam.n),
                       cert.word_points(w[1:]), fam.epsilon) is not None
               for w, z in sorted(cert.coded.items()) if len(w) > 1)


def _fraction_separation_rule(cert):
    """Separation counts with a Fraction distance per pair, checked against
    2 epsilon at the witness index of the first differing loops."""
    fam, system = cert.family, cert.family.system

    def count(length):
        words = [w for w in cert.coded if len(w) == length]
        separated = 0
        for wa, wb in itertools.combinations(words, 2):
            s = next(i for i in range(length) if wa[i] != wb[i])
            witness = next((w for w in fam.witnesses
                            if {w.loop_a, w.loop_b} == {wa[s], wb[s]}), None)
            if witness is not None:
                time = s * fam.n + witness.index
                d = system.distance(system.iterate(cert.coded[wa], time),
                                    system.iterate(cert.coded[wb], time))
                separated += d > 2 * fam.epsilon
        return len(words) if separated == len(words) * (len(words) - 1) // 2 else -1

    return all(count(length) == fam.k ** length
               for length in sorted({len(w) for w in cert.coded}))


def _assert_rules_agree(cert):
    checks = cert.check()["checks"]
    assert checks["semiconjugacy"] == _tail_rule(cert)
    assert checks["separated_counts"] == _fraction_separation_rule(cert)
    return checks


def _tampered(cert, rng):
    """A copy of the certificate with one to three random edits: swap two
    coded points, shift one, replace one by the base, copy one onto another
    word, or double one loop."""
    fam = cert.family
    coded = dict(cert.coded)
    loops = list(fam.loops)
    words = sorted(coded)
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(5)
        a, b = rng.sample(words, 2)
        if edit == 0:
            coded[a], coded[b] = coded[b], coded[a]
        elif edit == 1:
            coded[a] = fam.system.iterate(coded[a], rng.choice([-2, -1, 1, 2, fam.n]))
        elif edit == 2:
            coded[a] = fam.base
        elif edit == 3:
            coded[a] = coded[b]
        else:
            i = rng.randrange(len(loops))
            loops[i] = repeat(loops[i], 2)
    family = LoopFamily(fam.system, fam.base, tuple(loops), fam.delta, fam.epsilon,
                        fam.witnesses)
    return HorseshoeCertificate(family, cert.word_length_max, coded,
                                cert.entropy_log_arg, cert.entropy_divisor)


@pytest.mark.parametrize("name", ["fullshift:2", "goldenmean"])
def test_check_agrees_with_the_separate_rules_on_tampered_certificates(name):
    cert = build_certificate(_join_oracle_family(name), word_length_max=3)
    assert all(_assert_rules_agree(cert).values())
    rng = random.Random(19)
    seen = set()
    for _ in range(150):
        checks = _assert_rules_agree(_tampered(cert, rng))
        seen.add((checks["semiconjugacy"], checks["separated_counts"]))
    assert seen == {(a, b) for a in (True, False) for b in (True, False)}


def test_check_agrees_with_the_separate_rules_on_a_net():
    """Coded points drawn from the figure-eight net (the identity on 120
    circle points), so that the net's closeness test decides the
    separation.  Every other draw spreads the words of each length around
    the circle, with gaps on both sides of 2 epsilon = 24/120."""
    fam = _join_oracle_family("figure-eight")
    size = fam.system.n
    rng = random.Random(19)
    seen = set()
    for trial in range(40):
        coded = {w: rng.randrange(size) for w in loop_words(fam.k, 2)}
        if trial % 2:
            for length in (1, 2):
                words = [w for w in coded if len(w) == length]
                start = rng.randrange(size)
                for j, w in enumerate(words):
                    coded[w] = (start + j * size // len(words) + rng.randint(-4, 4)) % size
        checks = _assert_rules_agree(HorseshoeCertificate(fam, 2, coded, fam.k, fam.n))
        seen.add(checks["separated_counts"])
    assert seen == {True, False}


def test_doubled_loop_breaks_semiconjugacy_though_every_word_traces(sigma2):
    """Loop 1 replaced by itself twice and every word shadowed again: each
    coded point traces its word, but a word starting with 1 has its tail
    2n steps on, not n, so only the family check tells the tail apart."""
    fam = two_loop_family(sigma2)
    doubled = LoopFamily(sigma2, fam.base, (fam.loops[0], repeat(fam.loops[1], 2)),
                         fam.delta, fam.epsilon, fam.witnesses)
    cert = HorseshoeCertificate(doubled, 3, {}, fam.k, fam.n)
    for word in loop_words(fam.k, 3):
        cert.coded[word] = find_shadow(sigma2, cert.word_points(word), fam.epsilon).shadow_point
    assert _assert_rules_agree(cert) == {
        "family": False, "tracing": True, "semiconjugacy": False,
        "separated_counts": False, "entropy_bound": True}


# -- the piece coding against the per-word glue ------------------------------------


def _points(draw, alphabet):
    """A list of 1 to 5 symbolic points: mostly consecutive shifts of one
    drawn point, so that their windows glue, with some drawn afresh, so
    that windows conflict."""
    word = draw(st.lists(st.integers(0, alphabet - 1), max_size=10))
    period = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=3))
    p = SymbolicPoint(period, word, draw(st.integers(-6, 6)))
    pts = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 4)) == 0:
            p = SymbolicPoint(draw(st.lists(st.integers(0, alphabet - 1), min_size=1,
                                            max_size=3)), (), draw(st.integers(-3, 3)))
        pts.append(p)
        p = p.shift(1)
    return pts


@st.composite
def _loose_families(draw):
    """(family, rho): one to three point lists of unequal lengths taken as
    loops at the first one's start, unvalidated, so loops leave the base,
    windows conflict and a loop may have no step, at eps = 2^-(rho + 1)."""
    name = draw(st.sampled_from(["fullshift:2", "fullshift:3", "goldenmean"]))
    system = _named_system(name)
    rho = draw(st.integers(0, 3))
    loops = tuple(PseudoOrbit(system, tuple(_points(draw, system.alphabet_size)), F(1), "loop")
                  for _ in range(draw(st.integers(1, 3))))
    return LoopFamily(system, loops[0].start, loops, F(1), F(1, 2 ** (rho + 1)), ()), rho


@settings(max_examples=300, deadline=None)
@given(_loose_families())
def test_piece_coding_equals_the_per_word_glue(family_rho):
    """A word's joined piece glue is ``glue_constraints`` of its points: the
    shadow is the closure of that glue, whose bytes on the full window are
    the glue itself (None exactly when the glue or its closure is None), and
    a point traces the word iff it does so point by point."""
    fam, rho = family_rho
    system = fam.system
    cert = HorseshoeCertificate(fam, 3, {}, fam.k, 1)
    shadow, traces, witnessed = cert._coding()
    assert witnessed == all(lp.step_count for lp in fam.loops)
    probes = [pt for lp in fam.loops for pt in lp.points]
    for word in loop_words(fam.k, 3):
        pts = cert.word_points(word)
        glued = glue_constraints(pts, rho)
        z = shadow(word)
        if glued is None:
            assert z is None
        else:
            assert z == system.periodic_closure(glued, anchor=-rho)
            assert z is None or z._symbols(-rho, len(glued)) == glued
        assert z == system.shadow(pts, fam.epsilon)
        if z is not None:
            probes.append(z)
        for p in probes[-6:]:
            assert traces(p, word) == system.traces(p, pts, fam.epsilon)


def test_certificate_glues_each_piece_once(monkeypatch):
    """On the benchmark's repeated goldenmean 0* (1/9, 1/64) --words 4
    family, building and checking each glue at most k^2 + k pieces, and a
    valid certificate makes no point comparison to count separated words."""
    gm = SymbolicSystem.golden_mean()
    fam = find_loop_family(gm.point((0,)), F(1, 9), F(1, 64), 64, 2, gm)
    glue, closeness = systems.glue_constraints, SymbolicSystem.closeness
    glued, compared = [], []
    monkeypatch.setattr(systems, "glue_constraints",
                        lambda pts, rho: glued.append(len(pts)) or glue(pts, rho))

    def counting_closeness(self, eps):
        close = closeness(self, eps)
        return lambda a, b: compared.append(eps) or close(a, b)

    monkeypatch.setattr(SymbolicSystem, "closeness", counting_closeness)
    cert = build_certificate(fam, word_length_max=4)
    assert len(cert.coded) == 30 and len(glued) <= fam.k ** 2 + fam.k
    glued.clear()
    assert cert.check()["ok"]
    assert len(glued) <= fam.k ** 2 + fam.k
    assert compared == []


def test_nonminimal_recipe_inapplicable_on_singleton():
    size = 36

    def step(i):
        if i in (0, 18):
            return i
        return i + 1 if i < 18 else i - 1

    net = circle_net(size, lambda i: step(i) % size)
    with pytest.raises(RecipeInapplicable):
        nonminimal_recipe(0, [0], F(1, 400), net, class_nodes=[0])


def test_sensitive_recipe_full_shift(sigma2):
    x = sigma2.fixed_point(0)
    # depth-3 cylinder around x: points agreeing with x on |j| <= 3
    hood = [x]
    for w in sigma2.words(3):
        q = sigma2.periodic_closure((0, 0, 0, 0, 0, 0, 0) + w, anchor=-3)
        if q is not None and q != x:
            hood.append(q)
    fam = sensitive_recipe(x, hood, constant=F(1, 2), system=sigma2,
                           delta=F(1, 8))
    assert fam.k == 2
    assert fam.epsilon < F(1, 8)
    assert fam.reverify()


def test_sensitive_recipe_inapplicable_on_cycle():
    net = circle_net(8, lambda i: (i + 1) % 8, invertible=True)
    with pytest.raises(RecipeInapplicable):
        sensitive_recipe(0, [0, 1], constant=F(1, 2), system=net, delta=F(1, 4))


def test_sensitive_recipe_budget_error(sigma2):
    from shadowdyn.systems import BudgetExceeded

    x = sigma2.fixed_point(0)
    q = sigma2.point((0, 0, 0, 0, 0, 0, 1))
    with pytest.raises(BudgetExceeded):
        sensitive_recipe(x, [x, q], constant=F(1, 2), system=sigma2,
                         delta=F(1, 4), return_budget=3)


# -- the search against the eager rule it replaced ----------------------------------


def _perfbench_jobs():
    """The benchmark's job templates (plain data, no library imports)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


JOBS = _perfbench_jobs()
SEARCH_N_MAX = 64  # the CLI default the benchmark's horseshoe jobs run at


def _fraction_witness(system, a, b, threshold):
    """First index of two equal-length loops with a Fraction distance above
    the threshold, and that distance."""
    for i, (p, q) in enumerate(zip(a.points, b.points)):
        d = system.distance(p, q)
        if d > threshold:
            return i, d
    return None


def _eager_search(system, candidates, eps, n_max, k, tested):
    """The search as first written, on the candidates validated and sorted
    by step count: take the first for k = 1, else grow a greedy subfamily
    whose every pair is tested again on each trial.  Returns (equalized
    loops, witnesses as (a, b, index, distance)) or None, and appends each
    tested pair with its Fraction witness to ``tested``."""
    if not candidates:
        return None
    if k == 1:
        return (candidates[0],), ()
    chosen = []
    for cand in candidates:
        eq = equalize(chosen + [cand])
        if eq[0].step_count > n_max:
            continue
        pairs = list(itertools.combinations(range(len(eq)), 2))
        found = [_fraction_witness(system, eq[i], eq[j], 4 * eps) for i, j in pairs]
        tested.extend((eq[i], eq[j], w) for (i, j), w in zip(pairs, found))
        if all(w is not None for w in found):
            chosen.append(cand)
            if len(chosen) == k:
                return tuple(eq), tuple((i, j, *w) for (i, j), w in zip(pairs, found))
    return None


def _assert_search_matches_eager_rule(system, x, eps, delta, n_max):
    """find_loop_family against the eager rule for k = 1, 2, 3, and
    separation_witness against the Fraction rule on every pair the eager
    rule tested.  Returns the k that found a family."""
    eps, delta = F(eps), F(delta)
    candidates = sorted((validate(pts, delta, system)
                         for pts in system.loop_candidates(x, delta, n_max)
                         if len(pts) - 1 <= n_max), key=lambda lp: lp.step_count)
    tested = []
    found = set()
    for k in (1, 2, 3):
        expected = _eager_search(system, candidates, eps, n_max, k, tested)
        fam = find_loop_family(x, eps, delta, n_max, k, system)
        if expected is None:
            assert fam is None
            continue
        loops, witnesses = expected
        assert fam.k == k and fam.reverify()
        assert [lp.points for lp in fam.loops] == [lp.points for lp in loops]
        assert [(w.loop_a, w.loop_b, w.index, w.distance) for w in fam.witnesses] \
            == list(witnesses)
        assert (fam.n, fam.delta, fam.epsilon) == (loops[0].step_count, delta, eps)
        found.add(k)
    for a, b, w in tested:
        assert separation_witness(system, a, b, 4 * eps) == w
    return found


@pytest.mark.parametrize("ed", [JOBS.ED_COARSE, JOBS.ED_FINE], ids=["coarse", "fine"])
@pytest.mark.parametrize("cls", sorted(JOBS.BASES))
def test_search_matches_eager_rule_on_benchmark_bases(cls, ed):
    name, periods = JOBS.BASES[cls]
    system = _named_system(name)
    for period in periods:
        _assert_search_matches_eager_rule(system, system.point(tuple(period)), *ed,
                                          SEARCH_N_MAX)


def test_search_matches_eager_rule_on_nets():
    """On fig1, the figure-eight, the contracting net, and an identity net on
    a segment whose tip at 5/40 has a twin at 9/80: the loops to the two tips
    are at most 1/80 apart at every index, so the third loop must be tested
    against the second one kept, not only the first."""
    from shadowdyn.builders import fig1_circle
    from shadowdyn.systems import NetSystem

    assert _assert_search_matches_eager_rule(fig1_circle(120), 0, "1/40", "1/40", 30) \
        == {1, 2, 3}
    figure_eight = circle_net(120, lambda i: i, invertible=True)
    assert _assert_search_matches_eager_rule(figure_eight, 60, "1/40", "1/120", 30) \
        == {1, 2, 3}

    def step(i):
        return i if i in (0, 18) else i - 1 if i > 18 else i + 1

    contracting = circle_net(36, lambda i: step(i) % 36)
    assert _assert_search_matches_eager_rule(contracting, 0, "1/10", "1/200", 10) == {1}

    tips = [F(p, 40) for p in (0, 1, 2, 3, 4, F(9, 2), 5, -1, -2, -3, -4, -5)]
    segment = NetSystem(tips, [[abs(a - b) for b in tips] for a in tips], range(len(tips)),
                        resolution=F(1, 80))
    assert _assert_search_matches_eager_rule(segment, 0, "1/40", "1/40", 12) == {1, 2, 3}
