import copy
import itertools
import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowdyn import cli
from shadowdyn import io as sio
from shadowdyn.approx import orbit_measure
from shadowdyn.builders import dense_shadowable_example, fig1_circle
from shadowdyn.finitize import CylinderNet
from shadowdyn.horseshoe import (
    HorseshoeCertificate,
    LoopFamily,
    build_certificate,
    find_loop_family,
    loop_words,
    make_family,
)
from shadowdyn.measures import EmpiricalMeasure
from shadowdyn.pseudo_orbits import PseudoOrbit, concatenate, connect, validate
from shadowdyn.shadow_search import shadows
from shadowdyn.systems import NetSystem, SymbolicPoint, SymbolicSystem, circle_arcs, circle_net

F = Fraction


def test_fraction_codec():
    assert sio.frac_str(F(3, 4)) == "3/4"
    assert sio.frac_str(F(5)) == "5"
    assert sio.parse_frac("3/4") == F(3, 4)
    assert sio.parse_frac(7) == F(7)


def test_symbolic_system_roundtrip():
    gm = SymbolicSystem.golden_mean()
    doc = sio.system_to_json(gm)
    back = sio.system_from_json(doc)
    assert back.alphabet_size == 2
    assert back.transitions == gm.transitions


def test_net_system_roundtrip():
    net = circle_net(12, lambda i: (i + 1) % 12, invertible=True)
    doc = sio.system_to_json(net)
    back = sio.system_from_json(doc)
    assert back.n == 12 and back.invertible
    for i in range(12):
        for j in range(12):
            assert back.distance(i, j) == net.distance(i, j)
    assert back.map == net.map


def test_schema_rejected():
    with pytest.raises(sio.SchemaError):
        sio.system_from_json({"kind": "net"})
    with pytest.raises(sio.SchemaError):
        sio.orbit_from_json({"schema": "bogus"}, SymbolicSystem.full_shift(2))


def test_orbit_document_not_a_dict_rejected():
    with pytest.raises(sio.SchemaError):
        sio.orbit_from_json([1], SymbolicSystem.full_shift(2))


def test_orbit_document_points_not_a_list_rejected():
    doc = {"schema": sio.SCHEMA_ORBIT, "points": 5, "delta": "1/4"}
    with pytest.raises(sio.SchemaError):
        sio.orbit_from_json(doc, SymbolicSystem.full_shift(2))


def test_orbit_document_without_points_rejected():
    doc = {"schema": sio.SCHEMA_ORBIT, "delta": "1/4"}
    with pytest.raises(sio.SchemaError):
        sio.orbit_from_json(doc, SymbolicSystem.full_shift(2))


def test_orbit_document_without_delta_rejected():
    sigma2 = SymbolicSystem.full_shift(2)
    doc = sio.orbit_to_json(validate([sigma2.fixed_point(0)] * 2, F(1, 4), sigma2))
    del doc["delta"]
    with pytest.raises(sio.SchemaError):
        sio.orbit_from_json(doc, sigma2)


def test_orbit_roundtrip():
    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.fixed_point(0)
    q = sigma2.point((0,), word=(1,), offset=3)
    po = validate([x, q], F(1, 4), sigma2)
    doc = sio.orbit_to_json(po)
    back = sio.orbit_from_json(doc, sigma2)
    assert back.points == po.points
    assert back.delta == po.delta


def test_measure_roundtrip():
    sigma2 = SymbolicSystem.full_shift(2)
    mu = EmpiricalMeasure.from_orbit(sigma2, sigma2.point((0, 1)), 3)
    doc = sio.measure_to_json(mu)
    back = sio.measure_from_json(doc, sigma2)
    assert back == mu


@pytest.fixture(scope="module")
def certificate():
    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.fixed_point(0)
    q = sigma2.point((0,), word=(1,), offset=0)
    delta, eps = F(1, 32), F(1, 5)
    excursion = concatenate(connect(x, q, delta, sigma2),
                            connect(q, x, delta, sigma2))
    dwell = validate([x] * (excursion.step_count + 1), delta, sigma2)
    fam = make_family(sigma2, x, [dwell, excursion], eps, delta)
    return sigma2, build_certificate(fam, word_length_max=3)


def test_certificate_roundtrip_and_verify(certificate):
    sigma2, cert = certificate
    doc = sio.certificate_to_json(cert)
    report = sio.verify_certificate(doc, sigma2)
    assert report["ok"], report
    back = sio.certificate_from_json(doc, sigma2)
    assert back.family.k == 2
    assert back.entropy_divisor == cert.entropy_divisor


def _tape_documents(certificate):
    """name -> (document, its symbolic points with their point documents in
    order, the loader's read-back, the written value)."""
    sigma2, cert = certificate
    p = sigma2.point((0, 1, 1), word=(1, 0, 0, 1), offset=-2)
    periodic = sigma2.point((0, 0, 1, 0, 1))
    mu = EmpiricalMeasure.mix([orbit_measure(sigma2, periodic),
                               EmpiricalMeasure.from_orbit(sigma2, p, 9)], [F(1, 3), F(2, 3)])
    po = validate([p, p.shift(1), p.shift(2), p.shift(3), periodic.shift(-1)], F(1, 2), sigma2)
    fam = cert.family
    cert_points = [fam.base, *(q for lp in fam.loops for q in lp.points),
                   *(cert.coded[w] for w in sorted(cert.coded))]
    docs = {}
    doc = sio.measure_to_json(mu)
    docs["measure"] = (doc, [(q, a[0]) for (q, _), a in zip(mu.atoms, doc["atoms"])],
                       sio.measure_from_json(doc, sigma2), mu)
    doc = sio.orbit_to_json(po)
    docs["orbit"] = (doc, list(zip(po.points, doc["points"])),
                     sio.orbit_from_json(doc, sigma2), po)
    doc = sio.certificate_to_json(cert)
    doc_points = [doc["base"], *(d for lp in doc["loops"] for d in lp),
                  *(e["shadow"] for e in doc["coded"])]
    back = sio.certificate_from_json(doc, sigma2)
    docs["certificate"] = (doc, list(zip(cert_points, doc_points)), back, cert)
    return docs


@pytest.mark.parametrize("name", ["measure", "orbit", "certificate"])
def test_points_of_one_tape_share_their_lists(certificate, name):
    """The points of one symbol tape hold one 'period' and one 'word' list;
    the document reads as its deep copy does and loads back to equal
    objects."""
    doc, points, back, written = _tape_documents(certificate)[name]
    first = {}
    for q, d in points:
        assert d == {"offset": q.offset, "word": list(q.word), "period": list(q.period)}
        f = first.setdefault(id(q._tape), d)
        assert d["period"] is f["period"] and d["word"] is f["word"]
    assert len(first) < len(points)
    assert json.dumps(doc, sort_keys=True) == json.dumps(copy.deepcopy(doc), sort_keys=True)
    assert back == written


def test_certificate_hash_tamper_detected(certificate):
    sigma2, cert = certificate
    doc = sio.certificate_to_json(cert)
    doc["epsilon"] = "1/7"
    with pytest.raises(sio.SchemaError):
        sio.certificate_from_json(doc, sigma2)


def test_certificate_corrupt_point_fails_with_word(certificate):
    sigma2, cert = certificate
    doc = sio.certificate_to_json(cert)
    # adversarial edit: perturb one coded point and refresh the hash
    doc["coded"][5]["shadow"] = {"period": [1], "word": [], "offset": 0}
    body = {k: v for k, v in doc.items() if k != "sha256"}
    doc["sha256"] = sio._payload_hash(body)
    report = sio.verify_certificate(doc, sigma2)
    assert not report["ok"]
    assert not report["checks"]["tracing"]
    assert doc["coded"][5]["word"] in report["details"]["tracing_failures"]


def test_dump_load_roundtrip(tmp_path, certificate):
    sigma2, cert = certificate
    path = tmp_path / "cert.json"
    cli._emit(sio.certificate_to_json(cert), str(path))
    doc = sio.load(str(path))
    assert sio.verify_certificate(doc, sigma2)["ok"]


def test_certificate_missing_words_fail_tracing(certificate):
    sigma2, cert = certificate
    doc = sio.certificate_to_json(cert)
    assert sio.verify_certificate(doc, sigma2)["details"] == {}
    # adversarial edit: claim words up to length 8 but keep the two of length 1
    doc["word_length_max"] = 8
    doc["coded"] = [e for e in doc["coded"] if len(e["word"]) == 1]
    body = {k: v for k, v in doc.items() if k != "sha256"}
    doc["sha256"] = sio._payload_hash(body)
    report = sio.verify_certificate(doc, sigma2)
    assert not report["ok"]
    assert not report["checks"]["tracing"]
    assert report["details"]["missing_words"] == [
        [0, 0], [0, 1], [1, 0], [1, 1], [0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]]


def test_certificate_word_length_max_must_be_an_integer(certificate):
    sigma2, cert = certificate
    doc = sio.certificate_to_json(cert)
    doc["word_length_max"] = "3"
    body = {k: v for k, v in doc.items() if k != "sha256"}
    doc["sha256"] = sio._payload_hash(body)
    with pytest.raises(sio.SchemaError):
        sio.certificate_from_json(doc, sigma2)


# -- verify reports on tampered certificates -------------------------------------

# Each edit changes one part of a certificate document; the hash is refreshed
# afterwards, so only the certificate check can catch it.


def _swap_shadow(doc):
    a, b = doc["coded"][2], doc["coded"][3]
    a["shadow"], b["shadow"] = b["shadow"], a["shadow"]


def _drop_long_words(doc):
    doc["coded"] = [e for e in doc["coded"] if len(e["word"]) == 1]


def _raise_word_length_max(doc):
    doc["word_length_max"] += 2


def _change_divisor(doc):
    doc["entropy"]["divisor"] += 1


def _change_witness_distance(doc):
    w = doc["witnesses"][0]
    w["distance"] = sio.frac_str(sio.parse_frac(w["distance"]) + F(1, 1000))


def _reverse_length_3_words(doc):
    for e in doc["coded"]:
        if len(e["word"]) == 3:
            e["word"].reverse()


def _rotate_loop_1(doc):
    # still a delta-loop, but one that starts off the base
    loop = doc["loops"][1]
    doc["loops"][1] = loop[1:] + loop[1:2]


def _shift_loop_1_point_7(doc):
    # point 7 becomes its own image, so step 6 skips one iterate of the map
    doc["loops"][1][7]["offset"] -= 1


def _cut_loop_0(doc):
    # a one-point loop has no step
    doc["loops"][0] = doc["loops"][0][:1]


def _traverse_loop_0_twice(doc):
    # still a delta-loop at the base, with twice the steps of loop 1
    loop = doc["loops"][0]
    doc["loops"][0] = loop[:-1] * 2 + loop[-1:]


def _swap_witness_loops(doc):
    w = doc["witnesses"][0]
    w["a"], w["b"] = w["b"], w["a"]


def _witness_past_loop_1(doc):
    # inside the longer loop, as the loader requires, but past loop 1's end
    _traverse_loop_0_twice(doc)
    doc["witnesses"][0]["index"] = len(doc["loops"][1])


ALL_TRUE = dict.fromkeys(("entropy_bound", "family", "semiconjugacy",
                          "separated_counts", "tracing"), True)

WITNESS_0_FAULT = {"witness_faults": [{"witness": 0}, {"pair": [0, 1]}]}
LOOP_1_TRACING = {"tracing_failures": [[0, 0, 1], [0, 1], [0, 1, 0], [0, 1, 1], [1], [1, 0],
                                       [1, 0, 0], [1, 0, 1], [1, 1], [1, 1, 0], [1, 1, 1]]}
TWICE_TRACING = {"tracing_failures": [[0, 0, 1], [0, 1], [0, 1, 0], [0, 1, 1], [1, 0],
                                      [1, 0, 0], [1, 0, 1], [1, 1, 0]]}

# edit -> (the checks that fail, details), the same on both systems unless
# the details are keyed by system
TAMPER_REPORTS = {
    "none": (lambda doc: None, (), {}),
    "swap_shadow": (_swap_shadow, ("semiconjugacy", "tracing"),
                    {"tracing_failures": [[0, 0, 0], [0, 0, 1]]}),
    "drop_long_words": (_drop_long_words, ("tracing",),
                        {"missing_words": [[0, 0], [0, 1], [1, 0], [1, 1], [0, 0, 0],
                                           [0, 0, 1], [0, 1, 0], [0, 1, 1]]}),
    "raise_word_length_max": (_raise_word_length_max, ("tracing",),
                              {"missing_words": [[0, 0, 0, 0], [0, 0, 0, 1],
                                                 [0, 0, 1, 0], [0, 0, 1, 1],
                                                 [0, 1, 0, 0], [0, 1, 0, 1],
                                                 [0, 1, 1, 0], [0, 1, 1, 1]]}),
    "change_divisor": (_change_divisor, ("entropy_bound",), {}),
    "change_witness_distance": (_change_witness_distance, ("family",), WITNESS_0_FAULT),
    "reverse_length_3_words": (_reverse_length_3_words,
                               ("semiconjugacy", "separated_counts", "tracing"),
                               {"tracing_failures": [[0, 0, 1], [0, 1, 1],
                                                     [1, 0, 0], [1, 1, 0]]}),
    "rotate_loop_1": (_rotate_loop_1, ("family", "semiconjugacy", "tracing"), {
        "fullshift:2": {"loop_faults": [{"loop": 1, "point": 0}, {"loop": 1, "point": 21}],
                        **LOOP_1_TRACING},
        "goldenmean": {"loop_faults": [{"loop": 1, "point": 0}, {"loop": 1, "point": 26}],
                       **WITNESS_0_FAULT, **LOOP_1_TRACING}}),
    "shift_loop_1_point_7": (_shift_loop_1_point_7, ("family", "semiconjugacy", "tracing"), {
        "fullshift:2": {"loop_faults": [{"loop": 1, "step": 6}], **LOOP_1_TRACING},
        "goldenmean": {"loop_faults": [{"loop": 1, "step": 6}], **WITNESS_0_FAULT,
                       **LOOP_1_TRACING}}),
    "cut_loop_0": (_cut_loop_0, ("entropy_bound", "family", "semiconjugacy",
                                 "separated_counts", "tracing"),
                   {"loop_faults": [{"loop": 0, "steps": 0}], **WITNESS_0_FAULT,
                    "tracing_failures": [[0, 0, 1], [0, 1], [0, 1, 0], [0, 1, 1],
                                         [1, 0, 1]]}),
    "traverse_loop_0_twice": (_traverse_loop_0_twice, ("entropy_bound", "family",
                                                       "semiconjugacy", "separated_counts",
                                                       "tracing"), {
        "fullshift:2": {"loop_faults": [{"loop": 1, "steps": 21}], **TWICE_TRACING},
        "goldenmean": {"loop_faults": [{"loop": 1, "steps": 26}], **TWICE_TRACING}}),
    "swap_witness_loops": (_swap_witness_loops, ("family",), WITNESS_0_FAULT),
    "witness_past_loop_1": (_witness_past_loop_1, ("entropy_bound", "family", "semiconjugacy",
                                                   "separated_counts", "tracing"), {
        "fullshift:2": {"loop_faults": [{"loop": 1, "steps": 21}], **WITNESS_0_FAULT,
                        **TWICE_TRACING},
        "goldenmean": {"loop_faults": [{"loop": 1, "steps": 26}], **WITNESS_0_FAULT,
                       **TWICE_TRACING}}),
}

TAMPER_SYSTEMS = {"fullshift:2": (SymbolicSystem.full_shift(2), F(1, 5), F(1, 32)),
                  "goldenmean": (SymbolicSystem.golden_mean(), F(1, 9), F(1, 64))}


@pytest.fixture(scope="module")
def words3_documents():
    """The certificate documents ``horseshoe --base '{"period": [0]}'
    --words 3`` emits on each system."""
    docs = {}
    for name, (system, eps, delta) in TAMPER_SYSTEMS.items():
        fam = find_loop_family(system.point((0,)), eps, delta, 64, 2, system)
        docs[name] = sio.certificate_to_json(build_certificate(fam, word_length_max=3))
    return docs


@pytest.mark.parametrize("edit", TAMPER_REPORTS)
@pytest.mark.parametrize("name", TAMPER_SYSTEMS)
def test_verify_report_on_tampered_certificate(words3_documents, name, edit):
    apply, failing, details = TAMPER_REPORTS[edit]
    doc = copy.deepcopy(words3_documents[name])
    apply(doc)
    doc["sha256"] = sio._payload_hash({k: v for k, v in doc.items() if k != "sha256"})
    checks = dict(ALL_TRUE, **dict.fromkeys(failing, False))
    assert sio.verify_certificate(doc, TAMPER_SYSTEMS[name][0]) == {
        "ok": not failing, "checks": checks, "details": details.get(name, details)}


def _per_word_report(cert):
    """The certificate check with one trace of every word's own points and
    a point test of every pair of words of each length (the rule before
    junction pieces and witness-read separation), the family judged by the
    rule before its faults were listed, and each loop's step errors as
    Fractions."""
    fam = cert.family
    system, eps = fam.system, fam.epsilon
    loop_faults, step_faults = [], []
    counts = [len(lp.points) - 1 for lp in fam.loops if len(lp.points) > 1]
    for i, lp in enumerate(fam.loops):
        errors = [system.distance(system.step(p), q) for p, q in zip(lp.points, lp.points[1:])]
        above = [j for j, e in enumerate(errors) if e > fam.delta]
        fault = ({"loop": i, "steps": 0} if not errors
                 else {"loop": i, "step": above[0]} if above else None)
        if fault:
            step_faults.append(fault)
            loop_faults.append(fault)
        loop_faults += [{"loop": i, "point": p} for p in sorted({0, len(errors)})
                        if not lp.points[p] == fam.base]
        if errors and len(errors) != counts[0]:
            loop_faults.append({"loop": i, "steps": len(errors)})
    witness_faults, covered = [], set()
    for n, w in enumerate(fam.witnesses):
        pa, pb = fam.loops[w.loop_a].points, fam.loops[w.loop_b].points
        if (w.loop_a < w.loop_b and w.index < min(len(pa), len(pb))
                and w.distance == system.distance(pa[w.index], pb[w.index]) > 4 * eps):
            covered.add((w.loop_a, w.loop_b))
        else:
            witness_faults.append({"witness": n})
    witness_faults += [{"pair": list(pair)} for pair in itertools.combinations(range(fam.k), 2)
                       if pair not in covered]

    def family_rule():
        if step_faults:
            return False
        if any(lp.kind != "loop" or not lp.start == lp.end == fam.base for lp in fam.loops):
            return False
        if len({lp.step_count for lp in fam.loops}) != 1:
            return False
        seen = set()
        for w in fam.witnesses:
            d = system.distance(fam.loops[w.loop_a].points[w.index],
                                fam.loops[w.loop_b].points[w.index])
            if not (d > 4 * eps and d == w.distance):
                return False
            seen.add((w.loop_a, w.loop_b))
        return seen == {(i, j) for i in range(fam.k) for j in range(i + 1, fam.k)}

    words = sorted(cert.coded)
    untraced = [w for w in words
                if shadows(system, cert.coded[w], cert.word_points(w), eps) is None]
    missing = [list(w) for w in itertools.islice(
        (w for w in loop_words(fam.k, cert.word_length_max) if w not in cert.coded), 8)]
    family = family_rule()
    assert family == (not loop_faults and not witness_faults)

    def separated(length):
        close = system.closeness(2 * eps)
        index = {}
        for w in fam.witnesses:
            index.setdefault((min(w.loop_a, w.loop_b), max(w.loop_a, w.loop_b)), w.index)
        same = [w for w in cert.coded if len(w) == length]
        for wa, wb in itertools.combinations(same, 2):
            s = next(i for i in range(length) if wa[i] != wb[i])
            i = index.get((min(wa[s], wb[s]), max(wa[s], wb[s])))
            if i is None or close(system.iterate(cert.coded[wa], s * fam.n + i),
                                  system.iterate(cert.coded[wb], s * fam.n + i)):
                return -1
        return len(same)

    checks = {
        "family": family,
        "tracing": not untraced and not missing,
        "semiconjugacy": all(
            shadows(system, system.iterate(cert.coded[w], fam.n),
                    cert.word_points(w[1:]), eps) is not None
            for w in (untraced if family else words) if len(w) > 1),
        "separated_counts": all(separated(length) == fam.k ** length
                                for length in sorted({len(w) for w in cert.coded})),
        "entropy_bound": (cert.entropy_log_arg, cert.entropy_divisor) == (fam.k, fam.n),
    }
    details = {}
    if loop_faults:
        details["loop_faults"] = loop_faults
    if witness_faults:
        details["witness_faults"] = witness_faults
    if untraced:
        details["tracing_failures"] = [list(w) for w in untraced]
    if missing:
        details["missing_words"] = missing
    return {"ok": all(checks.values()), "checks": checks, "details": details}


def _flip(p, j):
    """The binary point p with the symbol at coordinate j flipped."""
    m = len(p.period)
    lo = p.offset - m * (1 + max(0, p.offset - j) // m)
    hi = p.offset + len(p.word) + m * (1 + max(0, j - p.offset - len(p.word)) // m)
    word = list(p.window(lo, hi - 1))
    word[j - lo] ^= 1
    return SymbolicPoint(p.period, word, lo)


def _one_symbol_edits(cert, system, rng):
    """A copy of the certificate with one to three admissible one-symbol
    edits of coded points (anywhere on their word's window) or of loop
    points (near coordinate 0, first and last points included)."""
    fam = cert.family
    coded = dict(cert.coded)
    loops = [list(lp.points) for lp in fam.loops]
    for _ in range(rng.randint(1, 3)):
        if rng.randrange(2):
            w = rng.choice(sorted(coded))
            q = _flip(coded[w], rng.randint(-4, len(w) * fam.n + 4))
            if system.admissible(q):
                coded[w] = q
        else:
            pts = rng.choice(loops)
            i = rng.randrange(len(pts))
            q = _flip(pts[i], rng.randint(-4, 4))
            if system.admissible(q):
                pts[i] = q
    family = LoopFamily(system, fam.base,
                        tuple(PseudoOrbit(system, tuple(pts), fam.delta, "loop") for pts in loops),
                        fam.delta, fam.epsilon, fam.witnesses)
    return HorseshoeCertificate(family, cert.word_length_max, coded,
                                cert.entropy_log_arg, cert.entropy_divisor)


@pytest.mark.parametrize("name", TAMPER_SYSTEMS)
def test_check_equals_the_per_word_report(words3_documents, name):
    """On every tampered document and on random one-symbol edits of coded
    and loop points, the report is the one the per-word rule gives."""
    system = TAMPER_SYSTEMS[name][0]
    for apply, _, _ in TAMPER_REPORTS.values():
        doc = copy.deepcopy(words3_documents[name])
        apply(doc)
        doc["sha256"] = sio._payload_hash({k: v for k, v in doc.items() if k != "sha256"})
        cert = sio.certificate_from_json(doc, system)
        assert cert.check() == _per_word_report(cert)
    cert = sio.certificate_from_json(words3_documents[name], system)
    rng = random.Random(28)
    seen = set()
    for _ in range(120):
        edited = _one_symbol_edits(cert, system, rng)
        report = edited.check()
        assert report == _per_word_report(edited)
        seen.add(tuple(report["checks"].values()))
    assert len(seen) > 3


# -- the rational grammar --------------------------------------------------------

# The grammar of an exact rational in a document, written out independently of
# the loader: an optional minus, decimal digits, and an optional slash with a
# nonzero denominator of decimal digits.
GRAMMAR = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,6})?", fullmatch=True),
    st.text(alphabet="0123456789-+/._ eE\n٣²", max_size=8),
    st.text(max_size=6),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none()))
def test_parse_frac_matches_fraction_on_the_grammar(s):
    if type(s) is int or type(s) is str and GRAMMAR.fullmatch(s):
        assert sio.parse_frac(s) == Fraction(s)
        assert Fraction(*sio._ratio(s)) == Fraction(s)
    else:
        with pytest.raises(sio.SchemaError):
            sio.parse_frac(s)


@pytest.mark.parametrize("s", [
    # forms Fraction accepts that the library never writes
    "0.5", "1e-3", " 1/2", "1/2 ", "+1/2", "1_000", "٣", "3/4\n",
    # forms a naive split at the slash would accept
    "1 / 2", "1/-2", "1/+2", "1/0", "1/00", "/2", "1/", "--1", "1//2",
])
def test_parse_frac_rejects_forms_off_the_grammar(s):
    with pytest.raises(sio.SchemaError):
        sio.parse_frac(s)


@pytest.mark.parametrize("value", [0.5, 1.0, True, False])
def test_no_float_or_bool_enters_a_claim(value, table_document):
    # a float or a JSON boolean is no exact rational, even where it equals one
    with pytest.raises(sio.SchemaError):
        sio.parse_frac(value)
    net_doc = table_document(circle_net(4, lambda i: i))
    net_doc["metric"][0][2] = net_doc["metric"][2][0] = value
    with pytest.raises(sio.SchemaError):
        sio.system_from_json(net_doc)
    net_doc = table_document(circle_net(4, lambda i: i))
    net_doc["resolution"] = value
    with pytest.raises(sio.SchemaError):
        sio.system_from_json(net_doc)
    for key, edit in (("size", lambda d: value), ("map", lambda d: [value, *d["map"][1:]])):
        circle_doc = sio.system_to_json(circle_net(4, lambda i: i))
        circle_doc[key] = edit(circle_doc)
        with pytest.raises(sio.SchemaError):
            sio.system_from_json(circle_doc)
    sigma2 = SymbolicSystem.full_shift(2)
    orbit_doc = sio.orbit_to_json(validate([sigma2.fixed_point(0)] * 2, F(1, 4), sigma2))
    orbit_doc["delta"] = value
    with pytest.raises(sio.SchemaError):
        sio.orbit_from_json(orbit_doc, sigma2)
    measure_doc = {"schema": sio.SCHEMA_MEASURE,
                   "atoms": [[{"period": [0]}, value], [{"period": [1]}, "1/2"]]}
    with pytest.raises(sio.SchemaError):
        sio.measure_from_json(measure_doc, sigma2)
    for point_doc in ({"period": [0, value]}, {"period": [0], "word": [value]},
                      {"period": [0], "offset": value}):
        with pytest.raises(sio.SchemaError):
            sio.point_from_json(point_doc, sigma2)


# -- integer net documents ---------------------------------------------------------


def _wide_net():
    # numerators past 64 bits: the metric is held as Python ints
    points = [F(0), F(1, 3 ** 45), F(1, 2), F(2, 3), F(1)]
    return NetSystem(points, [[abs(a - b) for b in points] for a in points],
                     [1, 2, 3, 4, 0], resolution=F(1, 3 ** 46))


NETS = {
    "fig1-120": lambda: fig1_circle(120),
    "fig1-240": lambda: fig1_circle(240),
    "fig1-360": lambda: fig1_circle(360),
    "layered-12": lambda: dense_shadowable_example(12).net,
    "circle-12": lambda: circle_net(12, lambda i: (i + 1) % 12, invertible=True),
    "cylinder-goldenmean-3": lambda: CylinderNet(SymbolicSystem.golden_mean(), 3),
    "wide": _wide_net,
}


def _fraction_path_load(doc) -> NetSystem:
    """The net a document held when every entry went through Fraction."""
    parsed = {v: Fraction(v) for row in doc["metric"] for v in row}
    return NetSystem(doc["labels"], [[parsed[v] for v in row] for row in doc["metric"]],
                     doc["map"], resolution=Fraction(doc["resolution"]),
                     invertible=doc["invertible"])


@pytest.mark.parametrize("name", sorted(NETS))
def test_net_document_loads_as_the_fraction_path(name, table_document):
    net = NETS[name]()
    doc = json.loads(json.dumps(table_document(net)))
    got, want = sio.system_from_json(doc), _fraction_path_load(doc)
    assert got._imat.dtype == want._imat.dtype
    assert got._imat.tolist() == want._imat.tolist()
    assert got.denominator == want.denominator == net.denominator
    assert (got.resolution, got.map, got.labels, got.invertible) == \
        (want.resolution, want.map, want.labels, want.invertible)
    assert got.validate_metric() == want.validate_metric()


@pytest.mark.parametrize("name", ["fig1-120", "layered-12", "cylinder-goldenmean-3", "wide"])
def test_net_document_rows_render_each_distance(name, table_document):
    net = NETS[name]()
    rows = [[sio.frac_str(net.distance(i, j)) for j in range(net.n)] for i in range(net.n)]
    assert table_document(net)["metric"] == rows


@pytest.mark.parametrize("value", ["no", 0, None])
def test_net_invertible_flag_must_be_a_boolean(value, table_document):
    # "no" would otherwise mark the net invertible
    net = circle_net(4, lambda i: (i + 1) % 4)
    for doc in (sio.system_to_json(net), table_document(net)):
        doc["invertible"] = value
        with pytest.raises(sio.SchemaError):
            sio.system_from_json(doc)


def test_net_document_entries_over_one_denominator(table_document):
    # unreduced, integer and negative-zero entries load to the least denominator
    doc = table_document(circle_net(4, lambda i: i))
    doc["metric"] = [["-0/3", "2/8", "2/4", "1/4"], ["1/4", 0, "1/4", "1/2"],
                     ["1/2", "1/4", 0, "3/12"], ["1/4", "1/2", "1/4", "0"]]
    net = sio.system_from_json(doc)
    assert net.denominator == 4
    assert net._imat.tolist() == [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]


# -- circle net documents ------------------------------------------------------------


def _net_facts(net) -> tuple:
    return ([str(l) for l in net.labels], net.denominator, net.resolution, net.map,
            net.invertible, net._imat.tolist())


# (step map, invertible) per size n: the identity, a rotation, and an
# invertible reflection
CIRCLE_MAPS = [(lambda n: lambda i: i, False),
               (lambda n: lambda i: i + n // 3, False),
               (lambda n: lambda i: -i, True)]


def _circle_nets():
    for size in range(3, 201):
        for k, (step, invertible) in enumerate(CIRCLE_MAPS):
            yield size, k, circle_net(size, step(size), invertible)
    for size in (120, 240, 360):
        yield size, None, fig1_circle(size)


def test_circle_document_loads_to_the_built_net_and_the_table_load(table_document):
    for size, k, net in _circle_nets():
        doc = json.loads(json.dumps(sio.system_to_json(net)))
        assert doc == {"schema": sio.SCHEMA_SYSTEM, "kind": "circle", "size": size,
                       "map": list(net.map), "invertible": net.invertible}
        got = _net_facts(sio.system_from_json(doc))
        assert got == _net_facts(net)
        # one full table check per size: the map is carried verbatim by both forms
        if k is None or k == size % len(CIRCLE_MAPS):
            assert got == _net_facts(sio.system_from_json(table_document(net)))


def _off_circle_nets(size=12) -> dict:
    """Nets that differ from ``circle_net(size, ...)`` in one place."""
    labels = [F(i, size) for i in range(size)]
    arcs = circle_arcs(np.arange(size), size)
    step = [(i + 1) % size for i in range(size)]
    entry = arcs.copy()
    entry[0, 1] = 2

    def net(labels=labels, arcs=arcs, resolution=F(1, 2 * size)):
        return NetSystem(labels, arcs, step, resolution=resolution, metric_check=False,
                         denominator=size)

    return {"metric-entry": lambda: net(arcs=entry),
            "resolution": lambda: net(resolution=F(1, 4 * size)),
            "label": lambda: net(labels=[F(1, 5 * size), *labels[1:]])}


TABLE_NETS = {**_off_circle_nets(),
              **{name: NETS[name] for name in ("layered-12", "cylinder-goldenmean-3", "wide")}}


@pytest.mark.parametrize("name", sorted(TABLE_NETS))
def test_nets_other_than_circles_are_written_as_their_table(name, table_document):
    net = TABLE_NETS[name]()
    assert sio.system_to_json(net) == table_document(net)


@pytest.mark.parametrize("key", ["delta", "epsilon", "loops", "witnesses", "base", "coded"])
def test_certificate_without_a_key_is_a_schema_error(certificate, key):
    sigma2, cert = certificate
    doc = sio.certificate_to_json(cert)
    del doc[key]
    doc["sha256"] = sio._payload_hash({k: v for k, v in doc.items() if k != "sha256"})
    with pytest.raises(sio.SchemaError):
        sio.certificate_from_json(doc, sigma2)
