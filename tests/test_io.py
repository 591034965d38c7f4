import json
from fractions import Fraction

import pytest

from shadowdyn import io as sio
from shadowdyn.horseshoe import build_certificate, make_family
from shadowdyn.measures import EmpiricalMeasure
from shadowdyn.pseudo_orbits import concatenate, splice_chain, validate
from shadowdyn.systems import NetSystem, SymbolicSystem, circle_net

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
    excursion = concatenate(splice_chain(sigma2, x, q, delta),
                            splice_chain(sigma2, q, x, delta))
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
    sio.dump(str(path), sio.certificate_to_json(cert))
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
