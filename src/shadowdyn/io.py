"""JSON codecs and schema checks for systems, pseudo-orbits, measures and
certificates.

Every emitted number that is a claim (a distance, a bound, a weight) is an
exact rational rendered as "p/q", and is read back only as such a string or
a JSON integer; documents carry a schema tag and certificates a content
hash, both checked on load.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from typing import Union

import numpy as np

from .horseshoe import HorseshoeCertificate, LoopFamily, SeparationWitness
from .measures import EmpiricalMeasure
from .pseudo_orbits import LOOP, PseudoOrbit, validate
from .systems import NetSystem, SymbolicPoint, SymbolicSystem, circle_arcs, circle_net

SCHEMA_SYSTEM = "shadowdyn/system.v1"
SCHEMA_ORBIT = "shadowdyn/pseudo-orbit.v1"
SCHEMA_MEASURE = "shadowdyn/measure.v1"
SCHEMA_CERT = "shadowdyn/horseshoe-certificate.v1"


class SchemaError(ValueError):
    """Document does not carry the expected schema or hash."""


def frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(s) -> tuple:
    """(numerator, denominator) of a JSON integer or a string
    ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator; any other value
    (floats and booleans included) is a schema error."""
    if type(s) is int:
        return s, 1
    match = _RATIO.fullmatch(s) if type(s) is str else None
    q = int(match[2] or 1) if match else 0
    if q == 0:
        raise SchemaError(f"{s!r} is not an exact rational")
    return int(match[1]), q


def parse_frac(s) -> Fraction:
    return Fraction(*_ratio(s))


def point_to_json(p) -> Union[int, dict]:
    if isinstance(p, SymbolicPoint):
        return {"offset": p.offset, "word": list(p.word), "period": list(p.period)}
    return int(p)


def _is_int(v) -> bool:
    return type(v) is int


def point_from_json(doc, system):
    """A symbolic point from {"period", "word", "offset"} (integer lists and
    an integer), or a net point index; either must be a point of the system."""
    return _point_reader(system)(doc)


def _point_reader(system):
    """``point_from_json`` for the points of one document.  Each distinct
    (period, word) is built and admitted once; every other offset of it is
    a ``shift`` view that shares its tape, with no conversion and no scan."""
    admitted = {}

    def read(doc):
        if not isinstance(doc, dict):
            if not _is_int(doc):
                raise SchemaError(f"{doc!r} is neither a symbolic point nor a point index")
            return _admit(doc, system)
        period, word, offset = doc.get("period"), doc.get("word", []), doc.get("offset", 0)
        if not (isinstance(period, list) and isinstance(word, list) and _is_int(offset)
                and {*map(type, period), *map(type, word)} <= {int}):
            raise SchemaError("a symbolic point needs integer lists 'period' and "
                              "'word' and an integer 'offset'")
        key = (tuple(period), tuple(word))
        first = admitted.get(key)
        if first is None:
            first = admitted[key] = _admit(SymbolicPoint(period, word, offset), system)
        return first if first.offset == offset else first.shift(first.offset - offset)

    return read


def _admit(p, system):
    try:
        system.check_point(p)
    except ValueError as err:
        raise SchemaError(str(err)) from err
    return p


def system_to_json(system) -> dict:
    """A symbolic system's alphabet and transitions; a circle net (the table
    ``circle_net`` builds: D = N, labels i/N, resolution 1/(2N) and the arc
    metric) as its size and map; any other net as its table."""
    if isinstance(system, SymbolicSystem):
        return {"schema": SCHEMA_SYSTEM, "kind": "symbolic",
                "alphabet_size": system.alphabet_size,
                "transitions": [list(r) for r in system.transitions]}
    if _is_circle(system):
        return {"schema": SCHEMA_SYSTEM, "kind": "circle", "size": system.n,
                "map": list(system.map), "invertible": system.invertible}
    # one string per distinct numerator, spread over the matrix
    values, where = np.unique(system._imat, return_inverse=True)
    D = system.denominator
    strings = np.array([frac_str(Fraction(int(v), D)) for v in values], dtype=object)
    rows = strings[where.reshape(system.n, system.n)].tolist()
    return {"schema": SCHEMA_SYSTEM, "kind": "net",
            "labels": [str(l) for l in system.labels],
            "metric": rows,
            "map": list(system.map),
            "resolution": frac_str(system.resolution),
            "invertible": system.invertible}


def _is_circle(net: NetSystem) -> bool:
    """Whether the net's table is the one ``circle_net`` builds at its size."""
    n = net.n
    return (n >= 3 and net.denominator == n and net.resolution == Fraction(1, 2 * n)
            and [str(l) for l in net.labels] == [str(Fraction(i, n)) for i in range(n)]
            and np.array_equal(net._imat, circle_arcs(np.arange(n), n)))


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) for x in v)


def system_from_json(doc) -> Union[SymbolicSystem, NetSystem]:
    """The system a document holds.  A circle net is built by
    ``circle_net``, its metric known; a net table is checked in full."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_SYSTEM:
        raise SchemaError("not a system document")
    kind = doc.get("kind")
    if kind == "symbolic":
        size, transitions = doc.get("alphabet_size"), doc.get("transitions")
        if not (_is_int(size) and isinstance(transitions, list)
                and all(_is_int_list(row) and {*row} <= {0, 1} for row in transitions)):
            raise SchemaError("a symbolic system needs an integer 'alphabet_size' "
                              "and a 0/1 matrix 'transitions'")
        return SymbolicSystem(size, transitions)
    step_map, invertible = doc.get("map"), doc.get("invertible", False)
    if kind == "circle":
        size = doc.get("size")
        if not (_is_int(size) and size >= 3 and _is_int_list(step_map)
                and len(step_map) == size and all(0 <= i < size for i in step_map)
                and isinstance(invertible, bool)):
            raise SchemaError("a circle net needs an integer 'size' of at least 3, a "
                              "'map' of 'size' indices below it and a boolean 'invertible'")
        try:
            return circle_net(size, step_map.__getitem__, invertible)
        except ValueError as err:
            raise SchemaError(str(err)) from err
    if kind != "net":
        raise SchemaError(f"unknown system kind {kind!r}")
    labels, metric = doc.get("labels"), doc.get("metric")
    if not (isinstance(labels, list) and _is_int_list(step_map)
            and isinstance(metric, list) and len(metric) == len(labels)
            and all(isinstance(row, list) and len(row) == len(labels)
                    for row in metric)
            and isinstance(invertible, bool)):
        raise SchemaError("a net system needs a list 'labels', a square 'metric' "
                          "of one row per label, an integer list 'map' and a "
                          "boolean 'invertible'")
    numerators, denominator = _over_one_denominator(metric)
    return NetSystem(labels, numerators, step_map,
                     resolution=parse_frac(doc.get("resolution")),
                     invertible=invertible, denominator=denominator)


def _over_one_denominator(metric: list) -> tuple:
    """(integer rows, D): the entries as numerators over D, the lcm of their
    denominators (``NetSystem`` reduces it to the least one).  Each distinct
    entry is parsed once."""
    types = set()
    for row in metric:
        types.update(map(type, row))
    # exact types: a bool or float equal to an int must not pass as one
    if not types <= {str, int}:
        raise SchemaError("metric entries must be rationals 'p/q' or integers")
    ratios = {v: _ratio(v) for v in set().union(*metric)}
    D = math.lcm(*(q for _, q in ratios.values()))
    scaled = {v: p * (D // q) for v, (p, q) in ratios.items()}
    return [list(map(scaled.__getitem__, row)) for row in metric], D


def orbit_to_json(po: PseudoOrbit) -> dict:
    return {"schema": SCHEMA_ORBIT,
            "points": [point_to_json(p) for p in po.points],
            "delta": frac_str(po.delta),
            "kind": po.kind}


def orbit_from_json(doc, system) -> PseudoOrbit:
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_ORBIT:
        raise SchemaError("not a pseudo-orbit document")
    if not isinstance(doc.get("points"), list):
        raise SchemaError("a pseudo-orbit document needs a list 'points'")
    pts = list(map(_point_reader(system), doc["points"]))
    return validate(pts, parse_frac(doc.get("delta")), system, kind=doc.get("kind"))


def measure_to_json(mu: EmpiricalMeasure) -> dict:
    return {"schema": SCHEMA_MEASURE,
            "atoms": [[point_to_json(p), frac_str(w)] for p, w in mu.atoms]}


def _point_weight_pairs(doc, key: str, what: str, system) -> list:
    """(point, weight) pairs from {key: [[point, weight], ...]}."""
    entries = doc.get(key) if isinstance(doc, dict) else None
    if not (isinstance(entries, list)
            and all(isinstance(e, list) and len(e) == 2 for e in entries)):
        raise SchemaError(f"a {what} document needs a list '{key}' "
                          "of [point, weight] pairs")
    read = _point_reader(system)
    return [(read(p), parse_frac(w)) for p, w in entries]


def measure_from_json(doc, system) -> EmpiricalMeasure:
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_MEASURE:
        raise SchemaError("not a measure document")
    return EmpiricalMeasure(_point_weight_pairs(doc, "atoms", "measure", system))


def components_from_json(doc, system) -> list:
    """(point, weight) pairs from {"components": [[point, weight], ...]}."""
    return _point_weight_pairs(doc, "components", "components", system)


def _payload_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def certificate_to_json(cert: HorseshoeCertificate) -> dict:
    fam = cert.family
    payload = {
        "schema": SCHEMA_CERT,
        "base": point_to_json(fam.base),
        "loops": [[point_to_json(p) for p in lp.points] for lp in fam.loops],
        "delta": frac_str(fam.delta),
        "epsilon": frac_str(fam.epsilon),
        "witnesses": [{"a": w.loop_a, "b": w.loop_b, "index": w.index,
                       "distance": frac_str(w.distance)} for w in fam.witnesses],
        "word_length_max": cert.word_length_max,
        "coded": [{"word": list(word), "shadow": point_to_json(z)}
                  for word, z in sorted(cert.coded.items())],
        "entropy": {"log_arg": cert.entropy_log_arg,
                    "divisor": cert.entropy_divisor},
    }
    payload["sha256"] = _payload_hash({k: v for k, v in payload.items()})
    return payload


def _is_index(v, n: int) -> bool:
    return _is_int(v) and 0 <= v < n


def certificate_from_json(doc, system) -> HorseshoeCertificate:
    """The certificate a document holds.  Beyond the schema, the hash, the
    points and a nonnegative delta, every index is checked: a word length
    of at least 1, at least one loop and no empty one, a witness when there
    are two or more, witness loops and indices inside the longer of their
    loops, and coded words that are nonempty lists of loop indices.  What
    the loops claim is judged by ``check()`` alone (``LoopFamily.reverify``)."""
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_CERT:
        raise SchemaError("not a horseshoe certificate document")
    body = {k: v for k, v in doc.items() if k != "sha256"}
    if doc.get("sha256") != _payload_hash(body):
        raise SchemaError("certificate payload hash mismatch")
    if not (_is_int(doc.get("word_length_max")) and doc["word_length_max"] >= 1):
        raise SchemaError("'word_length_max' must be an integer of at least 1")
    entropy = doc.get("entropy")
    if not (isinstance(entropy, dict) and _is_int(entropy.get("log_arg"))
            and _is_int(entropy.get("divisor"))):
        raise SchemaError("'entropy' needs integers 'log_arg' and 'divisor'")
    delta = parse_frac(doc.get("delta"))
    if delta < 0:
        raise SchemaError("'delta' must be nonnegative")
    epsilon = parse_frac(doc.get("epsilon"))
    loops_doc = doc.get("loops")
    if not (isinstance(loops_doc, list) and loops_doc
            and all(isinstance(lp, list) and lp for lp in loops_doc)):
        raise SchemaError("a certificate needs a nonempty list 'loops' of nonempty point lists")
    read = _point_reader(system)
    loops = tuple(PseudoOrbit(system, tuple(map(read, lp)), delta, LOOP) for lp in loops_doc)
    k = len(loops)
    witnesses_doc = doc.get("witnesses")
    if not isinstance(witnesses_doc, list) or (k > 1 and not witnesses_doc):
        raise SchemaError("a certificate of two or more loops needs a nonempty "
                          "list 'witnesses'")
    for w in witnesses_doc:
        if not (isinstance(w, dict) and _is_index(w.get("a"), k)
                and _is_index(w.get("b"), k)):
            raise SchemaError(f"witness loops must be indices below {k}: {w!r}")
        length = max(len(loops[w["a"]].points), len(loops[w["b"]].points))
        if not _is_index(w.get("index"), length):
            raise SchemaError(f"witness index must lie inside its loops: {w!r}")
    witnesses = tuple(SeparationWitness(w["a"], w["b"], w["index"],
                                        parse_frac(w.get("distance")))
                      for w in witnesses_doc)
    fam = LoopFamily(system, read(doc.get("base")), loops,
                     delta, epsilon, witnesses)
    coded_doc = doc.get("coded")
    if not (isinstance(coded_doc, list)
            and all(isinstance(e, dict) and isinstance(e.get("word"), list)
                    and e["word"] and all(_is_index(s, k) for s in e["word"])
                    for e in coded_doc)):
        raise SchemaError(f"coded words must be nonempty lists of loop indices below {k}")
    coded = {tuple(e["word"]): read(e.get("shadow")) for e in coded_doc}
    return HorseshoeCertificate(fam, doc["word_length_max"], coded,
                                doc["entropy"]["log_arg"],
                                doc["entropy"]["divisor"])


def verify_certificate(doc, system) -> dict:
    """Re-check every stored invariant of a certificate document from the
    document and the system alone (``HorseshoeCertificate.check``)."""
    return certificate_from_json(doc, system).check()


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
