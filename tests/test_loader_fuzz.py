"""Loaders under mutated documents.

Each loader gets valid documents with a few random edits: a dropped key or
element, a value of the wrong type, an integer out of range, a ragged or
short metric row, a negated or one-sided metric entry, and (for
certificates) a recomputed hash.  A mutated document must load, raise
``ValueError`` (``SchemaError`` is one) or fail its check; any other
exception is a crash of the loader.
"""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shadowdyn import io as sio
from shadowdyn.horseshoe import build_certificate, make_family
from shadowdyn.measures import EmpiricalMeasure
from shadowdyn.pseudo_orbits import concatenate, connect, validate
from shadowdyn.systems import NetSystem, SymbolicSystem, circle_net

F = Fraction

SIGMA2 = SymbolicSystem.full_shift(2)
NET = circle_net(6, lambda i: (i + 1) % 6, invertible=True)
# six points of [0, 1] under the distance |a - b|: a net that is no circle,
# so its document is a metric table
LINE = [F(i, 6) for i in range(6)]
TABLE_NET = NetSystem(LINE, [[abs(a - b) for b in LINE] for a in LINE],
                      [5 - i for i in range(6)], resolution=F(1, 12), invertible=True)

# values a retyped slot takes: wrong types, floats and booleans where
# rationals belong, malformed rationals, and containers of the wrong shape
JUNK = [None, True, False, 0.5, 2.0, 0, -1, 7, 2 ** 70, "", "x", "1/0", "-1/2",
        "0.5", "3", [], {}, [[]], [0, 1], {"period": [0]}]


def _certificate_doc() -> dict:
    x = SIGMA2.fixed_point(0)
    q = SIGMA2.point((0,), word=(1,), offset=0)
    delta, eps = F(1, 32), F(1, 5)
    excursion = concatenate(connect(x, q, delta, SIGMA2),
                            connect(q, x, delta, SIGMA2))
    dwell = validate([x] * (excursion.step_count + 1), delta, SIGMA2)
    fam = make_family(SIGMA2, x, [dwell, excursion], eps, delta)
    return sio.certificate_to_json(build_certificate(fam, word_length_max=2))


def _loaders() -> dict:
    """name -> (valid document, load): ``load`` reads the document and runs
    what a verifier runs on it."""
    p = SIGMA2.point((0, 1), word=(1, 1, 0), offset=-2)
    mu = EmpiricalMeasure.from_orbit(SIGMA2, SIGMA2.point((0, 1, 1)), 3)
    return {
        "system-net": (sio.system_to_json(NET), sio.system_from_json),
        "system-net-table": (sio.system_to_json(TABLE_NET), sio.system_from_json),
        "system-symbolic": (sio.system_to_json(SymbolicSystem.golden_mean()),
                            sio.system_from_json),
        "point-symbolic": (sio.point_to_json(p), lambda d: sio.point_from_json(d, SIGMA2)),
        "point-net": (3, lambda d: sio.point_from_json(d, NET)),
        "orbit-symbolic": (sio.orbit_to_json(validate([p, p.shift(1), p.shift(2)],
                                                      F(1, 4), SIGMA2)),
                           lambda d: sio.orbit_from_json(d, SIGMA2)),
        "orbit-net": (sio.orbit_to_json(validate([0, 1, 2, 3], F(1, 6), NET)),
                      lambda d: sio.orbit_from_json(d, NET)),
        "measure": (sio.measure_to_json(mu), lambda d: sio.measure_from_json(d, SIGMA2)),
        "components": ({"components": [[{"period": [0]}, "1/3"],
                                       [sio.point_to_json(p), "2/3"]]},
                       lambda d: sio.components_from_json(d, SIGMA2)),
        "certificate": (_certificate_doc(), lambda d: sio.verify_certificate(d, SIGMA2)),
    }


LOADERS = _loaders()


def _mutate(data, holder: dict) -> None:
    """One random edit of the document in ``holder["doc"]``, at a slot found
    by walking down from the top and stopping at each level with even odds."""
    if "doc" not in holder:  # the document itself was dropped
        return
    container, key = holder, "doc"
    while isinstance(container[key], (dict, list)) and container[key] \
            and data.draw(st.booleans()):
        node = container[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        container, key = node, data.draw(st.sampled_from(keys))
    value = container[key]
    edits = ["drop", "retype"]
    if isinstance(value, int) and not isinstance(value, bool):
        edits.append("range")
    if isinstance(value, str):
        edits.append("negate")
    if isinstance(value, list) and value:
        edits += ["shorten", "extend"]
    edit = data.draw(st.sampled_from(edits))
    if edit == "drop":
        del container[key]
    elif edit == "retype":
        container[key] = copy.deepcopy(data.draw(st.sampled_from(JUNK)))
    elif edit == "range":
        container[key] = data.draw(st.sampled_from([-value - 1, value + 1, value + 100,
                                                    -(2 ** 70), 2 ** 70]))
    elif edit == "negate":
        container[key] = "-" + value
    elif edit == "shorten":
        value.pop(data.draw(st.integers(0, len(value) - 1)))
    else:
        value.append(copy.deepcopy(value[data.draw(st.integers(0, len(value) - 1))]))


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_load_or_raise_value_error(name, data):
    doc, load = LOADERS[name]
    # a JSON round trip, the form a file gives: a deep copy would keep the
    # lists the points of one tape share, so an edit of one point's period
    # or word would change every point of its tape
    holder = {"doc": json.loads(json.dumps(doc))}
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, holder)
    mutated = holder.get("doc")
    if isinstance(mutated, dict) and "sha256" in mutated and data.draw(st.booleans()):
        mutated["sha256"] = sio._payload_hash(
            {k: v for k, v in mutated.items() if k != "sha256"})
    try:
        load(mutated)
    except ValueError:
        pass


# name -> (loader, edit): documents that load without a crash but must be
# refused, since their check would pass vacuously
REFUSED = {
    "wordless-certificate": ("certificate", lambda d: d.update(word_length_max=0, coded=[])),
    "negative-word-length": ("certificate", lambda d: d.update(word_length_max=-2)),
    # circle_net would read these modulo the size, or build a net of two points
    "circle-map-entry-equal-to-size": ("system-net", lambda d: d["map"].__setitem__(0, 6)),
    "circle-of-size-2": ("system-net", lambda d: d.update(size=2, map=[1, 0])),
    "circle-invertible-map-not-injective": ("system-net", lambda d: d.update(map=[0] * 6)),
    # the constructor reads any nonzero entry as an allowed transition
    "transition-entry-2": ("system-symbolic",
                           lambda d: d.update(alphabet_size=1, transitions=[[2]])),
    "transition-entry-minus-1": ("system-symbolic",
                                 lambda d: d["transitions"][1].__setitem__(0, -1)),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_documents_raise_schema_errors(name):
    loader, edit = REFUSED[name]
    doc, load = LOADERS[loader]
    doc = copy.deepcopy(doc)
    edit(doc)
    doc["sha256"] = sio._payload_hash({k: v for k, v in doc.items() if k != "sha256"})
    with pytest.raises(sio.SchemaError):
        load(doc)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_valid_documents_load(name):
    doc, load = LOADERS[name]
    result = load(copy.deepcopy(doc))
    if name == "certificate":
        assert result["ok"], result
