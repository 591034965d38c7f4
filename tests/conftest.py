"""Fixtures shared by the test modules."""

from fractions import Fraction

import numpy as np
import pytest

from shadowdyn import io as sio


def _table_document(net) -> dict:
    """The table form of a net's system document, as ``io.system_to_json``
    writes it for any net that is not a circle: the labels, the metric as one
    rational string per entry, the map, the resolution and the flag.  Tests
    that tamper with a metric table, or read one by another path, take this
    form of every net, circles included."""
    values, where = np.unique(net._imat, return_inverse=True)
    D = net.denominator
    strings = np.array([sio.frac_str(Fraction(int(v), D)) for v in values], dtype=object)
    return {"schema": sio.SCHEMA_SYSTEM, "kind": "net",
            "labels": [str(l) for l in net.labels],
            "metric": strings[where.reshape(net.n, net.n)].tolist(),
            "map": list(net.map),
            "resolution": sio.frac_str(net.resolution),
            "invertible": net.invertible}


@pytest.fixture(scope="session")
def table_document():
    return _table_document
