"""Semi-horseshoe certificates from separated loop families.

Two delta-loops at 0^inf, more than 4 epsilon apart at one index, code
every binary word by a shadow point; the certificate stores one witness
per word, re-verifies from its JSON serialization alone, and pins the
entropy lower bound log(2)/n.
"""

import json
from fractions import Fraction as F

from shadowdyn import (
    SymbolicSystem,
    build_certificate,
    concatenate,
    connect,
    make_family,
    validate,
)
from shadowdyn.io import certificate_to_json, verify_certificate

sigma2 = SymbolicSystem.full_shift(2)
eps, delta = F(1, 5), F(1, 32)
x = sigma2.fixed_point(0)
q = sigma2.point((0,), word=(1,), offset=0)   # reads a 1 at coordinate 0

excursion = concatenate(connect(x, q, delta, sigma2),
                        connect(q, x, delta, sigma2))
dwell = validate([x] * (excursion.step_count + 1), delta, sigma2)
family = make_family(sigma2, x, [dwell, excursion], eps, delta)
w = family.witnesses[0]
print(f"two loops of {family.n} steps; separated at index {w.index} "
      f"with distance {w.distance} > 4 eps = {4 * eps}")

cert = build_certificate(family, word_length_max=5)
print("coded words:", len(cert.coded))
print("entropy lower bound: log", cert.entropy_log_arg, "/",
      cert.entropy_divisor, "=", round(cert.entropy_lower_bound, 6))
print("semiconjugacy:", cert.check()["checks"]["semiconjugacy"])
print("separated points among length-5 words:", cert.separated_pair_count(5))

doc = certificate_to_json(cert)
print("serialized certificate:", len(json.dumps(doc)), "bytes")
print("re-verified from the file alone:", verify_certificate(doc, sigma2)["ok"])
