"""Symbolic points, exact distances and the delta-pseudo-orbit calculus.

Everything here is exact: distances are rationals, equality of eventually
periodic sequences is decided from the representations, and a pseudo-orbit
certificate can always be re-verified.
"""

from fractions import Fraction as F

from shadowdyn import (
    PseudoOrbitError,
    SymbolicSystem,
    concatenate,
    connect,
    circle_net,
    repeat,
    symbolic_distance,
    validate,
)

sigma2 = SymbolicSystem.full_shift(2)

# Three views of the same sequence ...010101... with a 0 at coordinate 0
a = sigma2.point((0, 1))
b = sigma2.point((0, 1, 0, 1))
c = sigma2.point((1, 0), offset=1)
print("equal representations:", a == b == c)

zero = sigma2.fixed_point(0)
spike = sigma2.point((0,), word=(1,), offset=3)   # ...000 1 000... at coord 3
print("d(0^inf, spike at 3) =", symbolic_distance(zero, spike))

# The pair (0^inf, spike) is a 1/8-step, so it validates at delta = 1/4 ...
po = validate([zero, spike], F(1, 4), sigma2)
print("validated with", po.step_count, "step; worst error",
      max(po.step_errors()))

# ... but not at delta = 1/16
try:
    validate([zero, spike], F(1, 16), sigma2)
except PseudoOrbitError as err:
    print("rejected as expected:", err)

# Loops concatenate, repeat, and splice across the shift space
loop = validate([zero] * 4, 0, sigma2)
print("loop of", loop.step_count, "steps; tripled:", repeat(loop, 3).step_count)

two_cycle = sigma2.point((0, 1))
chain = connect(zero, two_cycle, F(1, 16), sigma2)
print("spliced chain 0^inf -> (01)^inf:", chain.step_count, "steps at delta",
      chain.delta)

# On a finite net, connect() is breadth-first search on the delta-graph
net = circle_net(36, lambda i: i if i == 0 else (i + 1) % 36)
print("net chain 1 -> 5:", connect(1, 5, F(0), net).points)
print("net chain against the flow:", connect(5, 1, F(0), net))
