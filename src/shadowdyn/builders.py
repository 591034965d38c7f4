"""Executable reconstructions of the reference example systems.

* a three-fixed-point circle flow separating positive from two-sided
  shadowing,
* the layered space of isolated periodic circles over an identity base,
  where shadowable points are dense but the base is unshadowable,
* the extension of a minimal subshift by vertex-shift layers, whose
  positively shadowable set collapses onto the base copy.

Everything is truncated to finite nets with exact product metrics, which
are metrics by construction and are not checked again; every claim checked
against these objects carries the truncation stamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .shadow_search import find_shadow
from .shadowing import has_shadowing_at_resolution, is_positively_shadowable_at
from .systems import (
    NetSystem,
    SymbolicPoint,
    circle_arcs,
    circle_net,
    dyadic_radius,
    word_ultrametric,
)
from .words import SubstitutionLanguage, screen_minimality

F = Fraction


# -- circle flow with three fixed points --------------------------------------


def fig1_circle(net_size: int = 360) -> NetSystem:
    """Circle net with fixed points x = 0, y = 1/3, z = 2/3.

    x repels both neighboring arcs, z attracts both, y attracts the arc
    from x and repels the arc toward z.  Non-fixed points move one net step
    per iterate near a fixed point and two steps elsewhere, in the arc
    direction; motion is clamped at attracting fixed points, so the sampled
    map is intentionally not injective there.
    """
    if net_size < 12 or net_size % 3:
        raise ValueError("net size must be a multiple of 3, at least 12")
    x, y, z = 0, net_size // 3, 2 * net_size // 3
    near = max(1, net_size // 60)

    def speed(i: int, ends: tuple) -> int:
        return 1 if min(abs(i - e) for e in ends) <= near else 2

    def step(i: int) -> int:
        if i in (x, y, z):
            return i
        if x < i < y:
            return min(i + speed(i, (x, y)), y)
        if y < i < z:
            return min(i + speed(i, (y, z)), z)
        return max(i - speed(i, (z, net_size)), z)

    return circle_net(net_size, step)


def crossing_pseudo_orbit(net: NetSystem, delta, variant: int = 1) -> list:
    """The two unshadowable two-sided shapes on the circle flow, relabeled
    to forward windows: climb toward the half-fixed point y, hop across it
    with one delta-jump, then fall into the sink z.

    variant 1 starts adjacent to the repeller x (rendering the backward tail
    that sits at x); variant 2 starts deeper in the arc, rendering the shape
    whose origin lies past y with a backward excursion into (x, y)."""
    delta = Fraction(delta)
    size = net.n
    x, y, z = 0, size // 3, 2 * size // 3
    if delta < Fraction(1, size):
        raise ValueError("delta below the net spacing cannot cross y")
    start = x + 1 if variant == 1 else x + size // 12
    pts = [start]
    while pts[-1] != y:
        pts.append(net.step(pts[-1]))
    pts.append(y + 1)  # the delta-jump off the repelling side of y
    while pts[-1] != z:
        pts.append(net.step(pts[-1]))
    return pts


# -- layered circles over an identity base ------------------------------------


@dataclass
class LayeredSpace:
    """A base system with finitely many isolated layers over it, carrying
    the product max-metric and per-layer isolation stamps."""

    net: NetSystem
    base_indices: tuple
    layers: dict                   # layer key -> tuple of net indices
    heights: dict                  # layer key -> Fraction
    gaps: dict                     # layer key -> isolation gap (exact)
    meta: dict = field(default_factory=dict)


def dense_shadowable_example(levels: int, base_size: int = 120) -> LayeredSpace:
    """Cyclic layers K_n = {1/n} x {i/n} for n <= levels over an identity
    circle at height 0, all rotating with the same orientation."""
    if levels < 2:
        raise ValueError("need at least two layers")
    if base_size < 1:
        raise ValueError("need at least one base point")
    labels = []
    step_map = []
    base_idx = []
    layers: dict = {}
    heights: dict = {}

    for j in range(base_size):
        base_idx.append(len(labels))
        labels.append((F(0), F(j, base_size)))
    for n in range(1, levels + 1):
        members = []
        for i in range(n):
            members.append(len(labels))
            labels.append((F(1, n), F(i, n)))
        layers[n] = tuple(members)
        heights[n] = F(1, n)

    for idx, (h, theta) in enumerate(labels):
        if h == 0:
            step_map.append(idx)
        else:
            n = h.denominator
            i = int(theta * n)
            step_map.append(layers[n][(i + 1) % n])

    # max(height gap, arc) with heights and angles as integers over D, a
    # common multiple of all their denominators
    D = math.lcm(base_size, *range(1, levels + 1))
    heights_d = np.array([int(h * D) for h, _ in labels])
    angles_d = np.array([int(theta * D) for _, theta in labels])
    dist = np.maximum(np.abs(heights_d[:, None] - heights_d), circle_arcs(angles_d, D))
    net = NetSystem(labels, dist, step_map,
                    resolution=F(1, 2 * base_size * levels),
                    invertible=True, metric_check=False, denominator=D)

    gaps = {}
    for n, members in layers.items():
        outside = np.ones(net.n, dtype=bool)
        outside[list(members)] = False
        gaps[n] = F(int(net._imat[np.ix_(members, outside)].min()), net.denominator)
    return LayeredSpace(net, tuple(base_idx), layers, heights, gaps,
                        meta={"base_size": base_size, "levels": levels})


def reverse_base_pseudo_orbit(space: LayeredSpace, step_lower, delta) -> list:
    """A reverse-oriented pseudo-orbit around the identity base circle with
    every step error in [step_lower, delta]."""
    step_lower, delta = Fraction(step_lower), Fraction(delta)
    base = space.base_indices
    size = len(base)
    jump = None
    for k in range(1, size):
        err = F(k, size)
        if step_lower <= err <= delta:
            jump = k
            break
    if jump is None:
        raise ValueError("net too coarse for the requested step band")
    pts = []
    pos = 0
    for _ in range(size // jump + 2):
        pts.append(base[pos % size])
        pos -= jump
    return pts


# -- the extension of a minimal subshift ---------------------------------------


@dataclass
class CylinderPartition:
    """Cells of a subshift at a window depth, with the chain constant
    delta = (min pairwise cell distance) / 4 and the cell transition graph."""

    level: int
    window_radius: int
    cells: tuple                   # words on [-m, m]
    delta: Fraction
    edges: dict                    # word -> tuple of successor words

    @property
    def cell_count(self) -> int:
        return len(self.cells)


def cylinder_partition(lang: SubstitutionLanguage, level: int) -> CylinderPartition:
    """Cells of diameter at most 1/level: central words at the least depth m
    with 2^-m <= 1/level."""
    if level < 1:
        raise ValueError("level must be positive")
    m = dyadic_radius(F(1, level))
    width = 2 * m + 1
    cells = tuple(sorted(lang.factors(width)))
    longer = lang.factors(width + 1)
    edges = {}
    for w in cells:
        edges[w] = tuple(sorted(w2 for w2 in cells
                                if w2[:-1] == w[1:] and (w + (w2[-1],)) in longer))
    dist = word_ultrametric(cells, m)
    gap = F(int(dist[dist > 0].min()), 1 << m)
    return CylinderPartition(level, m, cells, gap / 4, edges)


def _simple_cycles(edges: dict) -> list:
    """All simple cycles of the cell graph, as vertex lists."""
    cells = sorted(edges)
    order = {w: i for i, w in enumerate(cells)}
    cycles = []

    def dfs(start, current, path, visited):
        for nxt in edges[current]:
            if nxt == start and len(path) >= 1:
                cycles.append(list(path))
            elif order[nxt] > order[start] and nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                dfs(start, nxt, path, visited)
                path.pop()
                visited.remove(nxt)

    for start in cells:
        dfs(start, start, [start], {start})
    return cycles


def vertex_shift_points(part: CylinderPartition) -> list:
    """Periodic points of the vertex shift: decoded simple cycles of the
    cell graph together with all their shifts (closed under the shift)."""
    m = part.window_radius
    points = []
    seen = set()
    for cycle in _simple_cycles(part.edges):
        period = tuple(w[m] for w in cycle)
        base = SymbolicPoint(period)
        for t in range(len(period)):
            p = base.shift(t)
            if p not in seen:
                seen.add(p)
                points.append(p)
    return points


def _embed_numerator(point: SymbolicPoint, window: int) -> int:
    """``embed_binary(point, window)`` times 3^(2 window + 1)."""
    symbols = point.window(-window, window)
    total = 0
    for j in range(0, window + 1):
        for c in ((j,) if j == 0 else (-j, j)):
            total = 3 * total + (1 if symbols[window + c] else 0)
    return total


def embed_binary(point: SymbolicPoint, window: int) -> Fraction:
    """Injective rational embedding of the window [-window, window]: base-3
    digits at interleaved positions 0, -1, 1, -2, 2, ...; values lie in
    [0, 1/2]."""
    return F(_embed_numerator(point, window), 3 ** (2 * window + 1))


@dataclass
class ExtensionLevel:
    level: int
    partition: CylinderPartition
    shift_points: tuple            # X_n: vertex-shift periodic points
    minimal_cycle: tuple           # M_n: shifts of the minimal periodization
    indices: tuple                 # net indices of the product layer
    height: Fraction
    minimal_scale: Fraction        # embedding scale 1/(2 level)


@dataclass
class ExtensionSpace:
    """Truncated model of the subshift extension: the base copy of the
    input system plus one product layer per level."""

    net: NetSystem
    base_indices: tuple
    base_points: tuple
    levels: dict                   # level -> ExtensionLevel
    screen: object
    meta: dict = field(default_factory=dict)


def extension_builder(lang: SubstitutionLanguage, max_level: int) -> ExtensionSpace:
    """Build the layered extension of a minimal subshift, truncated at
    ``max_level`` layers, with the exact product max-metric
    d = max(symbolic distance, embedded minimal coordinate, height gap),
    over a base cycle of period 34 and minimal cycles of period 13.

    The input must pass the minimality screen (uniform recurrence plus
    aperiodic complexity at the tested depths).
    """
    if max_level < 1:
        raise ValueError("need at least one level")
    screen = screen_minimality(lang)
    if not screen.passed:
        raise ValueError("input subshift fails the minimality screen")

    base_period, minimal_period = 34, 13
    base_word = lang.prefix(base_period)
    base_cycle = SymbolicPoint(base_word)
    base_points = tuple(base_cycle.shift(t) for t in range(base_period))
    minimal_word = lang.prefix(minimal_period)
    minimal_cycle = SymbolicPoint(minimal_word)
    minimal_points = tuple(minimal_cycle.shift(t) for t in range(minimal_period))

    labels = []       # (binary point, minimal embedded value, height)
    structure = []    # ("base", t) or ("Z", level, xi, mi)
    base_idx = []
    for t, p in enumerate(base_points):
        base_idx.append(len(labels))
        labels.append((p, F(0), F(0)))
        structure.append(("base", t))

    levels = {}
    for n in range(1, max_level + 1):
        part = cylinder_partition(lang, n)
        xpts = vertex_shift_points(part)
        scale = F(1, n)
        idxs = []
        for xi, xp in enumerate(xpts):
            for mi, mp in enumerate(minimal_points):
                idxs.append(len(labels))
                labels.append((xp, scale * embed_binary(mp, minimal_period), F(1, n)))
                structure.append(("Z", n, xi, mi))
        levels[n] = ExtensionLevel(n, part, tuple(xpts), minimal_points,
                                   tuple(idxs), F(1, n), scale / 2)

    index_of = {}
    for i, (xp, ev, h) in enumerate(labels):
        index_of[(xp, ev, h)] = i

    step_map = []
    for i, tag in enumerate(structure):
        xp, ev, h = labels[i]
        if tag[0] == "base":
            step_map.append(index_of[(xp.shift(1), ev, h)])
        else:
            _, n, xi, mi = tag
            lvl = levels[n]
            nxt_m = lvl.minimal_cycle[(mi + 1) % len(lvl.minimal_cycle)]
            target = (xp.shift(1), F(1, n) * embed_binary(nxt_m, minimal_period), h)
            step_map.append(index_of[target])

    dist, denominator = _extension_metric(labels)
    net = NetSystem(labels, dist, step_map,
                    resolution=F(1, 1 << (base_period + 1)),
                    invertible=True, metric_check=False, denominator=denominator)

    return ExtensionSpace(net, tuple(base_idx), base_points, levels, screen,
                          meta={"base_period": base_period,
                                "minimal_period": minimal_period,
                                "max_level": max_level})


def _extension_metric(labels: Sequence[tuple]) -> tuple:
    """(numerators, D): the product max-metric
    max(symbolic distance, |embedded difference|, |height gap|) between the
    labels (periodic binary point, embedded value, height) as integers over
    one common denominator D.  The symbolic part is the dyadic
    ``word_ultrametric`` of the windows [-R, R], R the longest least period:
    points of least periods p, q <= R that agree on p + q - 1 consecutive
    coordinates are equal (Fine and Wilf), so the window holds every first
    disagreement."""
    points = [x for x, _, _ in labels]
    radius = max(p.least_period() for p in points)
    symbolic = word_ultrametric([p.window(-radius, radius) for p in points], radius)
    D = math.lcm(1 << radius, *(v.denominator for _, e, h in labels for v in (e, h)))
    dist = symbolic.astype(object) * (D >> radius)
    for values in ([e for _, e, _ in labels], [h for _, _, h in labels]):
        ints = np.array([v.numerator * (D // v.denominator) for v in values], dtype=object)
        dist = np.maximum(dist, np.abs(ints[:, None] - ints))
    return dist, D


def minimal_layer_net(space: ExtensionSpace, level: int) -> NetSystem:
    """The minimal-coordinate factor of a layer as a standalone net."""
    lvl = space.levels[level]
    window = space.meta["minimal_period"]
    # the values embed_binary(p) / level, as integers over D
    D = level * 3 ** (2 * window + 1)
    values = np.array([_embed_numerator(p, window) for p in lvl.minimal_cycle],
                      dtype=object)
    k = len(values)
    dist = np.abs(values[:, None] - values)
    smallest = F(int(dist[~np.eye(k, dtype=bool)].min()), D)
    return NetSystem(list(range(k)), dist, [(i + 1) % k for i in range(k)],
                     resolution=smallest / 2, invertible=True, metric_check=False,
                     denominator=D)


@dataclass
class ExtensionReport:
    base_shadowable: list          # (index, report)
    layer_counterexamples: dict    # level -> (pseudo-orbit points, eps)
    layer_shadowing: dict          # level -> ShadowabilityReport
    stamps: dict

    @property
    def ok(self) -> bool:
        return (all(r.shadowable for _, r in self.base_shadowable)
                and all(v is not None for v in self.layer_counterexamples.values())
                and all(not r.shadowable for r in self.layer_shadowing.values()))


def verify_extension_claims(space: ExtensionSpace) -> ExtensionReport:
    """Three checks at the stamped truncation:

    (a) base points a quarter of the base cycle apart pass the positive
        shadowing test at (epsilon, delta, horizon) = (1, 1/8, 4) (the
        diameter bound makes epsilon = 1 pass by exhaustion);
    (b) each layer's minimal coordinate admits an explicitly unshadowable
        pseudo-orbit, found by search and lifted to a product pseudo-orbit
        that no point of the whole truncated space shadows;
    (c) no layer subsystem passes the shadowing test at its own scale, up
        to horizon 12.
    """
    base_epsilon, base_delta, base_horizon = F(1), F(1, 8), 4
    layer_horizon, base_samples = 12, 4
    net = space.net
    base_reports = []
    stride = max(1, len(space.base_indices) // base_samples)
    for idx in space.base_indices[::stride]:
        rep = is_positively_shadowable_at(net, idx, base_epsilon, base_delta,
                                          horizon=base_horizon)
        base_reports.append((idx, rep))

    layer_counterexamples = {}
    layer_shadowing = {}
    stamps_layers = {}
    for n, lvl in space.levels.items():
        mnet = minimal_layer_net(space, n)
        found = None
        base_delta_b = _branching_delta(mnet)
        delta_b = eps_b = rep = None
        for i in range(5):
            delta_b = base_delta_b * (1 << i)
            eps_b = 4 * delta_b
            rep = has_shadowing_at_resolution(mnet, delta_b, eps_b,
                                              horizon=layer_horizon)
            if not rep.shadowable:
                break
        stamps_layers[n] = (delta_b, eps_b)
        if not rep.shadowable:
            lifted = _lift_counterexample(space, n, rep.counterexample.points)
            if find_shadow(net, lifted, eps_b) is None:
                found = (tuple(lifted), eps_b)
        layer_counterexamples[n] = found
        layer_shadowing[n] = has_shadowing_at_resolution(
            net, delta_b, eps_b, horizon=layer_horizon,
            within=net.restrict_to(lvl.indices), two_sided=False)
    return ExtensionReport(base_reports, layer_counterexamples, layer_shadowing,
                           stamps={"base": (base_epsilon, base_delta, base_horizon),
                                   "layer_horizon": layer_horizon,
                                   "layer_constants": stamps_layers})


def _branching_delta(mnet: NetSystem) -> Fraction:
    """Smallest delta opening a second successor somewhere in the net: the
    least distance from an image point to any other point."""
    images = np.unique(mnet.map)
    others = np.ones((len(images), mnet.n), dtype=bool)
    others[np.arange(len(images)), images] = False
    return F(int(mnet._imat[images][others].min()), mnet.denominator)


def _lift_counterexample(space: ExtensionSpace, level: int,
                         minimal_indices: Sequence[int]) -> list:
    """Pair a minimal-coordinate pseudo-orbit with a true vertex-shift orbit
    at the layer height; the product steps keep the same error bound."""
    lvl = space.levels[level]
    per_x = len(lvl.minimal_cycle)
    xindex = {p: i for i, p in enumerate(lvl.shift_points)}
    xcur = lvl.shift_points[0]
    lifted = []
    for mi in minimal_indices:
        lifted.append(lvl.indices[xindex[xcur] * per_x + mi])
        xcur = xcur.shift(1)
    return lifted
