"""Traced mode: wrap the library's public functions and record spans.

Every public function of every library module, and the methods named in
METHODS, is replaced by a wrapper in every namespace that holds it: the
defining module, each module that copied it with ``from .x import y``, the
package, and class dictionaries.  Internal calls therefore go through the
wrapper too.  A wrapper records a span (name, start, end, parent span, job
id) and adds the span's self time, its duration minus the time covered by
its child spans, to a per-name total.  Cache hit ratios are observed by
reading the library's cache dicts before the call, never by writing them.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("systems", "pseudo_orbits", "shadow_search", "shadowing", "chain",
           "horseshoe", "measures", "entropy", "approx", "io", "cli",
           "builders", "finitize", "words")

# (module, class, method) -> span name
METHODS = {
    ("systems", "SymbolicPoint", "__init__"): "systems.symbolic_point.new",
    ("systems", "SymbolicPoint", "shift"): "systems.shift",
    ("systems", "SymbolicPoint", "canonical"): "systems.canonical",
    ("systems", "SymbolicSystem", "admissible"): "systems.admissible",
    ("systems", "SymbolicSystem", "periodic_closure"): "systems.periodic_closure",
    ("systems", "NetSystem", "ball"): "systems.net.ball",
    ("systems", "NetSystem", "successors"): "systems.net.successors",
    ("systems", "NetSystem", "row"): "systems.net.row",
    ("systems", "NetSystem", "validate_metric"): "systems.net.validate_metric",
    ("measures", "TestFunctionFamily", "value"): "measures.value",
    ("measures", "TestFunctionFamily", "integral"): "measures.integral",
    ("measures", "EmpiricalMeasure", "__init__"): "measures.empirical_measure.new",
    ("finitize", "CylinderNet", "__init__"): "finitize.cylinder_net",
}

# module function -> span name, where it differs from "<module>.<function>".
# The four symbolic distance tests share one name, so that
# systems.symbolic_distance.* counts every call of any of them and their
# summed self time.
RENAMES = {
    ("systems", "symbolic_distance"): "systems.symbolic_distance",
    ("systems", "distance_le"): "systems.symbolic_distance",
    ("systems", "first_disagreement"): "systems.symbolic_distance",
    ("systems", "agree_on_window"): "systems.symbolic_distance",
    ("shadow_search", "net_shadowability_dfs"): "shadow_search.net_dfs",
    ("shadow_search", "symbolic_shadowability_scan"): "shadow_search.symbolic_scan",
    ("shadowing", "is_positively_shadowable_at"): "shadowing.positive",
    ("shadowing", "has_shadowing_at_resolution"): "shadowing.resolution",
    ("chain", "build_chain_graph"): "chain.build_graph",
    ("chain", "strongly_connected_components"): "chain.scc",
    ("approx", "approximate_by_positive_entropy_ergodic"): "approx.pipeline",
}

# Per-layer metrics reported by a traced run, with their units.  Each is
# "<span>.count", "<span>.self_s", a counter, or a ratio of two counters.
LAYER_METRICS = (
    "systems.symbolic_point.new.count", "systems.symbolic_point.new.self_s",
    "systems.symbolic_point.symbols_copied.count",
    "systems.shift.count", "systems.canonical.count", "systems.canonical.self_s",
    "systems.symbolic_distance.count", "systems.symbolic_distance.self_s",
    "systems.admissible.self_s",
    "systems.periodic_closure.count", "systems.periodic_closure.self_s",
    "systems.net.ball.count", "systems.net.ball.self_s",
    "systems.net.successors.hit_ratio", "systems.net.row.miss_ratio",
    "systems.net.validate_metric.self_s",
    "pseudo_orbits.validate.count", "pseudo_orbits.validate.self_s",
    "pseudo_orbits.concatenate.count", "pseudo_orbits.concatenate.self_s",
    "pseudo_orbits.points_joined.count", "pseudo_orbits.splice_chain.self_s",
    "pseudo_orbits.connect.self_s",
    "shadow_search.find_shadow.count", "shadow_search.find_shadow.self_s",
    "shadow_search.shadows.count", "shadow_search.shadows.self_s",
    "shadow_search.net_dfs.self_s", "shadow_search.net_dfs.states",
    "shadow_search.symbolic_scan.self_s",
    "shadowing.positive.self_s", "shadowing.resolution.self_s",
    "chain.build_graph.self_s", "chain.edges.count", "chain.scc.self_s",
    "horseshoe.find_loop_family.self_s", "horseshoe.build_certificate.self_s",
    "horseshoe.words_coded.count", "horseshoe.verify_semiconjugacy.self_s",
    "measures.dstar.count", "measures.dstar.self_s",
    "measures.value.count", "measures.value.hit_ratio",
    "measures.integral.self_s",
    "measures.empirical_measure.new.count", "measures.empirical_measure.new.self_s",
    "entropy.separated_set.self_s", "entropy.max_clique.self_s",
    "approx.pipeline.self_s",
    "io.certificate_to_json.self_s", "io.verify_certificate.self_s",
    "io.system_from_json.self_s", "io.bytes_out.count",
    "cli.main.self_s",
    "builders.fig1_circle.self_s", "builders.dense_shadowable_example.self_s",
    "finitize.cylinder_net.self_s",
) + tuple(f"{m}.total.{kind}" for m in MODULES for kind in ("count", "self_s"))

RATIOS = {
    "systems.net.successors.hit_ratio": ("systems.net.successors.hits",
                                         "systems.net.successors.count"),
    "systems.net.row.miss_ratio": ("systems.net.row.misses", "systems.net.row.count"),
    "measures.value.hit_ratio": ("measures.value.hits", "measures.value.count"),
}


def unit(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".self_s"):
        return "s"
    return "count"


# The cache probes read private attributes; when a signature or attribute
# changes they count nothing rather than stop the run.


def _successors_hit(args):
    if len(args) < 3:
        return False
    table = getattr(args[0], "_succ_cache", {}).get(args[2])
    return table is not None and table[args[1]] is not None


def _row_miss(args):
    return len(args) > 1 and args[1] not in getattr(args[0], "_rows", {})


def _value_hit(args):
    return len(args) > 2 and (args[1], args[2]) in getattr(args[0], "_value_cache", {})


def _report_states(tracer, args, result):
    if getattr(args[0], "kind", None) == "net":
        tracer.count("shadow_search.net_dfs.states", result.stamps.get("states", 0))


# span name -> (counter, predicate on the arguments, read before the call)
BEFORE = {
    "systems.net.successors": ("systems.net.successors.hits", _successors_hit),
    "systems.net.row": ("systems.net.row.misses", _row_miss),
    "measures.value": ("measures.value.hits", _value_hit),
}

# span name -> hook(tracer, args, result) after a successful call
AFTER = {
    "systems.symbolic_point.new": lambda t, a, r: t.count(
        "systems.symbolic_point.symbols_copied", len(a[0].period) + len(a[0].word)),
    "pseudo_orbits.concatenate": lambda t, a, r: t.count(
        "pseudo_orbits.points_joined", len(r.points)),
    "chain.build_graph": lambda t, a, r: t.count(
        "chain.edges", sum(len(s) for s in r.succ)),
    "horseshoe.build_certificate": lambda t, a, r: t.count(
        "horseshoe.words_coded", len(r.coded)),
    "shadowing.positive": _report_states,
    "shadowing.resolution": _report_states,
}


class Tracer:
    """Span recorder installed into the library's namespaces."""

    def __init__(self):
        self.job_id = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self._stack: list = []
        self._patches: list = []

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] += k

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_job = self.span_parent, self.span_job
        before = BEFORE.get(name)
        after = AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None and before[1](args):
                tracer.counters[before[0]] += 1
            span = len(s_start)
            s_name.append(name_id)
            s_parent.append(stack[-1][1] if stack else -1)
            s_job.append(tracer.job_id)
            frame = [0.0, span]
            stack.append(frame)
            t0 = perf_counter()
            s_start.append(t0)
            s_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                s_end[span] = t1
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - frame[0]
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it wherever the library holds it."""
        package = sys.modules["shadowdyn"]
        wrappers = {}
        for mod_name in MODULES:
            mod = sys.modules[f"shadowdyn.{mod_name}"]
            for attr, value in list(vars(mod).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    name = RENAMES.get((mod_name, attr), f"{mod_name}.{attr}")
                    wrappers[value] = self._wrap(name, value)
        for (mod_name, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"shadowdyn.{mod_name}"], cls_name)
            fn = vars(cls)[attr]
            wrappers[fn] = self._wrap(name, fn)
        namespaces = [package] + [sys.modules[f"shadowdyn.{m}"] for m in MODULES]
        classes = [v for ns in namespaces[1:] for v in vars(ns).values()
                   if inspect.isclass(v) and v.__module__.startswith("shadowdyn")]
        for ns in namespaces + classes:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def metrics(self) -> dict:
        values = {}
        for span, n in self.calls.items():
            values[f"{span}.count"] = n
            values[f"{span}.self_s"] = self.self_s[span]
            module = span.split(".", 1)[0]
            values[f"{module}.total.count"] = values.get(f"{module}.total.count", 0) + n
            values[f"{module}.total.self_s"] = (values.get(f"{module}.total.self_s", 0.0)
                                                + self.self_s[span])
        for counter, n in self.counters.items():
            values[f"{counter}.count" if not counter.endswith(".states") else counter] = n
        for ratio, (num, den) in RATIOS.items():
            calls = self.calls.get(den.rsplit(".", 1)[0], 0)
            values[ratio] = self.counters.get(num, 0) / calls if calls else 0.0
        out = {m: values.get(m, 0) for m in LAYER_METRICS}
        out["trace.spans.count"] = len(self.span_start)
        return out

    def write_spans(self, path: str) -> None:
        """Save the spans as a NumPy archive: one row per span in the arrays
        name (an index into names), start, end, parent (a row, -1 at the
        top) and job (0 outside jobs)."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 job=np.frombuffer(self.span_job, dtype=np.int32))
