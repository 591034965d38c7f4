"""Command-line front end.

Subcommands: construct, chain, shadow, horseshoe, entropy, dstar, approx,
verify, accept.  Rationals are parsed exactly ("p/q" or integers); outputs
are deterministic JSON (sorted keys) with every claimed number exact.
Every document goes through ``_emit``: the text of ``json.dumps(doc,
sort_keys=True, indent=1, default=str)``, encoded by ``_pieces`` with the
stdlib's C encoder and streamed, piece by piece, to stdout or, the same
bytes, to the ``--out`` file.

Exit codes: 0 success / verdict holds, 1 verdict fails (counterexample or
failed verification), 2 schema or argument error, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import io as sio
from .approx import PipelineStageError, approximate_by_positive_entropy_ergodic
from .builders import dense_shadowable_example, extension_builder, fig1_circle
from .chain import build_chain_graph, decomposition
from .entropy import entropy_estimate
from .horseshoe import CertificateAborted, build_certificate, find_loop_family
from .measures import TestFunctionFamily, dstar
from .shadowing import has_shadowing_at_resolution, is_positively_shadowable_at
from .systems import BudgetExceeded, SymbolicSystem
from .words import SubstitutionLanguage

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_BUDGET = 3


def _frac(s: str) -> Fraction:
    """A rational argument in the grammar of documents, ``-?[0-9]+(/[0-9]+)?``."""
    try:
        return sio.parse_frac(s)
    except sio.SchemaError as err:
        raise argparse.ArgumentTypeError(f"not an exact rational: {s!r}") from err


def _pieces(doc) -> list:
    """The text of ``json.dumps(doc, sort_keys=True, indent=1, default=str)``,
    as a list of pieces to write in order.

    Any ``indent`` makes the stdlib encode element by element in Python, so
    only the containers that hold other containers are walked here.  Every
    container that holds none is encoded in C with the indented separators
    of its level, which gives the indented text once its brackets are
    rewrapped; scalars, keys and ``default`` go through the same encoders.
    """
    encoders = {}

    def encode(o, level=0):
        if level not in encoders:
            encoders[level] = json.JSONEncoder(
                separators=(",\n" + " " * (level + 1), ": "), sort_keys=True, default=str)
        return encoders[level].encode(o)

    out = []
    _write(doc, 0, encode, out, {})
    return out


def _write(o, level, encode, out, texts):
    """Append the text of ``o`` at nesting ``level`` to ``out``.  ``texts``
    holds the text of each container that holds no container, keyed by
    (id, level), so one that recurs is encoded once; the document holds
    every such container until the walk ends, so no id is reused.  (A
    module function, not a closure of ``_pieces``: a recursive closure is a
    reference cycle, which would keep ``out`` alive until the cyclic GC
    runs.)"""
    is_dict = isinstance(o, dict)
    if not (is_dict or isinstance(o, (list, tuple))):
        out.append(encode(o))
        return
    key = (id(o), level)
    text = texts.get(key)
    if text is not None:
        out.append(text)
        return
    inner, outer = "\n" + " " * (level + 1), "\n" + " " * level
    values = o.values() if is_dict else o
    if not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values))):
        text = encode(o, level)
        if len(text) > 2:
            text = text[0] + inner + text[1:-1] + outer + text[-1]
        texts[key] = text
        out.append(text)
        return
    pairs = ([(_key(k, encode), v) for k, v in sorted(o.items())] if is_dict
             else [("", v) for v in o])
    out.append("{" if is_dict else "[")
    for i, (prefix, v) in enumerate(pairs):
        out.append(("," if i else "") + inner + prefix)
        _write(v, level + 1, encode, out, texts)
    out.append(outer + ("}" if is_dict else "]"))


def _key(k, encode) -> str:
    if not isinstance(k, (str, int, float)) and k is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {k.__class__.__name__}")
    return encode(k if isinstance(k, str) else encode(k)) + ": "


def _emit(doc, path=None):
    """Write the document to ``path``, or to stdout, once all of it is
    encoded: a document that fails to encode writes nothing."""
    pieces = _pieces(doc)
    pieces.append("\n")
    if path:
        with open(path, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _load_system(path: str):
    return sio.system_from_json(sio.load(path))


def _named_system(name: str):
    if name.startswith("fullshift:"):
        return SymbolicSystem.full_shift(int(name.split(":", 1)[1]))
    if name == "goldenmean":
        return SymbolicSystem.golden_mean()
    raise argparse.ArgumentTypeError(f"unknown system name {name!r}")


def _system_arg(value: str):
    if os.path.exists(value):
        return _load_system(value)
    return _named_system(value)


def _point_arg(value: str, system):
    return sio.point_from_json(json.loads(value), system)


def cmd_construct(args) -> int:
    if args.builder == "fig1":
        system = fig1_circle(args.net)
        extra = {}
    elif args.builder == "layered":
        space = dense_shadowable_example(args.levels, base_size=args.net)
        system = space.net
        extra = {"layers": {str(n): list(m) for n, m in space.layers.items()},
                 "gaps": {str(n): sio.frac_str(g) for n, g in space.gaps.items()},
                 "base": list(space.base_indices)}
    elif args.builder == "extension":
        space = extension_builder(SubstitutionLanguage.fibonacci(), args.levels)
        system = space.net
        extra = {"base": list(space.base_indices),
                 "levels": {str(n): list(l.indices) for n, l in space.levels.items()}}
    else:
        system = _named_system(args.builder)
        extra = {}
    doc = sio.system_to_json(system)
    if extra:
        doc["structure"] = extra
    _emit(doc, args.out)
    return EXIT_OK


def cmd_chain(args) -> int:
    system = _system_arg(args.system)
    graph = build_chain_graph(system, args.delta, depth=args.depth)
    dec = decomposition(graph)
    doc = {"delta": sio.frac_str(args.delta),
           "depth": graph.depth_stamp,
           "recurrent": sorted(dec.recurrent_nodes),
           "classes": [sorted(c) for c in dec.classes]}
    _emit(doc, args.out)
    return EXIT_OK


def cmd_shadow(args) -> int:
    system = _system_arg(args.system)
    if args.point is not None:
        point = _point_arg(args.point, system)
        rep = is_positively_shadowable_at(system, point, args.eps, args.delta,
                                          horizon=args.horizon, budget=args.budget)
    else:
        rep = has_shadowing_at_resolution(system, args.delta, args.eps,
                                          horizon=args.horizon,
                                          two_sided=args.two_sided,
                                          budget=args.budget)
    doc = {"verdict": rep.verdict,
           "eps": sio.frac_str(rep.epsilon), "delta": sio.frac_str(rep.delta),
           "horizon": rep.horizon, "stamps": {k: str(v) for k, v in rep.stamps.items()}}
    if rep.counterexample is not None:
        doc["counterexample"] = sio.orbit_to_json(rep.counterexample)
    _emit(doc, args.out)
    return EXIT_OK if rep.shadowable else EXIT_FAIL


def cmd_horseshoe(args) -> int:
    if min(args.k, args.n_max, args.words) < 1:
        raise ValueError("--k, --n-max and --words must be at least 1")
    system = _system_arg(args.system)
    base = _point_arg(args.base, system)
    fam = find_loop_family(base, args.eps, args.delta, args.n_max, args.k, system)
    if fam is None:
        _emit({"result": "no loop family found"}, args.out)
        return EXIT_FAIL
    try:
        cert = build_certificate(fam, word_length_max=args.words)
    except CertificateAborted as err:
        _emit({"result": "certificate aborted: word admits no shadow",
               "word": list(err.word)}, args.out)
        return EXIT_FAIL
    _emit(sio.certificate_to_json(cert), args.out)
    return EXIT_OK


def cmd_entropy(args) -> int:
    system = _system_arg(args.system)
    lo, hi = (int(x) for x in args.n.split(".."))
    est = entropy_estimate(system, args.eps, range(lo, hi + 1))
    doc = {"eps": sio.frac_str(args.eps),
           "entries": [[n, c] for n, c in est.entries],
           "slope": est.slope, "intercept": est.intercept,
           "residuals": est.residuals}
    _emit(doc, args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("n,cardinality,log_cardinality\n")
            for n, c in est.entries:
                fh.write(f"{n},{c},{math.log(c)}\n")
    return EXIT_OK


def cmd_dstar(args) -> int:
    system = _system_arg(args.system)
    mu = sio.measure_from_json(sio.load(args.mu), system)
    nu = sio.measure_from_json(sio.load(args.nu), system)
    family = TestFunctionFamily.for_system(system, size=args.terms)
    res = dstar(mu, nu, family)
    _emit({"value": sio.frac_str(res.value),
           "decimal": float(res.value),
           "tail_bound": sio.frac_str(res.tail_bound),
           "terms": res.terms}, args.out)
    return EXIT_OK


def cmd_approx(args) -> int:
    system = _system_arg(args.system)
    components = sio.components_from_json(sio.load(args.components), system)
    res = approximate_by_positive_entropy_ergodic(system, components, args.eps,
                                                  word_length=args.words)
    doc = {"epsilon": sio.frac_str(res.epsilon),
           "bound": sio.frac_str(res.bound),
           "total": sio.frac_str(res.total),
           "terms": {k: sio.frac_str(v) for k, v in res.terms.items()},
           "coded_word": list(res.coded_word),
           "nu": sio.measure_to_json(res.nu),
           "stages": [[name, {k: str(v) for k, v in detail.items()}]
                      for name, detail in res.stages],
           "certificate": sio.certificate_to_json(res.certificate)}
    _emit(doc, args.out)
    return EXIT_OK if res.ok else EXIT_FAIL


def cmd_verify(args) -> int:
    system = _system_arg(args.system)
    doc = sio.load(args.certificate)
    report = sio.verify_certificate(doc, system)
    _emit(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_FAIL


def cmd_accept(args) -> int:
    from . import acceptance

    results = acceptance.run_all(only=args.only)
    for res in results:
        print(res.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


_OUT = (("--out",), {})
_SYSTEM = (("--system",), {"required": True})
_EPS = (("--eps",), {"type": _frac, "required": True})
_DELTA = (("--delta",), {"type": _frac, "required": True})

# (name, help, handler, arguments): each argument is (flags, keywords) of
# ``add_argument``
COMMANDS = (
    ("construct", "build a named example system", cmd_construct, (
        (("builder",), {"help": "fig1 | layered | extension | fullshift:<k> | goldenmean"}),
        (("--net",), {"type": int, "default": 360, "help": "net size (fig1/layered)"}),
        (("--levels",), {"type": int, "default": 12, "help": "layer count"}),
        (("--out",), {"help": "output file (default stdout)"}))),
    ("chain", "chain-recurrent set and classes", cmd_chain, (
        _SYSTEM, _DELTA,
        (("--depth",), {"type": int, "help": "cylinder depth for symbolic systems"}),
        _OUT)),
    ("shadow", "shadowability verdicts", cmd_shadow, (
        _SYSTEM, _EPS, _DELTA,
        (("--horizon",), {"type": int, "default": 10}),
        (("--two-sided",), {"action": "store_true"}),
        (("--point",), {"help": "start point (index or JSON symbolic point); "
                                "omit to quantify over all start points"}),
        (("--budget",), {"type": int, "default": 10 ** 6}),
        _OUT)),
    ("horseshoe", "loop family search and certificate", cmd_horseshoe, (
        _SYSTEM, (("--base",), {"required": True}), _EPS, _DELTA,
        (("--k",), {"type": int, "default": 2}),
        (("--n-max",), {"type": int, "default": 64}),
        (("--words",), {"type": int, "default": 4}),
        _OUT)),
    ("entropy", "separated-set growth and slope", cmd_entropy, (
        _SYSTEM, _EPS,
        (("--n",), {"required": True, "help": "range lo..hi"}),
        (("--csv",), {"help": "also write a CSV table"}),
        _OUT)),
    ("dstar", "exact weak* distance of two measures", cmd_dstar, (
        _SYSTEM,
        (("--mu",), {"required": True, "help": "measure JSON file"}),
        (("--nu",), {"required": True, "help": "measure JSON file"}),
        (("--terms",), {"type": int, "default": 24}),
        _OUT)),
    ("approx", "positive-entropy approximation pipeline", cmd_approx, (
        _SYSTEM,
        (("--components",), {"required": True,
                             "help": "JSON file {components: [[point, weight], ...]}"}),
        _EPS,
        (("--words",), {"type": int, "default": 3}),
        _OUT)),
    ("verify", "re-check a certificate file", cmd_verify, (
        (("certificate",), {}), _SYSTEM, _OUT)),
    ("accept", "run the acceptance criteria", cmd_accept, (
        (("--only",), {"type": int, "help": "run one criterion"}),)),
)


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``.  When ``argv[0]`` names a subcommand, only
    that one is registered, under the usage line of all nine (the top parser
    prints it with an error such as an unrecognized argument); otherwise all
    nine are.  Help, usage and error texts are those of the full parser."""
    parser = argparse.ArgumentParser(
        prog="shadowdyn",
        description="pseudo-orbit, shadowing, chain-recurrence and entropy "
                    "machinery on finitely represented dynamical systems")
    commands = [c for c in COMMANDS if argv and c[0] == argv[0]]
    metavar = "{" + ",".join(c[0] for c in COMMANDS) + "}" if commands else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, handler, arguments in commands or COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except sio.SchemaError as err:
        print(f"schema error: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except BudgetExceeded as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as err:
        print(f"out of memory: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except PipelineStageError as err:
        print(f"pipeline stage failed: {err}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
