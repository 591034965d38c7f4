"""Layout checks on the package source: the algorithm modules use the
system protocol instead of testing the kind of a system or point, no module
imports a name it never uses, every defaulted parameter of a public
function, constructor or method has a caller that passes it, every
parameter is read by its function (or, on a system-protocol method, by
another implementation of the method), loop families
are built only by ``make_family`` (and the certificate loader), ``systems``
imports nothing from ``shadow_search``, no JSON call in the package passes
``indent`` (``cli._emit`` indents documents itself), the README's Layout
table has one row per module, and the short demos run."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shadowdyn"
CALLER_DIRS = ("src", "tests", "demos", "perfbench")

PROTOCOL_MODULES = ("pseudo_orbits", "shadowing", "shadow_search", "chain", "entropy",
                    "measures", "horseshoe", "approx", "builders")
KIND_TYPES = {"SymbolicSystem", "NetSystem", "SymbolicPoint", "CylinderNet"}
KIND_NAMES = {"net", "symbolic"}

# Demos 02 and 05 take long enough to stay out of the default run.
QUICK_DEMOS = ("01_systems_and_pseudo_orbits", "03_horseshoe_certificates",
               "04_entropy_and_weak_star_metric", "06_layered_and_extension_spaces")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("module", PROTOCOL_MODULES)
def test_no_kind_tests_in_algorithm_modules(module):
    found = []
    for node in ast.walk(_parse(SRC / f"{module}.py")):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
            if names & KIND_TYPES:
                found.append(node.lineno)
        elif isinstance(node, ast.Compare):
            # an attribute ``kind`` compared with a kind name
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Attribute) and o.attr == "kind" for o in operands)
                    and any(isinstance(o, ast.Constant) and o.value in KIND_NAMES
                            for o in operands)):
                found.append(node.lineno)
    assert not found, f"{module}.py tests a system or point kind on lines {found}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = sorted(set(imported) - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _passed_arguments() -> dict:
    """Function or method name -> the keywords and positional indices some
    call in the repository passes to it ("*" for a starred argument)."""
    passed: dict = {}
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name is None:
                    continue
                got = passed.setdefault(name, set())
                got.update(range(len(node.args)))
                got.update(k.arg or "*" for k in node.keywords)
                if any(isinstance(a, ast.Starred) for a in node.args):
                    got.add("*")
    return passed


def _public_parameters():
    """(label, name a call uses, parameters a call can pass) for every function
    of ``shadowdyn.__all__`` and every constructor and method of its classes,
    dataclass-generated constructors included."""
    import shadowdyn

    for name in shadowdyn.__all__:
        obj = getattr(shadowdyn, name)
        if inspect.isfunction(obj):
            yield name, name, inspect.signature(obj).parameters.values()
        if not inspect.isclass(obj):
            continue
        for attr, member in vars(obj).items():
            if attr == "__init__" and inspect.isfunction(member):
                yield f"{name}.__init__", name, inspect.signature(obj).parameters.values()
            elif isinstance(member, (classmethod, staticmethod)):
                yield (f"{name}.{attr}", attr,
                       inspect.signature(getattr(obj, attr)).parameters.values())
            elif inspect.isfunction(member) and not attr.startswith("__"):
                # an instance method: a call passes everything after self
                yield (f"{name}.{attr}", attr,
                       list(inspect.signature(member).parameters.values())[1:])


def test_every_public_default_has_a_caller():
    """A defaulted parameter that no call passes is a constant in disguise."""
    passed = _passed_arguments()
    idle = []
    for label, called, params in _public_parameters():
        got = passed.get(called, set())
        for i, param in enumerate(params):
            positional = param.kind is not param.KEYWORD_ONLY and i in got
            if (param.default is not param.empty
                    and not ("*" in got or param.name in got or positional)):
                idle.append(f"{label}.{param.name}")
    assert not idle, f"defaulted parameters no call passes: {idle}"


def _parameter_reads():
    """(label, class name or None, function name, {parameter: whether the
    body reads it}) for every module-level function and class method of the
    package; a method's self or cls is not counted."""
    for path in sorted(SRC.glob("*.py")):
        for top in _parse(path).body:
            if isinstance(top, ast.FunctionDef):
                functions = [(None, top)]
            elif isinstance(top, ast.ClassDef):
                functions = [(top.name, f) for f in top.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for owner, fn in functions:
                args = fn.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                          *(a for a in (args.vararg, args.kwarg) if a)]
                if owner and not any(getattr(d, "id", None) == "staticmethod"
                                     for d in fn.decorator_list):
                    params = params[1:]
                reads = {n.id for stmt in fn.body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                label = f"{path.stem}.{owner + '.' if owner else ''}{fn.name}"
                yield label, owner, fn.name, {p.arg: p.arg in reads for p in params}


def test_every_parameter_is_read():
    """A parameter that nothing reads is a knob that does nothing.  A method
    of the system protocol may leave one to the other kinds of system: it
    passes when another implementation of the same method reads it."""
    protocol: dict = {}
    found = []
    for label, owner, name, read in _parameter_reads():
        if owner in KIND_TYPES:
            protocol.setdefault(name, []).append((label, owner, read))
        else:
            found += [f"{label}.{p}" for p, r in read.items() if not r]
    for implementations in protocol.values():
        for label, owner, read in implementations:
            found += [f"{label}.{p}" for p, r in read.items()
                      if not r and not any(other_read.get(p) for _, other, other_read
                                           in implementations if other != owner)]
    assert not found, f"parameters no function reads: {found}"


# (module, function) pairs that may construct a LoopFamily: the one rule that
# certifies loops, and the loader, which checks stored witnesses instead of
# recomputing them.
FAMILY_CONSTRUCTORS = {("horseshoe", "make_family"), ("io", "certificate_from_json")}


def test_loop_families_come_from_make_family():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in _parse(path).body:
            if (path.stem, getattr(top, "name", None)) in FAMILY_CONSTRUCTORS:
                continue
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Call) and "LoopFamily" in (
                          getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert not found, f"LoopFamily built outside make_family: {found}"


def test_systems_imports_nothing_from_shadow_search():
    """Layer 0 (points, metrics and the system protocol) does not depend on
    layer 2 (the search engines): a system gives its search steps, and the
    search runs them."""
    found = []
    for node in ast.walk(_parse(SRC / "systems.py")):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        if any(m.split(".")[-1] == "shadow_search" for m in modules):
            found.append(node.lineno)
    assert not found, f"systems.py imports from shadow_search on lines {found}"


def test_no_indented_json_calls():
    """An ``indent`` turns the stdlib's C encoder off, so documents have one
    writer, ``cli._emit``, which indents them itself."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Call)
                    and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                    in ("dump", "dumps", "JSONEncoder")
                    and any(k.arg == "indent" for k in node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"JSON calls that pass indent: {found}"


def test_readme_layout_has_one_row_per_module():
    rows = [line.split("|")[1].strip() for line in
            (ROOT / "README.md").read_text().splitlines()
            if line.startswith("| `shadowdyn.")]
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert sorted(rows) == [f"`shadowdyn.{m}`" for m in modules]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo):
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
