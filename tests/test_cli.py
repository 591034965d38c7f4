import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowdyn import io as sio
from shadowdyn.builders import fig1_circle
from shadowdyn import cli
from shadowdyn.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_SCHEMA, _dumps, main
from shadowdyn.measures import EmpiricalMeasure
from shadowdyn.systems import SymbolicSystem

F = Fraction


def run_cli(*argv):
    return main(list(argv))


def test_construct_fullshift_roundtrip(tmp_path):
    out = tmp_path / "sys.json"
    assert run_cli("construct", "fullshift:2", "--out", str(out)) == EXIT_OK
    system = sio.system_from_json(json.loads(out.read_text()))
    assert system.alphabet_size == 2


def test_construct_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("construct", "fig1", "--net", "36", "--out", str(a))
    run_cli("construct", "fig1", "--net", "36", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_chain_on_fig1(tmp_path):
    sysfile = tmp_path / "fig1.json"
    out = tmp_path / "chain.json"
    run_cli("construct", "fig1", "--net", "36", "--out", str(sysfile))
    assert run_cli("chain", "--system", str(sysfile), "--delta", "1/1000",
                   "--out", str(out)) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["classes"] == [[0], [12], [24]]


@pytest.mark.parametrize("argv, size, structure", [
    (("layered", "--levels", "3", "--net", "12"), 12 + 1 + 2 + 3, "layers"),
    (("extension", "--levels", "2"), 138, "levels"),
])
def test_built_net_documents_pass_the_loader_check(tmp_path, argv, size, structure):
    # the builder skips the metric check; the loader runs it on the document
    out = tmp_path / "net.json"
    assert run_cli("construct", *argv, "--out", str(out)) == EXIT_OK
    doc = json.loads(out.read_text())
    net = sio.system_from_json(doc)
    assert net.n == size and net.validate_metric().ok
    assert sorted(doc["structure"][structure]) == [str(n) for n in range(1, int(argv[2]) + 1)]


def test_entropy_past_the_clique_budget_exits_3(tmp_path, monkeypatch, capsys):
    from shadowdyn import entropy

    # 198 points: more candidates than a lowered clique budget admits
    sysfile = tmp_path / "layered.json"
    assert run_cli("construct", "layered", "--levels", "12", "--net", "120",
                   "--out", str(sysfile)) == EXIT_OK
    monkeypatch.setattr(entropy, "CLIQUE_LIMIT", 100)
    capsys.readouterr()
    assert run_cli("entropy", "--system", str(sysfile), "--eps", "1/20",
                   "--n", "1..2") == EXIT_BUDGET
    out = capsys.readouterr()
    assert out.out == "" and "clique search budget" in out.err


def test_chain_past_the_finitization_budget_exits_3():
    # 3^9 = 19,683 cylinder words on [-4, 4]: refused before the metric is built
    assert run_cli("chain", "--system", "fullshift:3", "--delta", "1/16",
                   "--depth", "4") == EXIT_BUDGET


def test_shadow_point_and_counterexample(tmp_path):
    out = tmp_path / "rep.json"
    point = json.dumps({"period": [0]})
    code = run_cli("shadow", "--system", "fullshift:2", "--eps", "1/4",
                   "--delta", "1/16", "--point", point, "--out", str(out))
    assert code == EXIT_OK
    assert json.loads(out.read_text())["verdict"] == "shadowable"

    code = run_cli("shadow", "--system", "fullshift:2", "--eps", "1/4",
                   "--delta", "1/2", "--point", point, "--horizon", "4",
                   "--out", str(out))
    assert code == EXIT_FAIL
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "counterexample"
    assert doc["counterexample"]["points"]


def test_entropy_with_csv(tmp_path):
    out = tmp_path / "ent.json"
    csv = tmp_path / "ent.csv"
    assert run_cli("entropy", "--system", "fullshift:2", "--eps", "3/4",
                   "--n", "1..6", "--csv", str(csv), "--out", str(out)) == EXIT_OK
    doc = json.loads(out.read_text())
    assert abs(doc["slope"] - math.log(2)) < 1e-9
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "n,cardinality,log_cardinality"
    assert len(lines) == 7


def test_horseshoe_and_verify_roundtrip(tmp_path):
    cert = tmp_path / "cert.json"
    base = json.dumps({"period": [0]})
    assert run_cli("horseshoe", "--system", "fullshift:2", "--base", base,
                   "--eps", "1/5", "--delta", "1/16", "--n-max", "40",
                   "--words", "3", "--out", str(cert)) == EXIT_OK
    assert run_cli("verify", str(cert), "--system", "fullshift:2") == EXIT_OK

    doc = json.loads(cert.read_text())
    doc["epsilon"] = "1/9"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert run_cli("verify", str(bad), "--system", "fullshift:2") == EXIT_SCHEMA


def test_dstar_subcommand(tmp_path):
    sigma2 = SymbolicSystem.full_shift(2)
    mu = EmpiricalMeasure.point_mass(sigma2.fixed_point(0))
    nu = EmpiricalMeasure.from_orbit(sigma2, sigma2.point((0, 1)), 2)
    mu_f, nu_f, out = tmp_path / "mu.json", tmp_path / "nu.json", tmp_path / "d.json"
    mu_f.write_text(json.dumps(sio.measure_to_json(mu)))
    nu_f.write_text(json.dumps(sio.measure_to_json(nu)))
    assert run_cli("dstar", "--system", "fullshift:2", "--mu", str(mu_f),
                   "--nu", str(nu_f), "--out", str(out)) == EXIT_OK
    doc = json.loads(out.read_text())
    val = sio.parse_frac(doc["value"])
    assert 0 < val <= 1


def test_approx_subcommand(tmp_path):
    comp = tmp_path / "components.json"
    out = tmp_path / "approx.json"
    comp.write_text(json.dumps({
        "components": [[{"period": [0]}, "1/2"], [{"period": [0, 1]}, "1/2"]]}))
    assert run_cli("approx", "--system", "fullshift:2", "--components",
                   str(comp), "--eps", "1/5", "--words", "2",
                   "--out", str(out)) == EXIT_OK
    doc = json.loads(out.read_text())
    assert sio.parse_frac(doc["total"]) <= sio.parse_frac(doc["bound"])
    # the embedded certificate re-verifies on its own
    report = sio.verify_certificate(doc["certificate"],
                                    SymbolicSystem.full_shift(2))
    assert report["ok"]


def test_schema_error_exit_code(tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text(json.dumps({"schema": "nonsense"}))
    assert run_cli("chain", "--system", str(garbage), "--delta", "1/8") == EXIT_SCHEMA


@pytest.mark.parametrize("value", ["0.125", "1e-3", " 1/8", "1/8 ", "+1/8", "1_000", "1 / 8",
                                   "1/0", "one"])
def test_rational_argument_outside_the_document_grammar_exit_code(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("chain", "--system", "goldenmean", "--delta", value, "--depth", "2")
    assert exc.value.code == EXIT_SCHEMA
    assert "not an exact rational" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1/8", "2/16", "0", "1"])
def test_rational_argument_in_the_document_grammar(value):
    assert run_cli("chain", "--system", "goldenmean", "--delta", value,
                   "--depth", "2") == EXIT_OK


def test_accept_single_criterion():
    assert run_cli("accept", "--only", "1") == EXIT_OK


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "shadowdyn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "construct" in proc.stdout


@pytest.mark.parametrize("system, point", [
    ("fullshift:2", '{"period": [-1]}'),   # negative symbol
    ("goldenmean", "[1]"),                 # not a point document
])
def test_malformed_point_exit_code(system, point):
    assert run_cli("shadow", "--system", system, "--eps", "1/4",
                   "--delta", "1/16", "--point", point) == EXIT_SCHEMA


def test_malformed_component_point_exit_code(tmp_path):
    comp = tmp_path / "components.json"
    comp.write_text(json.dumps({"components": [[{"period": 5}, "1"]]}))
    assert run_cli("approx", "--system", "fullshift:2", "--eps", "1/5",
                   "--components", str(comp)) == EXIT_SCHEMA


@pytest.mark.parametrize("doc", [
    [1, 2],                                                # not an object
    {"schema": "shadowdyn/system.v1", "kind": "symbolic",  # size as a string
     "alphabet_size": "2", "transitions": [[1, 1], [1, 1]]},
    {"schema": "shadowdyn/system.v1", "kind": "symbolic",  # a transition entry 2
     "alphabet_size": 1, "transitions": [[2]]},
    {"schema": "shadowdyn/system.v1", "kind": "symbolic",  # a transition entry -1
     "alphabet_size": 2, "transitions": [[1, -1], [1, 0]]},
    {"schema": "shadowdyn/system.v1", "kind": "circle",    # a map entry equal to the size
     "size": 3, "map": [1, 2, 3], "invertible": False},
])
def test_malformed_system_exit_code(tmp_path, doc):
    sysfile = tmp_path / "f.json"
    sysfile.write_text(json.dumps(doc))
    assert run_cli("chain", "--system", str(sysfile), "--delta", "1/8") == EXIT_SCHEMA


@pytest.mark.parametrize("spec", [
    {"components": 5},                                     # not a list
    {"components": [5]},                                   # not a pair
    {"components": [[{"period": [0]}, None]]},             # weight not a fraction
])
def test_malformed_components_exit_code(tmp_path, spec):
    comp = tmp_path / "components.json"
    comp.write_text(json.dumps(spec))
    assert run_cli("approx", "--system", "fullshift:2", "--eps", "1/5",
                   "--components", str(comp)) == EXIT_SCHEMA


@pytest.fixture(scope="module")
def fig1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig1") / "f36.json"
    run_cli("construct", "fig1", "--net", "36", "--out", str(path))
    return str(path)


@pytest.fixture(scope="module")
def fig1_table_file(tmp_path_factory, table_document):
    """The fig1(36) net as a table document (``construct`` writes its circle form)."""
    path = tmp_path_factory.mktemp("fig1") / "f36-table.json"
    path.write_text(json.dumps(table_document(fig1_circle(36))))
    return str(path)


@pytest.mark.parametrize("command, flag, point", [
    ("shadow", "--point", "-1"),       # negative index of a 36-point net
    ("shadow", "--point", "500"),      # past the last point
    ("horseshoe", "--base", "-3"),
])
def test_missing_net_point_exit_code(fig1_file, command, flag, point):
    assert run_cli(command, "--system", fig1_file, flag, point, "--eps", "1/36",
                   "--delta", "1/72") == EXIT_SCHEMA


@pytest.mark.parametrize("system, point, eps, delta", [
    ("fig1", "5", "1/9", "1/100"),
    ("fig1", None, "1/9", "1/100"),
    ("fullshift:2", json.dumps({"period": [0]}), "1/4", "1/2"),
])
def test_negative_horizon_exit_code(fig1_file, system, point, eps, delta, capsys):
    argv = ["shadow", "--system", fig1_file if system == "fig1" else system,
            "--eps", eps, "--delta", delta, "--horizon", "-1"]
    if point is not None:
        argv += ["--point", point]
    assert run_cli(*argv) == EXIT_SCHEMA
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("system, eps", [("fullshift:2", "3/4"), ("fig1", "1/20")])
@pytest.mark.parametrize("steps", ["-3..1", "-1..2"])
def test_negative_entropy_steps_exit_code(fig1_file, system, eps, steps, capsys):
    assert run_cli("entropy", "--system", fig1_file if system == "fig1" else system,
                   "--eps", eps, f"--n={steps}") == EXIT_SCHEMA
    out = capsys.readouterr()
    assert out.out == "" and "n must be >= 0" in out.err


def test_horseshoe_aborted_certificate_is_a_verdict(fig1_file, capsys):
    code = run_cli("horseshoe", "--system", fig1_file, "--base", "0",
                   "--eps", "1/36", "--delta", "1/6", "--n-max", "20", "--words", "3")
    assert code == EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["word"] == [1]


@pytest.mark.parametrize("doc", [
    [1],                                                   # not an object
    {"schema": "shadowdyn/measure.v1", "atoms": 5},        # atoms not a list
    {"schema": "shadowdyn/measure.v1", "atoms": [[{"period": [0]}]]},  # not a pair
])
def test_malformed_measure_exit_code(tmp_path, doc):
    sigma2 = SymbolicSystem.full_shift(2)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(sio.measure_to_json(
        EmpiricalMeasure.point_mass(sigma2.fixed_point(0)))))
    bad.write_text(json.dumps(doc))
    assert run_cli("dstar", "--system", "fullshift:2", "--mu", str(good),
                   "--nu", str(bad)) == EXIT_SCHEMA


@pytest.fixture(scope="module")
def certificate_doc():
    from shadowdyn.horseshoe import build_certificate, make_family
    from shadowdyn.pseudo_orbits import concatenate, connect, validate

    sigma2 = SymbolicSystem.full_shift(2)
    x = sigma2.fixed_point(0)
    q = sigma2.point((0,), word=(1,), offset=0)
    delta = F(1, 32)
    excursion = concatenate(connect(x, q, delta, sigma2),
                            connect(q, x, delta, sigma2))
    dwell = validate([x] * (excursion.step_count + 1), delta, sigma2)
    fam = make_family(sigma2, x, [dwell, excursion], F(1, 5), delta)
    return sio.certificate_to_json(build_certificate(fam, word_length_max=2))


def _set_coded_word(doc, word):
    doc["coded"][0]["word"] = word


def _set_witness_index(doc, index):
    doc["witnesses"][0]["index"] = index


def _rehashed(doc, tamper):
    doc = json.loads(json.dumps(doc))
    tamper(doc)
    doc["sha256"] = sio._payload_hash({k: v for k, v in doc.items() if k != "sha256"})
    return doc


@pytest.mark.parametrize("tamper", [
    pytest.param(lambda doc: _set_coded_word(doc, [5]), id="word-index-5"),
    pytest.param(lambda doc: _set_coded_word(doc, ["x"]), id="word-symbol-str"),
    pytest.param(lambda doc: _set_coded_word(doc, []), id="word-empty"),
    pytest.param(lambda doc: _set_witness_index(doc, 10 ** 6), id="witness-index-1e6"),
    pytest.param(lambda doc: doc.update(witnesses=[]), id="no-witnesses"),
    pytest.param(lambda doc: doc.update(loops=[]), id="no-loops"),
    pytest.param(lambda doc: doc.update(delta="-1/32"), id="negative-delta"),
    pytest.param(lambda doc: doc["witnesses"][0].update(a=7), id="witness-loop-7"),
    pytest.param(lambda doc: doc.update(entropy=None), id="entropy-null"),
])
def test_malformed_certificate_exit_code(tmp_path, certificate_doc, tamper):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate_doc))
    assert run_cli("verify", str(path), "--system", "fullshift:2") == EXIT_OK
    path.write_text(json.dumps(_rehashed(certificate_doc, tamper)))
    assert run_cli("verify", str(path), "--system", "fullshift:2") == EXIT_SCHEMA


def test_certificate_pair_without_witness_fails_verify(tmp_path, certificate_doc):
    # a well-formed witness of loop 0 against itself leaves the pair {0, 1}
    # without one: the family and the separation counts fail, nothing crashes
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_rehashed(
        certificate_doc, lambda doc: doc["witnesses"][0].update(b=0))))
    assert run_cli("verify", str(path), "--system", "fullshift:2") == EXIT_FAIL


def test_certificate_loop_off_the_base_fails_verify(tmp_path, certificate_doc):
    # loop 1 becomes the fixed-point loop at 1*: schema-valid, but not at the
    # base 0*, so the family, tracing and semiconjugacy checks fail
    def fixed_point_loop(doc):
        doc["loops"][1] = [{"period": [1]}] * len(doc["loops"][1])

    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_rehashed(certificate_doc, fixed_point_loop)))
    assert run_cli("verify", str(path), "--system", "fullshift:2") == EXIT_FAIL


@pytest.fixture(scope="module")
def goldenmean_words4_doc(tmp_path_factory):
    """The certificate ``horseshoe`` writes for goldenmean 0* at (1/9, 1/64),
    ``--words 4``."""
    path = tmp_path_factory.mktemp("cert") / "gm4.json"
    assert run_cli("horseshoe", "--system", "goldenmean", "--base", json.dumps({"period": [0]}),
                   "--eps", "1/9", "--delta", "1/64", "--words", "4",
                   "--out", str(path)) == EXIT_OK
    return json.loads(path.read_text())


def _loop_1_point_7_offset_12(doc):
    assert doc["loops"][1][7]["offset"] == -11
    doc["loops"][1][7]["offset"] = -12


def _loop_0_cut_to_one_point(doc):
    doc["loops"][0] = doc["loops"][0][:1]


@pytest.mark.parametrize("tamper, fault", [
    (_loop_1_point_7_offset_12, {"loop": 1, "step": 6}),   # error 1 > delta 1/64
    (_loop_0_cut_to_one_point, {"loop": 0, "steps": 0}),
], ids=["step-above-delta", "one-point-loop"])
def test_certificate_loop_fault_is_a_verdict(tmp_path, goldenmean_words4_doc, tamper, fault,
                                             capsys):
    # a hash-valid certificate whose loop breaks its claim gets a report
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_rehashed(goldenmean_words4_doc, tamper)))
    assert run_cli("verify", str(path), "--system", "goldenmean") == EXIT_FAIL
    report = json.loads(capsys.readouterr().out)
    assert report["checks"]["family"] is False
    assert report["details"]["loop_faults"] == [fault]


@pytest.mark.parametrize("key, value", [
    ("metric", 0.25),       # d(0, 9) = 1/4 as a float
    ("resolution", True),   # a boolean where a rational belongs
])
def test_net_file_with_a_float_or_bool_exit_code(tmp_path, fig1_table_file, key, value):
    doc = json.loads(open(fig1_table_file).read())
    if key == "metric":
        assert doc["metric"][0][9] == doc["metric"][9][0] == "1/4"
        doc["metric"][0][9] = doc["metric"][9][0] = value
    else:
        doc[key] = value
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert run_cli("shadow", "--system", str(path), "--eps", "1/36",
                   "--delta", "1/72", "--point", "3") == EXIT_SCHEMA


def _break_metric(metric, edit):
    """Break the fig1(36) document's metric in one place."""
    if edit == "asymmetric":
        metric[0][9] = "1/3"
    elif edit == "triangle":
        # d(0, 18) = 1/2 = d(0, 9) + d(9, 18) before the edit
        metric[0][18] = metric[18][0] = "3/4"
    else:
        metric[5][5] = "1/36"


@pytest.mark.parametrize("edit", ["asymmetric", "triangle", "diagonal"])
@pytest.mark.parametrize("argv", [
    ("chain", "--delta", "1/72"),
    ("shadow", "--eps", "1/36", "--delta", "1/72", "--point", "3"),
    ("entropy", "--eps", "1/36", "--n", "0..1"),
    ("horseshoe", "--base", "0", "--eps", "1/36", "--delta", "1/72"),
], ids=lambda argv: argv[0])
def test_net_document_with_a_broken_metric_exit_code(tmp_path, fig1_table_file, edit, argv,
                                                     capsys):
    doc = json.loads(open(fig1_table_file).read())
    _break_metric(doc["metric"], edit)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert run_cli(argv[0], "--system", str(path), *argv[1:]) == EXIT_SCHEMA
    out = capsys.readouterr()
    assert out.out == "" and "invalid metric" in out.err


@pytest.mark.parametrize("only", ["0", "11", "-1"])
def test_accept_criterion_out_of_range_exit_code(only):
    assert run_cli("accept", "--only", only) == EXIT_SCHEMA


@pytest.mark.parametrize("words", ["0", "-1"])
def test_approx_without_coded_words_exit_code(tmp_path, words, capsys):
    comp = tmp_path / "components.json"
    comp.write_text(json.dumps({"components": [[{"period": [0]}, "1"]]}))
    assert run_cli("approx", "--system", "fullshift:2", "--components", str(comp),
                   "--eps", "1/5", "--words", words) == EXIT_SCHEMA
    assert "word_length" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--words", "0"), ("--words", "-2"), ("--k", "0"),
                                        ("--k", "-1"), ("--n-max", "0")])
def test_horseshoe_counts_below_one_exit_code(flag, value, capsys):
    # a wordless certificate would verify vacuously, and no family has no loop
    assert run_cli("horseshoe", "--system", "goldenmean", "--base", json.dumps({"period": [0]}),
                   "--eps", "1/9", "--delta", "1/64", flag, value) == EXIT_SCHEMA
    out = capsys.readouterr()
    assert out.out == "" and "at least 1" in out.err


@pytest.mark.parametrize("size", ["0", "-3"])
def test_layered_net_without_a_base_point_exit_code(size, capsys):
    assert run_cli("construct", "layered", "--levels", "3", "--net", size) == EXIT_SCHEMA
    out = capsys.readouterr()
    assert out.out == "" and "at least one base point" in out.err


@pytest.mark.parametrize("word_length_max", [0, -2])
def test_verify_rejects_a_wordless_certificate(tmp_path, word_length_max, capsys):
    cert = tmp_path / "cert.json"
    assert run_cli("horseshoe", "--system", "goldenmean", "--base", json.dumps({"period": [0]}),
                   "--eps", "1/9", "--delta", "1/64", "--words", "1",
                   "--out", str(cert)) == EXIT_OK
    doc = json.loads(cert.read_text())
    doc["word_length_max"], doc["coded"] = word_length_max, []
    doc["sha256"] = sio._payload_hash({k: v for k, v in doc.items() if k != "sha256"})
    cert.write_text(json.dumps(doc))
    assert run_cli("verify", str(cert), "--system", "goldenmean") == EXIT_SCHEMA
    out = capsys.readouterr()
    assert out.out == "" and "word_length_max" in out.err


# -- the document writer ------------------------------------------------------

_LEAVES = st.one_of(
    st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.booleans(), st.none(),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]),
    st.fractions(), st.text(), st.sampled_from(['"\\\n\t\x00', "é ü ∞", "\U0001f600"]))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
        *(st.dictionaries(keys, children, max_size=5)
          for keys in (st.text(), st.integers(), st.floats(), st.booleans())))


@settings(max_examples=400, deadline=None)
@given(st.recursive(_LEAVES, _containers, max_leaves=30))
def test_document_writer_matches_indented_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, sort_keys=True, indent=1, default=str)


@pytest.fixture(scope="module")
def document_inputs(tmp_path_factory):
    """The input files of one run of each subcommand that writes a document."""
    root = tmp_path_factory.mktemp("documents")
    sigma2 = SymbolicSystem.full_shift(2)
    files = {"mu": root / "mu.json", "nu": root / "nu.json",
             "components": root / "components.json", "cert": root / "cert.json"}
    files["mu"].write_text(json.dumps(sio.measure_to_json(
        EmpiricalMeasure.point_mass(sigma2.fixed_point(0)))))
    files["nu"].write_text(json.dumps(sio.measure_to_json(
        EmpiricalMeasure.from_orbit(sigma2, sigma2.point((0, 1)), 2))))
    files["components"].write_text(json.dumps({
        "components": [[{"period": [0]}, "1/2"], [{"period": [0, 1]}, "1/2"]]}))
    run_cli("horseshoe", "--system", "fullshift:2", "--base", json.dumps({"period": [0]}),
            "--eps", "1/5", "--delta", "1/16", "--n-max", "40", "--words", "2",
            "--out", str(files["cert"]))
    return {k: str(v) for k, v in files.items()}


DOCUMENT_RUNS = {
    "construct": lambda f: ["construct", "fig1", "--net", "12"],
    "chain": lambda f: ["chain", "--system", "goldenmean", "--delta", "1/8", "--depth", "2"],
    "shadow": lambda f: ["shadow", "--system", "fullshift:2", "--eps", "1/4", "--delta", "1/2",
                         "--point", json.dumps({"period": [0]}), "--horizon", "4"],
    "horseshoe": lambda f: ["horseshoe", "--system", "goldenmean",
                            "--base", json.dumps({"period": [0]}), "--eps", "1/9",
                            "--delta", "1/64", "--words", "2"],
    "entropy": lambda f: ["entropy", "--system", "fullshift:2", "--eps", "3/4", "--n", "1..4"],
    "dstar": lambda f: ["dstar", "--system", "fullshift:2", "--mu", f["mu"], "--nu", f["nu"]],
    "approx": lambda f: ["approx", "--system", "fullshift:2", "--components", f["components"],
                         "--eps", "1/5", "--words", "1"],
    "verify": lambda f: ["verify", f["cert"], "--system", "fullshift:2"],
}


@pytest.mark.parametrize("command", sorted(DOCUMENT_RUNS))
def test_documents_are_indented_json_on_both_sinks(command, document_inputs, tmp_path, capsys):
    argv = DOCUMENT_RUNS[command](document_inputs)
    code = main(argv)
    stdout = capsys.readouterr().out
    assert stdout == json.dumps(json.loads(stdout), sort_keys=True, indent=1) + "\n"
    out = tmp_path / "doc.json"
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


# -- the parser of one subcommand ---------------------------------------------

# per subcommand, one call with a bad argument: an unparsable value, a missing
# requirement, or a word past the last argument (an error of the top parser,
# printed under its usage)
BAD_ARGUMENTS = [
    ["construct", "fig1", "--net", "many"],
    ["chain", "--system", "goldenmean", "--delta", "0.5"],
    ["shadow", "--system", "goldenmean", "--eps", "1/4"],
    ["horseshoe", "--system", "goldenmean", "--base", "0", "--eps", "1/9", "--delta", "1/64",
     "--k", "two"],
    ["entropy", "--system", "goldenmean", "--eps", "1/4", "--n", "1..2", "--bogus"],
    ["dstar", "--system", "goldenmean", "--mu", "mu.json"],
    ["approx", "--system", "goldenmean", "--components", "c.json", "--eps", "1/5",
     "--words", "3.5"],
    ["verify", "cert.json", "--system", "goldenmean", "extra"],
    ["accept", "--only"],
]
PARSER_RUNS = ([[], ["--help"], ["-h"], ["bogus"], ["bogus", "--help"]]
               + [[name, "--help"] for name, *_ in cli.COMMANDS] + BAD_ARGUMENTS)


def _parse_outcome(argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    out = capsys.readouterr()
    return stop.value.code, out.out, out.err


@pytest.mark.parametrize("argv", PARSER_RUNS, ids=" ".join)
def test_one_subcommand_parser_prints_as_the_full_parser(argv, capsys, monkeypatch):
    got = _parse_outcome(argv, capsys)
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda _argv: build([]))
    assert got == _parse_outcome(argv, capsys)


def test_verify_builds_one_subparser(tmp_path, goldenmean_words4_doc, monkeypatch, capsys):
    import argparse

    path = tmp_path / "cert.json"
    path.write_text(json.dumps(goldenmean_words4_doc))
    added = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: added.append(name) or add_parser(self, name, **kw))
    assert run_cli("verify", str(path), "--system", "goldenmean") == EXIT_OK
    assert added == ["verify"]
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_certificate_load_admits_each_point_shape_once(goldenmean_words4_doc, monkeypatch):
    doc = goldenmean_words4_doc
    points = [doc["base"], *(p for lp in doc["loops"] for p in lp),
              *(e["shadow"] for e in doc["coded"])]
    shapes = {(tuple(p["period"]), tuple(p.get("word", []))) for p in points}
    assert len(shapes) < len(points)
    scans = []
    admissible = SymbolicSystem.admissible
    monkeypatch.setattr(SymbolicSystem, "admissible",
                        lambda self, p: scans.append(p) or admissible(self, p))
    cert = sio.certificate_from_json(doc, SymbolicSystem.golden_mean())
    assert len(scans) <= len(shapes)
    assert len({(p.period, p.word) for p in scans}) == len(scans)
    monkeypatch.undo()
    assert cert.check()["ok"]
