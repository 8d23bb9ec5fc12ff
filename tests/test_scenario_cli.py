import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emdyn
from emdyn import cli, circuit, opcore, scenario
from emdyn.errors import NotHermitian, ParseError, ValidationError
from emdyn.scenario import (MAX_PAULI_FACTORS, VALID_TASKS, emit_scenario,
                            parse_operator, parse_scenario, parse_state)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
task: equivalence
system:
  operators:
    A: sz
    B: sx
coupling:
  gamma: 10.0
  eta: 1.0
  phi: 1.5707963267948966
sweep:
  gamma: [10.0, 100.0, 1000.0, 10000.0]
  t: [1.0]
"""


def test_parse_minimal_scenario():
    s = parse_scenario(MINIMAL)
    assert s.task == "equivalence"
    assert s.seed == 0
    npt.assert_array_equal(s.operator("A"), np.diag([1.0, -1.0]))
    c = s.build_coupling()
    assert c.gamma == 10.0 and c.eta == 1.0


def test_round_trip_equality():
    s = parse_scenario(MINIMAL)
    assert parse_scenario(emit_scenario(s)) == s


def test_round_trip_all_sample_scenarios():
    for path in sorted(SCENARIO_DIR.glob("*.yaml")):
        s = parse_scenario(path.read_text())
        assert parse_scenario(emit_scenario(s)) == s, path.name


@pytest.mark.parametrize("name", sorted(
    p.name for p in SCENARIO_DIR.glob("*.yaml")))
def test_load_scenario_reads_the_file(name):
    path = SCENARIO_DIR / name
    assert (scenario.load_scenario(path)
            == parse_scenario(path.read_text(encoding="utf-8")))


@st.composite
def scenario_docs(draw):
    """A valid scenario document as a mapping: every top-level section is
    optional, names are free text, numbers span several decades."""
    finite = st.floats(-1e6, 1e6)
    pauli = st.sampled_from(["sx", "sy", "sz", "id"])
    qubit_ops = st.one_of(
        st.builds(lambda c, p, q: f"{c}*{p} - {q}", finite, pauli, pauli),
        st.builds(lambda a, b, c: [[a, b], [b, c]], finite, finite, finite))
    doc = {"name": draw(st.text(max_size=20)),
           "task": draw(st.sampled_from(VALID_TASKS)),
           "seed": draw(st.integers(0, 2 ** 31))}
    sections = {
        "system": st.fixed_dictionaries(
            {"operators": st.fixed_dictionaries({"A": qubit_ops,
                                                 "B": qubit_ops})},
            optional={"controls": st.lists(qubit_ops, max_size=2),
                      "lambda_a": finite}),
        "coupling": st.fixed_dictionaries(
            {"gamma": st.floats(1e-3, 1e6)},
            optional={"eta": st.floats(0.0, 1e6),
                      "phi": st.floats(-np.pi, np.pi), "g": finite}),
        "sweep": st.fixed_dictionaries(
            {"t": st.lists(st.floats(0.0, 1e3), min_size=1, max_size=3)},
            optional={"gamma": st.lists(st.floats(1e-3, 1e6), min_size=1,
                                        max_size=3)}),
        "initial": st.dictionaries(
            st.sampled_from(["rho1", "rho2", "psi0"]),
            st.one_of(st.sampled_from(["0", "1", "+", "-"]),
                      st.lists(finite, min_size=2, max_size=2))),
        "output": st.fixed_dictionaries({"path": st.text(st.characters(
            exclude_categories=("Cs",), exclude_characters="\0"),
            max_size=20)}),
        "margin": st.floats(1e-3, 1e6)}
    for key, section in sections.items():
        if draw(st.booleans()):
            doc[key] = draw(section)
    return doc


@settings(max_examples=100, deadline=None)
@given(scenario_docs(), st.sampled_from([None, False, True]))
def test_libyaml_and_python_loaders_agree(doc, flow):
    text = yaml.safe_dump(doc, default_flow_style=flow, allow_unicode=True)
    fast = yaml.load(text, Loader=scenario._LOADER)
    slow = yaml.load(text, Loader=yaml.SafeLoader)
    assert fast == slow
    assert repr(fast) == repr(slow)


@settings(max_examples=100, deadline=None)
@given(scenario_docs())
@example({"name": "a\x85b", "task": "simulate", "seed": 0})
def test_round_trip_generated_scenarios(doc):
    # without allow_unicode every non-ASCII character is escaped, so the
    # parsed scenario holds exactly the generated strings
    s = parse_scenario(yaml.safe_dump(doc))
    assert s.name == doc["name"]
    assert parse_scenario(emit_scenario(s)) == s


def test_misspelled_task_names_valid_tasks():
    with pytest.raises(ParseError, match="simulate.*equivalence"):
        parse_scenario("task: equivalance\n")


def test_task_must_be_single_string():
    with pytest.raises(ParseError, match="exactly one task"):
        parse_scenario("task: [simulate, tones]\n")
    with pytest.raises(ParseError):
        parse_scenario("name: no-task\n")


def test_nonpositive_gamma_rejected():
    with pytest.raises(ValidationError):
        parse_scenario("task: simulate\ncoupling: {gamma: 0.0}\n")
    with pytest.raises(ValidationError):
        parse_scenario("task: simulate\ncoupling: {gamma: -2.0}\n")


def test_yaml_syntax_error_reports_line():
    bad = "task: simulate\ncoupling: {gamma: 1.0\n"
    with pytest.raises(ParseError) as exc:
        parse_scenario(bad)
    assert exc.value.line is not None


def test_unknown_keys_rejected():
    with pytest.raises(ParseError, match="unknown top-level"):
        parse_scenario("task: simulate\nbogus: 1\n")


def test_pauli_expressions():
    npt.assert_array_equal(parse_operator("sz", "x"), np.diag([1.0, -1.0]))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    collective = parse_operator("sx⊗id + id⊗sx", "x")
    npt.assert_allclose(collective,
                        np.kron(sx, np.eye(2)) + np.kron(np.eye(2), sx))
    scaled = parse_operator("0.5*sz - 1.5*sx", "x")
    npt.assert_allclose(scaled, 0.5 * np.diag([1.0, -1.0]) - 1.5 * sx)
    neg = parse_operator("-sz", "x")
    npt.assert_allclose(neg, np.diag([-1.0, 1.0]))


def test_pauli_expression_errors():
    with pytest.raises(ParseError):
        parse_operator("sq", "x")
    with pytest.raises(ParseError):
        parse_operator("sz⊗sz + sx", "x")  # mismatched qubit counts
    with pytest.raises(ParseError):
        parse_operator("abc*sz", "x")


def test_pauli_complex_coefficients():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    got = parse_operator("(0.5+0j)*sx - 0.25*sz", "x")
    npt.assert_allclose(got, 0.5 * sx - 0.25 * np.diag([1.0, -1.0]))
    got = parse_operator("(0.5+1j)*sx⊗sy - 1j*sx⊗sy", "x")
    npt.assert_allclose(got, 0.5 * np.kron(sx, sy))
    with pytest.raises(NotHermitian):
        parse_operator("1j*sx⊗sy", "x")
    for bad in ("(1+*sx", "(1+", "(1+0j))*sx"):
        with pytest.raises(ParseError):
            parse_operator(bad, "x")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text", [
    "inf*sz", "nan*sx", "1e309*sz", "infj*sx",
    "1e308*sz⊗sz + 1e308*sz⊗sz",            # the sum overflows
    "-1e308*sz - 1e308*sz"])
def test_pauli_nonfinite_rejected(text):
    with pytest.raises(ParseError, match="system.operators.B"):
        parse_operator(text, "system.operators.B")


PAULI_TOKENS = ["sx", "sy", "sz", "id", "SX", "⊗", "+", "-", "−", "*", "(",
                ")", "0", "1", "0.5", "2", "e", "j", "inf", "nan", "1e308",
                ".", " "]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PAULI_TOKENS), min_size=1, max_size=12))
def test_pauli_parser_fuzz(tokens):
    # at most 12 tokens keeps a Kronecker chain at 2**6 levels
    try:
        mat = parse_operator("".join(tokens), "x")
    except (ParseError, ValidationError):
        return
    assert np.isfinite(mat).all()
    assert opcore.is_hermitian(mat)


def test_cli_anti_hermitian_pauli_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL.replace("B: sx", "B: 1j*sx"))
    assert run_cli("equivalence", "--scenario", str(bad)) == 2
    assert "not Hermitian" in capsys.readouterr().err


def test_cli_nearly_hermitian_dense_operator_exits_2(tmp_path, capsys):
    """Dense operators are held to opcore.is_hermitian's rule at the parse,
    so an off-diagonal mismatch of 1e-7 is reported there, by field."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL.replace(
        "A: sz", 'A: [[1, "0.5+1e-7j"], ["0.5+0j", -1]]'))
    rc = run_cli("equivalence", "--scenario", str(bad),
                 "--out", str(tmp_path / "out"))
    assert rc == 2
    assert "system.operators.A is not Hermitian" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", ['["inf", 0]', "[1, .nan]",
                                  "[[1, 0], [0, .inf]]",
                                  '[["nan", 0], [0, 1]]'])
def test_cli_nonfinite_state_exits_2(tmp_path, capsys, spec):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL.replace("task: equivalence", "task: simulate")
                   + f"initial:\n  rho2: {spec}\n")
    rc = run_cli("simulate", "--scenario", str(bad),
                 "--out", str(tmp_path / "out"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "initial.rho2 must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec, plain", [(["1e308", "1e308"], [1, 1]),
                                         (["1e-320", 0], [1, 0])])
def test_extreme_ket_normalizes(tmp_path, spec, plain):
    # entries near the overflow and underflow limits give the same state
    # as their plain multiples, in parse_state and through cli.run
    npt.assert_array_equal(parse_state(spec, 2, "initial.rho2"),
                           parse_state(plain, 2, "initial.rho2"))
    outputs = []
    for name, ket in (("extreme", spec), ("plain", plain)):
        text = (MINIMAL.replace("task: equivalence", "task: simulate")
                + f"initial:\n  rho2: {json.dumps(ket)}\n")
        assert cli.run(parse_scenario(text), tmp_path / name,
                       text.encode("utf-8")) == 0
        outputs.append((tmp_path / name / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]
    with pytest.raises(ValidationError, match="zero vector"):
        parse_state([0, "0j"], 2, "initial.rho2")


@pytest.mark.parametrize("text", [
    "⊗".join(["sz"] * 20),
    "⊗".join(["sx"] * (MAX_PAULI_FACTORS + 1)),
    "sz⊗sz + " + "⊗".join(["id"] * 20)])
def test_pauli_factor_count_is_bounded(tmp_path, capsys, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL.replace("B: sx", f"B: {text}"))
    tracemalloc.start()
    try:
        rc = run_cli("equivalence", "--scenario", str(bad))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "field 'system.operators.B'" in capsys.readouterr().err
    assert peak < 2e6      # one (2**11)² complex matrix alone is 67 MB


def test_dense_matrix_operator():
    mat = parse_operator([[0, "1j"], ["-1j", 0]], "x")
    npt.assert_allclose(mat, np.array([[0, 1j], [-1j, 0]]))
    with pytest.raises(NotHermitian):
        parse_operator([[0, 1], [0, 0]], "x")


def test_state_specs():
    npt.assert_allclose(parse_state("0", 2, "s"), np.diag([1.0, 0.0]))
    npt.assert_allclose(parse_state("+", 2, "s"), np.full((2, 2), 0.5))
    npt.assert_allclose(parse_state([1.0, 1.0], 2, "s"), np.full((2, 2), 0.5))
    rho = parse_state([[0.5, 0], [0, 0.5]], 2, "s")
    npt.assert_allclose(rho, np.eye(2) / 2)
    with pytest.raises(ValidationError):
        parse_state("5", 2, "s")
    with pytest.raises(ParseError):
        parse_state("up", 2, "s")


def test_non_hermitian_operator_spec_rejected():
    doc = """
task: simulate
system:
  operators:
    A: [[0, 1], [0, 0]]
    B: sx
coupling:
  gamma: 1.0
"""
    with pytest.raises(NotHermitian):
        parse_scenario(doc)


# --------------------------------------------------------------------------
# CLI end to end
# --------------------------------------------------------------------------

def run_cli(*args):
    return cli.main(list(args))


def test_cli_equivalence_artifacts(tmp_path):
    rc = run_cli("equivalence",
                 "--scenario", str(SCENARIO_DIR / "equivalence_two_qubit.yaml"),
                 "--out", str(tmp_path))
    assert rc == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "gamma,t,trace_distance,fitted_exponent"
    assert len(lines) == 5
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 10.0 and first[1] == 1.0
    assert abs(first[2] - 0.09063462346100892) < 1e-10
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"scenario_sha256", "task", "seed", "versions",
                             "outputs"}
    assert manifest["versions"] == {
        "emdyn": emdyn.__version__, "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "python": ".".join(map(str, sys.version_info[:3]))}
    assert "timestamp" not in json.dumps(manifest)


def test_cli_tones_matches_library(tmp_path):
    rc = run_cli("tones",
                 "--scenario", str(SCENARIO_DIR / "tones_three_qubit.yaml"),
                 "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    ts = circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 12.0, 0.0,
                                        (0.0, 0.0, 0.0))
    assert report["derived"] == list(ts.derived)
    assert report["x_tones"] == [list(t) for t in ts.x_tones]
    assert report["kind"] == "dissipative"


def test_cli_controllability(tmp_path):
    rc = run_cli("controllability",
                 "--scenario", str(SCENARIO_DIR / "controllability_ising.yaml"),
                 "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["dim_without_drift"] == 1
    assert report["dim_with_drift"] == 4


ISING_CHAIN = """
task: controllability
system:
  operators:
    A: sz
    B: sz⊗sz⊗id + id⊗sz⊗sz
  controls:
    - sx⊗id⊗id + id⊗sx⊗id + id⊗id⊗sx
coupling:
  gamma: 10.0
  eta: 0.5
  phi: 1.5707963267948966
  g: 0.5
"""


def test_cli_controllability_ising_chain(tmp_path):
    # the uniform 3-qubit chain closes to 9 dimensions, far from su(8)'s 63
    doc = tmp_path / "chain.yaml"
    doc.write_text(ISING_CHAIN, encoding="utf-8")
    rc = run_cli("controllability", "--scenario", str(doc),
                 "--out", str(tmp_path / "out"))
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["dim_with_drift"] == 9
    assert report["fully_controllable_with"] is False


def test_cli_bounds(tmp_path):
    rc = run_cli("bounds",
                 "--scenario", str(SCENARIO_DIR / "bounds_commuting.yaml"),
                 "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_bounded"] is True


def test_cli_circuit_validate(tmp_path):
    rc = run_cli("circuit-validate",
                 "--scenario", str(SCENARIO_DIR / "circuit_nonreciprocal.yaml"),
                 "--out", str(tmp_path))
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["nonreciprocity_satisfied"] is True
    assert report["nonreciprocity_direction"] == "S1->S2"
    assert abs(report["Lambda"] - 50.0) < 1e-9


def test_cli_simulate(tmp_path):
    rc = run_cli("simulate",
                 "--scenario", str(SCENARIO_DIR / "simulate_dephasing.yaml"),
                 "--out", str(tmp_path))
    assert rc == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == "t,purity,s1_purity,s2_purity"
    assert len(lines) == 5


def test_cli_task_mismatch_exits_2(tmp_path):
    rc = run_cli("tones",
                 "--scenario", str(SCENARIO_DIR / "equivalence_two_qubit.yaml"),
                 "--out", str(tmp_path))
    assert rc == 2


def test_cli_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("task: equivalance\n")
    assert run_cli("equivalence", "--scenario", str(bad)) == 2


def test_cli_validation_error_exits_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("task: simulate\n"
                   "system: {operators: {A: sz, B: sx}}\n"
                   "coupling: {gamma: -1.0}\n")
    assert run_cli("simulate", "--scenario", str(bad)) == 2


@pytest.mark.parametrize("margin", ["-5", "0", "nan", "inf"])
def test_cli_rejects_bad_margin(tmp_path, capsys, margin):
    rc = run_cli("bounds",
                 "--scenario", str(SCENARIO_DIR / "bounds_commuting.yaml"),
                 "--out", str(tmp_path / "out"), "--margin", margin)
    assert rc == 2
    assert "margin must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scenario_rejects_nonfinite_margin():
    with pytest.raises(ValidationError):
        parse_scenario(MINIMAL + "margin: .inf\n")


@pytest.mark.parametrize("old, new, field", [
    ("eta: 1.0", "eta: .nan", "coupling.eta"),
    ("gamma: 10.0\n", "gamma: .inf\n", "coupling.gamma"),
    ("t: [1.0]", "t: [.nan]", "sweep.t"),
])
def test_scenario_rejects_nonfinite_numbers(old, new, field):
    with pytest.raises(ValidationError, match=field):
        parse_scenario(MINIMAL.replace(old, new))


@pytest.mark.parametrize("eta, gammas", [
    (0.0, [10.0, 100.0, 1000.0, 10000.0]),   # zero gaps
    (1.0, [10.0, 100.0, 1000.0]),            # too few gammas
    (1.0, [10.0, 20.0, 40.0, 80.0]),         # under two decades
])
def test_cli_unfittable_sweep_writes_null(tmp_path, eta, gammas):
    doc = MINIMAL.replace("eta: 1.0", f"eta: {eta}").replace(
        "[10.0, 100.0, 1000.0, 10000.0]", str(gammas))
    rc = cli.run(parse_scenario(doc), tmp_path, doc.encode("utf-8"))
    assert rc == 0

    def reject(token):
        raise ValueError(token)
    report = json.loads((tmp_path / "report.json").read_text(),
                        parse_constant=reject)
    assert report["fitted_exponent_per_t"] == {"%.16e" % 1.0: None}
    rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
    assert all(np.isnan(float(r.split(",")[3])) for r in rows)


def test_cli_missing_file_exits_2(tmp_path):
    assert run_cli("simulate", "--scenario", str(tmp_path / "nope.yaml")) == 2


CIRCUIT = (SCENARIO_DIR / "circuit_nonreciprocal.yaml").read_text()
TONES = (SCENARIO_DIR / "tones_three_qubit.yaml").read_text()
SIMULATE = (SCENARIO_DIR / "simulate_dephasing.yaml").read_text()
BOUNDS = (SCENARIO_DIR / "bounds_commuting.yaml").read_text()
EQUIVALENCE = (SCENARIO_DIR / "equivalence_two_qubit.yaml").read_text()
SIM_T = "t: [0.1, 0.5, 1.0, 2.0]"


@pytest.mark.parametrize("task, text, field", [
    ("circuit-validate", CIRCUIT.replace("  E_J: 282.842712474619\n", ""),
     "circuit.E_J"),
    ("circuit-validate", CIRCUIT.replace("Omega: [5.0, 6.0, 4.0]",
                                         "Omega: fast"), "circuit.Omega"),
    ("circuit-validate", CIRCUIT.replace("omega_z: 12.0", "omega_z: fast"),
     "circuit.mode.omega_z"),
    ("circuit-validate", CIRCUIT.replace("n_max: 3", "n_max: [3]"),
     "circuit.mode.n_max"),
    ("circuit-validate", CIRCUIT.replace("n_max: 3", "n_max: 3.7"),
     "circuit.mode.n_max"),
    ("circuit-validate", CIRCUIT.replace("lambda_1z: 0.25", "lambda_1z: .nan"),
     "circuit.lambda_1z"),
    ("tones", TONES.replace("Omega: [5.0, 6.0, 4.0]", "Omega: fast"),
     "tones.Omega"),
    ("tones", TONES.replace("omega_z: 12.0", "omega_z: fast"),
     "tones.omega_z"),
    ("circuit-validate", CIRCUIT.replace(
        "  mode:\n    n_max: 3\n    omega_z: 12.0\n    gamma_z: 50.0\n",
        "  mode: 3\n"), "circuit.mode"),
    ("tones", TONES.replace("plan: dissipative", "plan: other"),
     "tones.plan"),
    ("equivalence", EQUIVALENCE.replace("eta: 1.0", "eta: -1.0"),
     "coupling.eta"),
    ("simulate", SIMULATE.replace(SIM_T, "t: []"), "sweep.t"),
    ("simulate", SIMULATE.replace(SIM_T, "t: [-1.0]"), "sweep.t"),
    ("equivalence", EQUIVALENCE.replace(
        "gamma: [10.0, 100.0, 1000.0, 10000.0]", "gamma: [0.0]"),
     "sweep.gamma"),
    ("simulate", SIMULATE.replace("seed: 0", "seed: 1.5"), "seed"),
    ("simulate", SIMULATE.replace("name: dephasing-simulation", "name: 5"),
     "name"),
    ("simulate", "- task: simulate\n", "mapping at top level"),
    ("simulate", SIMULATE.replace('rho1: "+"', "rho1: 5"), "initial.rho1"),
    ("simulate", SIMULATE.replace('rho1: "+"', "rho1: [1, 0, 0]"),
     "initial.rho1"),
    ("simulate", SIMULATE.replace('rho1: "+"',
                                  "rho1: [[0.7, 0.0], [0.0, 0.7]]"),
     "initial.rho1"),
    ("bounds", BOUNDS.replace('psi0: "+"', "psi0: [[0.6, 0.0], [0.0, 0.4]]"),
     "initial.psi0"),
    ("bounds", BOUNDS.replace('psi0: "+"', "psi0: [[0.5, 0.0], [0.0, 0.5]]"),
     "initial.psi0"),
    ("bounds", BOUNDS.replace('psi0: "+"', "psi0: [[0.7, 0.0], [0.0, 0.7]]"),
     "initial.psi0"),
], ids=["missing-E_J", "Omega-fast", "omega_z-fast", "n_max-list",
        "n_max-fractional", "lambda_1z-nan", "tones-Omega-fast",
        "tones-omega_z-fast", "mode-number", "tones-plan-other",
        "eta-negative", "t-empty", "t-negative", "gamma-zero", "seed-float",
        "name-number", "top-level-list", "rho1-number", "rho1-length",
        "rho1-trace", "psi0-mixed", "psi0-maximally-mixed", "psi0-trace"])
def test_cli_malformed_section_exits_2(tmp_path, capsys, task, text, field):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert text not in (CIRCUIT, TONES, SIMULATE, BOUNDS, EQUIVALENCE)
    rc = run_cli(task, "--scenario", str(bad), "--out", str(tmp_path / "out"))
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_overflowing_evolution_exits_3(tmp_path, capsys):
    # the closed form overflows to NaN at this t; it is reported before any
    # eigen-solve, with no RuntimeWarning
    bad = tmp_path / "bad.yaml"
    bad.write_text(SIMULATE.replace(SIM_T, "t: [1.0e+308]"))
    rc = run_cli("simulate", "--scenario", str(bad),
                 "--out", str(tmp_path / "out"))
    assert rc == 3
    assert ("numerical failure: propagated state has non-finite entries"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("old, new, code, message", [
    ("lambda_1z: 0.25", "lambda_1z: 0.0", 2, "lambda_1z must be nonzero"),
    ("E_J: 282.842712474619", "E_J: 1.0e+300", 3, "is not finite")],
    ids=["lambda_1z-zero", "E_J-overflow"])
def test_cli_circuit_validate_bad_constants(tmp_path, capsys, old, new, code,
                                            message):
    """Parseable circuits whose coupling constants cannot be formed exit 2
    or 3 and leave no output directory."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(CIRCUIT.replace(old, new))
    rc = run_cli("circuit-validate", "--scenario", str(bad),
                 "--out", str(tmp_path / "out"))
    assert rc == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t", ["1.0e+6", "1.0e+10"])
def test_cli_bounds_at_large_t(tmp_path, t):
    # exp(-i t lam B) of a non-diagonal B stays unitary at any t, so the
    # target stays normalized
    doc = tmp_path / "large_t.yaml"
    doc.write_text(BOUNDS.replace("B: sz", "B: sx").replace(
        "t: [0.2, 0.5, 1.0]", f"t: [{t}]"))
    assert run_cli("bounds", "--scenario", str(doc),
                   "--out", str(tmp_path / "out")) == 0


def test_import_leaves_scipy_linalg_out():
    code = ("import sys, emdyn, emdyn.cli; "
            "sys.exit('scipy' in sys.modules "
            "or 'importlib.metadata' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=str(Path(emdyn.__file__).resolve().parent.parent))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


CONTROL = (SCENARIO_DIR / "controllability_ising.yaml").read_text()


@pytest.mark.parametrize("old, new, field", [
    ("lambda_a: 1.0", 'lambda_a: "abc"', "system.lambda_a"),
    ("lambda_a: 1.0", "lambda_a: [1]", "system.lambda_a"),
    ("lambda_a: 1.0", "lambda_a: .nan", "system.lambda_a"),
    ("lambda_a: 1.0", "lambda_a: true", "system.lambda_a"),
    ("  operators:\n    A: sz\n    B: sz⊗sz\n", "  operators: [sz, sz⊗sz]\n",
     "system.operators"),
    ("  controls:\n    - sx⊗id + id⊗sx\n", "  controls: sx\n",
     "system.controls"),
    ("path: out-controllability", "path: 5", "output.path"),
    ("path: out-controllability", r'path: "out\0"', "output.path"),
    ("A: sz\n", "A: 5\n", "system.operators.A"),
    ("A: sz\n", "A: [[1, 0]]\n", "system.operators.A"),
    ("A: sz\n", 'A: [["abc", 0], [0, 1]]\n', "system.operators.A"),
], ids=["lambda_a-string", "lambda_a-list", "lambda_a-nan", "lambda_a-bool",
        "operators-list", "controls-string", "path-number", "path-nul",
        "A-number", "A-not-square", "A-bad-entry"])
def test_cli_malformed_system_or_output_exits_2(tmp_path, monkeypatch, capsys,
                                                old, new, field):
    # no --out: the run would write into output.path under tmp_path
    assert old in CONTROL
    (tmp_path / "bad.yaml").write_text(CONTROL.replace(old, new),
                                       encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli("controllability", "--scenario", "bad.yaml") == 2
    assert field in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]


@pytest.mark.parametrize("name, old, new, field", [
    ("controllability_ising", "lambda_a: 1.0", "lamda_a: 2.0",
     "system.lamda_a"),
    ("equivalence_two_qubit", "  eta: 1.0", "  etta: 1.0", "coupling.etta"),
    ("simulate_dephasing", "  t: [0.1", "  times: [0.1", "sweep.times"),
    ("simulate_dephasing", "  rho1:", "  rho_1:", "initial.rho_1"),
    ("bounds_commuting", "  path: out-bounds", "  dir: out-bounds",
     "output.dir"),
    ("circuit_nonreciprocal", "  phi0: 1.0", "  phi_0: 1.0",
     "circuit.phi_0"),
    ("circuit_nonreciprocal", "    omega_z: 12.0", "    omega: 12.0",
     "circuit.mode.omega"),
    ("tones_three_qubit", "  phi_x1: 0.0", "  phi_x: 0.0", "tones.phi_x"),
], ids=["system", "coupling", "sweep", "initial", "output", "circuit",
        "circuit-mode", "tones"])
def test_cli_unknown_key_exits_2(tmp_path, monkeypatch, capsys, name, old,
                                 new, field):
    # a misspelled field would otherwise fall back to its default
    text = (SCENARIO_DIR / f"{name}.yaml").read_text(encoding="utf-8")
    assert old in text
    (tmp_path / "bad.yaml").write_text(text.replace(old, new),
                                       encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    task = parse_scenario(text).task
    assert run_cli(task, "--scenario", "bad.yaml") == 2
    assert field in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]


def test_scenario_fills_typed_defaults():
    s = parse_scenario("task: equivalence\ncoupling: {gamma: 3}\n")
    assert s.value("sweep.t") == (1.0,) and s.value("sweep.gamma") == (3.0,)
    assert s.value("system.lambda_a") == 1.0
    assert s.value("system.controls") == ()
    assert s.value("output.path") == "emdyn-out"
    assert s.value("coupling") == {"gamma": 3.0, "eta": 0.0, "phi": 0.0,
                                   "g": 0.0}
    with pytest.raises(ValidationError, match="no circuit section"):
        s.value("circuit")


def test_scenario_builds_circuit_and_tones():
    params, phi = parse_scenario(CIRCUIT).circuit_params()
    assert params.mode == circuit.BosonicMode(n_max=3, omega_z=12.0,
                                              gamma_z=50.0)
    assert params.Omega == (5.0, 6.0, 4.0) and params.E_J == 282.842712474619
    assert phi == 1.5707963267948966
    coherent = parse_scenario(
        "task: tones\ntones: {plan: coherent, Omega: [5, 6.5, 4], "
        "phi_y: [0.1, 0.2, 0.3]}\n").tone_plan()
    assert coherent == circuit.plan_coherent_tones((5.0, 6.5, 4.0),
                                                   (0.1, 0.2, 0.3))
    dissipative = parse_scenario(
        "task: tones\ntones: {Omega: [5, 6.5, 4], omega_z: 12, "
        "collisions: [17, 1000]}\n").tone_plan()
    assert dissipative == circuit.plan_dissipative_tones(
        (5.0, 6.5, 4.0), 12.0, 0.0, (0.0, 0.0, 0.0), collisions=[17.0, 1000.0])
    assert dissipative.notes == ("derived tone 17 collides with transition 17",)
