import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from emdyn import cli, circuit
from emdyn.errors import NotHermitian, ParseError, ValidationError
from emdyn.scenario import (emit_scenario, parse_operator, parse_scenario,
                            parse_state)

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


@pytest.mark.parametrize("eta, gammas", [
    (0.0, [10.0, 100.0, 1000.0, 10000.0]),   # zero gaps
    (1.0, [10.0, 100.0, 1000.0]),            # too few gammas
    (1.0, [10.0, 20.0, 40.0, 80.0]),         # under two decades
])
def test_cli_unfittable_sweep_writes_null(tmp_path, eta, gammas):
    doc = MINIMAL.replace("eta: 1.0", f"eta: {eta}").replace(
        "[10.0, 100.0, 1000.0, 10000.0]", str(gammas))
    rc = cli.run(parse_scenario(doc), tmp_path)
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
