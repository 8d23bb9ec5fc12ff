"""Command-line front end.

Usage::

    emdyn <task> --scenario <path> [--out <dir>] [--seed <n>] [--margin <x>]

Tasks: simulate, equivalence, controllability, bounds, circuit-validate,
tones.  Each run writes ``results.csv``, ``report.json`` and a
``manifest.json`` (input hash, seed, the versions of emdyn, NumPy, PyYAML
and Python, output hashes) into
the output directory.  Given the same scenario and seed, outputs are
byte-identical across runs.  Exit codes: 0 success, 2 parse or validation
error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__, bounds, circuit, control, emergent, liouville
from .bounds import DEFAULT_MARGIN, check_margin
from .errors import DegenerateFit, EmdynError, NumericalError, ValidationError
from .scenario import VALID_TASKS, Scenario, parse_scenario

__all__ = ["main", "run"]

_FMT = "%.16e"


def _fmt(value) -> str:
    return _FMT % float(value)


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + [
        [v if isinstance(v, str) else _fmt(v) for v in row] for row in rows])
    return buf.getvalue().encode("utf-8")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
            + "\n").encode("utf-8")


def _marginal_purities(rho: np.ndarray, dims) -> tuple[float, float]:
    from .opcore import partial_trace
    r1 = partial_trace(rho, dims, [0])
    r2 = partial_trace(rho, dims, [1])
    return (float(np.real(np.trace(r1 @ r1))),
            float(np.real(np.trace(r2 @ r2))))


# --------------------------------------------------------------------------
# task runners: each returns (csv_header, csv_rows, report_dict)
# --------------------------------------------------------------------------

def _run_simulate(scenario: Scenario, margin):
    c = scenario.build_coupling()
    rho1 = scenario.initial_state("rho1", c.d1)
    rho2 = scenario.initial_state("rho2", c.d2)
    rho0 = np.kron(rho1, rho2)
    dims = (c.d1, c.d2)
    rows = []
    for t in scenario.value("sweep.t"):
        rho = liouville.propagate(c, rho0, t)
        p1, p2 = _marginal_purities(rho, dims)
        purity = float(np.real(np.trace(rho @ rho)))
        rows.append([t, purity, p1, p2])
    report = {
        "task": "simulate",
        "dims": list(dims),
        "final_purity": float(rows[-1][1]),
        "final_s1_purity": float(rows[-1][2]),
        "final_s2_purity": float(rows[-1][3]),
    }
    return ["t", "purity", "s1_purity", "s2_purity"], rows, report


def _run_equivalence(scenario: Scenario, margin):
    c = scenario.build_coupling()
    rho1 = scenario.initial_state("rho1", c.d1)
    rho2 = scenario.initial_state("rho2", c.d2)
    gammas = scenario.value("sweep.gamma")
    times = scenario.value("sweep.t")
    rows = []
    exponents = {}
    for t in times:
        gaps = [emergent.equivalence_gap(dataclasses.replace(c, gamma=g),
                                         rho1, rho2, t) for g in gammas]
        try:
            exponent = emergent.scaling_exponent(gammas, gaps)
        except (ValidationError, DegenerateFit):
            exponent = None   # report.json: null; results.csv: nan
        exponents[_fmt(t)] = exponent
        for g, gap in zip(gammas, gaps):
            rows.append([g, t, gap, float("nan") if exponent is None
                         else exponent])
    report = {
        "task": "equivalence",
        "gammas": gammas,
        "times": times,
        "fitted_exponent_per_t": exponents,
        "min_trace_distance": min(r[2] for r in rows),
        "max_trace_distance": max(r[2] for r in rows),
    }
    return ["gamma", "t", "trace_distance", "fitted_exponent"], rows, report


def _run_controllability(scenario: Scenario, margin):
    c = scenario.build_coupling()
    n_without, n_with = control.controllability_delta(
        c, scenario.value("system.lambda_a"), scenario.value("system.controls"))
    d = c.d2
    full = d * d - 1
    rows = [[float(n_without), float(n_with), float(full)]]
    report = {
        "task": "controllability",
        "space_dim": d,
        "dim_without_drift": n_without,
        "dim_with_drift": n_with,
        "fully_controllable_without": n_without == full,
        "fully_controllable_with": n_with == full,
    }
    return ["dim_without_drift", "dim_with_drift", "full_dim"], rows, report


def _run_bounds(scenario: Scenario, margin):
    c = scenario.build_coupling()
    psi0_rho = scenario.initial_state("psi0", c.d2)
    w, v = np.linalg.eigh(psi0_rho)
    psi0 = v[:, int(np.argmax(w))]
    rows = []
    for t in scenario.value("sweep.t"):
        task = bounds.make_gate_task(c, psi0, t)
        exact = bounds.exact_error_commuting(task)
        ub = bounds.error_upper_bound(task)
        emp = bounds.empirical_error(task)
        thr = bounds.gamma_threshold(task, margin=margin)
        rows.append([t, exact, ub, emp, thr])
    report = {
        "task": "bounds",
        "margin": margin,
        "gamma": c.gamma,
        "all_bounded": bool(all(r[3] <= r[2] + 1e-9 for r in rows)),
        "max_empirical_error": max(r[3] for r in rows),
        "max_upper_bound": max(r[2] for r in rows),
    }
    return ["t", "exact_error", "upper_bound", "empirical_error",
            "gamma_threshold"], rows, report


def _run_circuit_validate(scenario: Scenario, margin):
    params, phi = scenario.circuit_params()
    ec = circuit.effective_coupling_constants(params)
    value, ok = circuit.strong_damping_condition(params)
    satisfied, direction = circuit.nonreciprocity_conditions(params, phi)
    rows = [[ec.Lambda, ec.beta, ec.gamma_eff, ec.eta_over_gamma, value]]
    report = {
        "task": "circuit-validate",
        "Lambda": ec.Lambda,
        "beta": ec.beta,
        "gamma_eff": ec.gamma_eff,
        "eta_over_gamma": ec.eta_over_gamma,
        "strong_damping_value": value,
        "strong_damping_ok": ok,
        "phi": phi,
        "nonreciprocity_satisfied": satisfied,
        "nonreciprocity_direction": direction,
        "dispersive_ok": params.dispersive_ok,
    }
    return (["Lambda", "beta", "gamma_eff", "eta_over_gamma",
             "strong_damping_value"], rows, report)


def _run_tones(scenario: Scenario, margin):
    ts = scenario.tone_plan()
    rows = []
    for m in range(3):
        wy, py = ts.y_tones[m]
        rows.append([float(m + 1), wy, py, ts.phase_sum[m], ts.phase_diff[m]])
    report = dataclasses.asdict(ts)
    report["task"] = "tones"
    return (["channel", "y_frequency", "y_phase", "phase_sum", "phase_diff"],
            rows, report)


_RUNNERS = {
    "simulate": _run_simulate,
    "equivalence": _run_equivalence,
    "controllability": _run_controllability,
    "bounds": _run_bounds,
    "circuit-validate": _run_circuit_validate,
    "tones": _run_tones,
}


def run(scenario: Scenario, out_dir, scenario_bytes: bytes,
        seed: int | None = None, margin: float | None = None) -> int:
    """Execute a scenario parsed from ``scenario_bytes`` and write its
    artifacts into ``out_dir``.  All three are rendered before the directory
    is made, so a task or artifact that fails leaves nothing."""
    if margin is None:
        margin = DEFAULT_MARGIN if scenario.margin is None else scenario.margin
    margin = check_margin(margin)
    if seed is None:
        seed = scenario.seed
    header, rows, report = _RUNNERS[scenario.task](scenario, margin)
    report["name"] = scenario.name
    report["seed"] = seed
    artifacts = {"results.csv": _csv_bytes(header, rows),
                 "report.json": _json_bytes(report)}
    artifacts["manifest.json"] = _json_bytes({
        "scenario_sha256": hashlib.sha256(scenario_bytes).hexdigest(),
        "task": scenario.task,
        "seed": seed,
        "versions": {
            "emdyn": __version__,
            "numpy": np.__version__,
            "pyyaml": yaml.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "outputs": {name: hashlib.sha256(data).hexdigest()
                    for name, data in artifacts.items()},
    })
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in artifacts.items():
        (out / name).write_bytes(data)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="emdyn",
        description="Dissipatively generated dynamics: simulation, "
                    "equivalence sweeps, controllability, error bounds, and "
                    "circuit-level tooling.")
    parser.add_argument("task", choices=VALID_TASKS, help="analysis to run")
    parser.add_argument("--scenario", required=True, help="scenario YAML file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    parser.add_argument("--margin", type=float, default=None,
                        help="safety margin for threshold estimates")
    args = parser.parse_args(argv)
    try:
        raw = Path(args.scenario).read_bytes()
        scenario = parse_scenario(raw.decode("utf-8"))
        if scenario.task != args.task:
            raise ValidationError(
                f"scenario declares task {scenario.task!r} but "
                f"{args.task!r} was requested")
        out_dir = (scenario.value("output.path") if args.out is None
                   else args.out)
        return run(scenario, out_dir, raw, seed=args.seed, margin=args.margin)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, EmdynError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
