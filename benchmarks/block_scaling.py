"""Block-route scaling curve and perfbench medians, written to the JSON file
named by ``OUT``.

    python benchmarks/block_scaling.py scaling
    python benchmarks/block_scaling.py pairs --parent DIR --workload NAME \
        --seed N --pairs K

``scaling`` records ``oracle_ms`` and ``library_ms`` with the largest
absolute difference of their results.  The oracle is the dense complex
``expm`` of the full generator (``perfbench/reference.py``), run once, and
the library side is the best of three runs, for ``validate_elimination`` at
n_max 4, 6, 8 and the ring-modulator (JRM) ``propagate`` of its dense
generator at n_max 2, 3, 4 (the operating point of
``tests/conftest.py::working_point``).  The same JRM generator's
Kronecker-product build (``tests/conftest.py::kron_superop``) is timed
against ``MasterEquation.generator``, both best of three.  ``pairs`` runs
``perfbench/run.py`` K times on the parent checkout ``DIR`` and on this
checkout, alternating which runs first, and records every run and each
side's median and quartiles.  Each subcommand updates its own key of the
JSON file and the machine info.  BLAS is pinned to one thread in this
process and in the runs it starts.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS pin)
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from conftest import kron_superop, working_point  # noqa: E402
from emdyn import circuit, liouville, opcore  # noqa: E402
from perfbench import reference  # noqa: E402

OUT = ROOT / "BENCH_5.json"
SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_ENV}}


def timed(fn, repeats=1):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, out


def elimination_point(n_max):
    """Criterion 07's model at gamma_a = 100, the middle of its sweep."""
    gamma_a, t, phi1, phi2 = 100.0, 2.0, 0.1, 0.7
    lam1 = np.sqrt(0.6 * gamma_a) / 2
    lam2 = 0.5 * lam1
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho0 = np.kron(plus, plus)
    L = circuit.adiabatic_eliminate(lam1, lam2, phi1, phi2, gamma_a, SZ, SX)
    full = circuit.build_system_bath(
        circuit.SystemBathParams(lam1, lam2, gamma_a, n_max=n_max),
        SZ, SX, (phi1, phi2))
    return (lambda: reference.system_bath_distance(
                lam1, lam2, gamma_a, phi1, phi2, SZ, SX, n_max, rho0, t),
            lambda: circuit.validate_elimination(full, L, rho0, t))


def jrm_model(n_max):
    """Criterion 09's forward model at gamma_z = 50 (a builder), its time."""
    params = working_point(gamma_z=50.0, n_max=n_max)
    ec = circuit.effective_coupling_constants(params)
    tones = circuit.plan_dissipative_tones(
        params.Omega, params.mode.omega_z, 0.0,
        (0.0, 1.5 * np.pi, 1.5 * np.pi))
    return (lambda: circuit.build_jrm_effective(params, tones,
                                                include_three_body=True),
            1.0 / (2.0 * ec.gamma_eff * ec.eta_over_gamma))


def jrm_point(n_max):
    """Criterion 09's forward propagation."""
    model, t = jrm_model(n_max)
    rho0 = opcore.tensor([P0, P0, P0, circuit.fock_vacuum(n_max + 1)])
    return (lambda: reference.evolve(model().generator(), rho0, t),
            lambda: liouville.propagate(model().generator(), rho0, t))


def jrm_build(n_max):
    """The generator of ``jrm_point``'s model: Kronecker build vs assembler."""
    me = jrm_model(n_max)[0]()
    h = me.hamiltonian
    return (lambda: kron_superop(h, h, [(L, L, r) for L, r in me.jumps]),
            me.generator)


def scaling(args) -> dict:
    rows = []
    for kind, make, sizes, repeats in (
            ("validate_elimination", elimination_point, (4, 6, 8), 1),
            ("jrm_propagate", jrm_point, (2, 3, 4), 1),
            ("jrm_generator_build", jrm_build, (2, 3, 4), 3)):
        for n_max in sizes:
            oracle, library = make(n_max)
            oracle_ms, want = timed(oracle, repeats)
            library_ms, got = timed(library, 3)
            rows.append({"kind": kind, "n_max": n_max,
                         "oracle_ms": round(oracle_ms, 2),
                         "library_ms": round(library_ms, 2),
                         "max_abs_diff": float(np.max(np.abs(
                             np.asarray(got) - np.asarray(want))))})
            print(json.dumps(rows[-1]), flush=True)
    return {"scaling": rows}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2]}


def run_perfbench(checkout, workload, seed):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "28", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def pairs(args) -> dict:
    sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_perfbench(sides[side], args.workload,
                                            args.seed))
        print(json.dumps({side: runs[side][-1]["metrics"] for side in order}),
              flush=True)
    names = runs["parent"][0]["metrics"]
    summary = {side: {m: quartiles([r["metrics"][m] for r in rs])
                      for m in names} for side, rs in runs.items()}
    key = f"perfbench.{args.workload}.seed{args.seed}"
    return {key: {"pairs": args.pairs, "summary": summary, "runs": runs}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("scaling")
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data.update(scaling(args) if args.cmd == "scaling" else pairs(args))
    data["machine"] = machine()
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
