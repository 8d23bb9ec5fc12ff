"""Scaling curves, perfbench medians and end-to-end wall times, written to
the JSON file named by ``--out``.

    python benchmarks/block_scaling.py scaling --out PATH [--parent DIR]
    python benchmarks/block_scaling.py lie --out PATH
    python benchmarks/block_scaling.py pairs --out PATH --parent DIR \
        [--workload NAME] [--seed N] [--pairs K]
    python benchmarks/block_scaling.py trace --out PATH --parent DIR [--seed N]
    python benchmarks/block_scaling.py e2e --out PATH --parent DIR

``scaling`` records ``oracle_ms`` and ``library_ms`` with the largest
absolute difference of their results.  The oracle is the dense complex
``expm`` of the full generator (``perfbench/reference.py``), run once, and
the library side is the best of three runs, for ``validate_elimination`` at
n_max 4, 6, 8, the ring-modulator (JRM) ``propagate`` of its dense
generator at n_max 2, 3, 4 (the operating point of
``tests/conftest.py::working_point``) and ``propagate_controlled`` of a
two-segment pulse at d1×d2 = 2×4, 4×4, 4×6, 3×8, whose oracle evolves each
segment in turn.  The same JRM generator's
Kronecker-product build (``tests/conftest.py::kron_superop``) is timed
against ``MasterEquation.generator``, both best of three.  The pulsed
gates' rotated frame at d2 = 2, 4, 8 is timed against its per-substep loop
(``tests/conftest.py::rotated_frame_loop``, run once).  With
``--parent DIR`` every library call is also
timed on the parent checkout's ``emdyn`` (imported as ``emdyn_parent``),
alternating call by call, as ``parent_ms``.
``lie`` times ``control.lie_closure`` (best of three) against the
per-element Gram–Schmidt loop ``tests/conftest.py::mgs_lie_closure`` (run
once) at d = 2, 4, 8, 16 on random dense generator pairs and at d = 4, 8, 16
on the uniform Ising chain (``tests/conftest.py::ising_chain``), with the
largest elementwise difference of the two bases.  Every dimension is checked
against ``tests/conftest.py::svd_rank_closure``.  It then rebuilds the
controllability scenarios of perfbench's ``mode_elimination`` cycles 0–2 at
seeds 3 and 9001 from ``perfbench/workloads.py`` and checks both closure
dimensions of each against the SVD oracle; the exit status is 1 when a
dimension disagrees.  ``pairs``
runs ``perfbench/run.py`` K times on the parent checkout ``DIR`` and on this
checkout, alternating which runs first, and records every run, with the
median of each item class it prints, and each side's median and quartiles,
for the one workload named or for each of ``BENCHMARK.json``'s.
``trace`` records the per-layer metrics of ``TRACE_RUNS`` traced perfbench
runs of each workload on both checkouts, alternating, with each side's
median and quartiles.  Both run perfbench for ``BENCHMARK.json``'s
``run_seconds``.  ``e2e`` records the two end-to-end
numbers: the CLI's wall time per sample scenario (a fresh interpreter per
run) and the Tier-1 suite's wall time, each the median of ``E2E_REPEATS``
runs on both checkouts, alternating which runs first.
Each subcommand updates its own key of the ``--out`` file and the machine
info, so one file can hold every curve of a change.
BLAS is pinned to one thread in this process and in the runs it starts.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS pin)
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests"),
                str(ROOT / "perfbench")]

import emdyn  # noqa: E402
from emdyn import control, scenario  # noqa: E402
from conftest import (ising_chain, kron_superop, mgs_lie_closure,  # noqa: E402
                      rand_density, rand_hermitian, rotated_frame_loop,
                      svd_rank_closure, working_point)
import run as perfbench_run  # noqa: E402
import workloads  # noqa: E402
from perfbench import reference  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
E2E_REPEATS = 5
TRACE_RUNS = 5
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
CLASS_LINE = re.compile(r"# class (\S+)\s+n=\s*\d+ median\s+(\S+) ms")
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


def alternated(fns, repeats):
    """The best time of each callable in ms, the calls alternating."""
    times = [[] for _ in fns]
    for _ in range(repeats):
        for fn, ts in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
    return [1e3 * min(ts) for ts in times]


def load_parent(path):
    """The ``emdyn`` package of the checkout at ``path``, as ``emdyn_parent``."""
    pkg = Path(path).resolve() / "src" / "emdyn"
    spec = importlib.util.spec_from_file_location(
        "emdyn_parent", pkg / "__init__.py",
        submodule_search_locations=[str(pkg)])
    mod = sys.modules["emdyn_parent"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def elimination_point(em, n_max):
    """``validate_elimination`` of criterion 07's model at gamma_a = 100, the
    middle of its sweep."""
    gamma_a, phi1, phi2 = 100.0, 0.1, 0.7
    lam1 = np.sqrt(0.6 * gamma_a) / 2
    lam2 = 0.5 * lam1
    L = em.circuit.adiabatic_eliminate(lam1, lam2, phi1, phi2, gamma_a, SZ, SX)
    full = em.circuit.build_system_bath(
        em.circuit.SystemBathParams(lam1, lam2, gamma_a, n_max=n_max),
        SZ, SX, (phi1, phi2))
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho0 = np.kron(plus, plus)
    return (lambda: reference.system_bath_distance(
                lam1, lam2, gamma_a, phi1, phi2, SZ, SX, n_max, rho0, 2.0),
            lambda: em.circuit.validate_elimination(full, L, rho0, 2.0))


def controlled_point(em, dims):
    """``propagate_controlled`` of a two-segment pulse on d1×d2 levels with
    a non-diagonal ``A``, against the dense oracle of each segment."""
    d1, d2 = dims
    rng = np.random.default_rng([11, d1, d2])
    A, B, h1, h2 = (x / np.abs(x).sum(0).max() for x in (
        rand_hermitian(rng, d) for d in (d1, d2, d2, d2)))
    c = em.liouville.DissipativeCoupling(A=A, B=B, gamma=20.0, eta=0.6,
                                         phi=np.pi / 2, g=0.3)
    pulse = em.liouville.ControlPulse(
        segments=((0.4, (1.0, -0.5)), (0.6, (0.2, 0.8))),
        hamiltonians=(h1, h2))
    rho0 = rand_density(rng, d1 * d2)

    def oracle():
        rho = rho0
        for k, (dur, _) in enumerate(pulse.segments):
            rho = reference.evolve(reference.coupling_generator(
                A, B, c.gamma, c.eta, c.phi, c.g,
                pulse.segment_hamiltonian(k)), rho, dur)
        return rho

    return oracle, lambda: em.liouville.propagate_controlled(c, pulse, rho0)


def jrm_model(em, n_max):
    """Criterion 09's forward model at gamma_z = 50 (a builder), its time."""
    params = working_point(gamma_z=50.0, n_max=n_max)
    ec = em.circuit.effective_coupling_constants(params)
    tones = em.circuit.plan_dissipative_tones(
        params.Omega, params.mode.omega_z, 0.0,
        (0.0, 1.5 * np.pi, 1.5 * np.pi))
    return (lambda: em.circuit.build_jrm_effective(params, tones,
                                                   include_three_body=True),
            1.0 / (2.0 * ec.gamma_eff * ec.eta_over_gamma))


def jrm_point(em, n_max):
    """Criterion 09's forward propagation."""
    model, t = jrm_model(em, n_max)
    rho0 = em.opcore.tensor([P0, P0, P0, em.circuit.fock_vacuum(n_max + 1)])
    return (lambda: reference.evolve(model().generator(), rho0, t),
            lambda: em.liouville.propagate(model().generator(), rho0, t))


def jrm_build(em, n_max):
    """The generator of ``jrm_point``'s model: Kronecker build vs assembler."""
    me = jrm_model(em, n_max)[0]()
    h = me.hamiltonian
    return (lambda: kron_superop(h, h, [(L, L, r) for L, r in me.jumps]),
            me.generator)


def rotated_frame(em, d2):
    """The rotated-frame marginal of a perfbench-like pulsed gate task on d2
    levels (one segment): per-substep loop vs the library's route."""
    rng = np.random.default_rng([8, d2])
    A, B, h = (rand_hermitian(rng, d) for d in (2, d2, d2))
    c = em.liouville.DissipativeCoupling(A=A / np.abs(A).sum(0).max(),
                                         B=B / np.abs(B).sum(0).max(),
                                         gamma=20.0, eta=0.6, phi=np.pi / 2)
    pulse = em.liouville.ControlPulse(
        segments=((1.0, (1.0,)),), hamiltonians=(h / np.abs(h).sum(0).max(),))
    psi0 = np.eye(d2)[0].astype(complex)
    task = em.bounds.make_gate_task(c, psi0, 1.0, pulse=pulse)
    return (lambda: rotated_frame_loop(task)[0],
            lambda: em.bounds.rotated_frame_marginal(task)[0])


CASES = (
    # kind, maker, sizes, oracle repeats
    ("validate_elimination", elimination_point, (4, 6, 8), 1),
    ("jrm_propagate", jrm_point, (2, 3, 4), 1),
    ("propagate_controlled", controlled_point,
     ((2, 4), (4, 4), (4, 6), (3, 8)), 1),
    ("jrm_generator_build", jrm_build, (2, 3, 4), 3),
    ("rotated_frame", rotated_frame, (2, 4, 8), 1),
)


def scaling(args) -> dict:
    parent = load_parent(args.parent) if args.parent else None
    rows = []
    for kind, make, sizes, oracle_repeats in CASES:
        for n in sizes:
            oracle, library = make(emdyn, n)
            oracle_ms, want = timed(oracle, oracle_repeats)
            got = library()
            ms = alternated([library] + ([make(parent, n)[1]] if parent
                                         else []), 3)
            row = {"kind": kind, "n": n, "oracle_ms": round(oracle_ms, 3),
                   "library_ms": round(ms[0], 3),
                   "max_abs_diff": float(np.max(np.abs(
                       np.asarray(got) - np.asarray(want))))}
            if parent:
                row["parent_ms"] = round(ms[1], 3)
            rows.append(row)
            print(json.dumps(rows[-1]), flush=True)
    return {"scaling": rows}


def closure_cases():
    for d in (2, 4, 8, 16):
        rng = np.random.default_rng([7, d])
        yield "random_pair", d, [rand_hermitian(rng, d), rand_hermitian(rng, d)]
    for n in (2, 3, 4):
        yield "ising_chain", 2 ** n, ising_chain(n)


def controllability_scenarios(seeds=(3, 9001), cycles=(0, 1, 2)):
    """(seed, cycle, variant, text) of each perfbench controllability item.

    Wraps ``workloads._scenario_doc`` while a cycle is built, so the seeded
    stream and the documents are exactly the benchmark's.
    """
    found, make_doc = [], workloads._scenario_doc

    def recording(rng, task, variant):
        text, meta = make_doc(rng, task, variant)
        if task == "controllability":
            found.append((variant, text))
        return text, meta

    workloads._scenario_doc = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            ctx = workloads.Context(Path(tmp))
            for seed in seeds:
                for cycle in cycles:
                    found.clear()
                    workloads.mode_elimination_cycle(
                        perfbench_run._rng(seed, "mode_elimination", cycle), ctx)
                    yield from ((seed, cycle, v, t) for v, t in found)
    finally:
        workloads._scenario_doc = make_doc


def lie(args) -> dict:
    rows, checks = [], []
    for kind, d, gens in closure_cases():
        oracle_ms, want = timed(lambda: mgs_lie_closure(gens))
        library_ms, got = timed(lambda: control.lie_closure(gens), 3)
        rows.append({"kind": kind, "d": d, "oracle_ms": round(oracle_ms, 2),
                     "library_ms": round(library_ms, 2),
                     "dimension": got.dimension, "oracle_dimension": len(want),
                     "svd_dimension": svd_rank_closure(gens),
                     "max_abs_diff": max(float(np.max(np.abs(a - b)))
                                         for a, b in zip(got.elements, want))})
        print(json.dumps(rows[-1]), flush=True)
    for seed, cycle, variant, text in controllability_scenarios():
        s = scenario.parse_scenario(text)
        c, controls = s.build_coupling(), list(s.value("system.controls"))
        lam = s.value("system.lambda_a")
        drift = control.dissipation_induced_drift(c, lam)
        ms, dims = timed(lambda: control.controllability_delta(c, lam,
                                                               controls))
        want = (svd_rank_closure(controls), svd_rank_closure(controls + [drift]))
        checks.append({"seed": seed, "cycle": cycle, "variant": variant,
                       "dims": list(dims), "svd_dims": list(want),
                       "ms": round(ms, 2)})
        print(json.dumps(checks[-1]), flush=True)
    ok = (all(r["dimension"] == r["oracle_dimension"] == r["svd_dimension"]
              for r in rows)
          and all(c["dims"] == c["svd_dims"] for c in checks))
    return {"lie": {"scaling": rows, "perfbench_controllability": checks,
                    "all_match_svd_oracle": ok}}


def quartiles(xs):
    """Median and quartiles of ``xs``; with one run all three are that run."""
    q1, median, q3 = np.percentile(xs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def run_perfbench(checkout, workload, seed, trace=0):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "class_ms_median": {m[1]: float(m[2]) for m in
                                map(CLASS_LINE.match, lines) if m}}


def sides_of(args) -> dict:
    return {"parent": Path(args.parent).resolve(), "change": ROOT}


def alternating_runs(args, n, workload, trace=0) -> dict:
    """``n`` perfbench runs of each checkout, alternating which runs first."""
    sides = sides_of(args)
    runs = {"parent": [], "change": []}
    for k in range(n):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_perfbench(sides[side], workload, args.seed,
                                            trace))
        print(json.dumps({side: runs[side][-1]["metrics"] for side in order}),
              flush=True)
    return runs


def summarize(runs, key="metrics") -> dict:
    return {side: {m: quartiles([r[key][m] for r in rs]) for m in rs[0][key]}
            for side, rs in runs.items()}


def pairs(args) -> dict:
    out = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        runs = alternating_runs(args, args.pairs, workload)
        summary = summarize(runs)
        for side, classes in summarize(runs, "class_ms_median").items():
            summary[side]["class_ms_median"] = classes
        out[f"perfbench.{workload}.seed{args.seed}"] = {
            "pairs": args.pairs, "summary": summary, "runs": runs}
    return out


def trace(args) -> dict:
    out = {}
    for workload in WORKLOADS:
        runs = alternating_runs(args, TRACE_RUNS, workload, trace=1)
        out[workload] = {"summary": summarize(runs), "runs": runs}
    return {f"trace.seed{args.seed}": out}


def wall_s(cmd, cwd, env):
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    return time.perf_counter() - t0, out


def e2e(args) -> dict:
    sides = sides_of(args)
    samples = sorted((ROOT / "scenarios").glob("*.yaml"))
    cli_ms = {side: {p.name: [] for p in samples} for side in sides}
    tier1 = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(E2E_REPEATS):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            for side in order:
                env = dict(os.environ, PYTHONPATH=str(sides[side] / "src"))
                for path in samples:
                    task = scenario.parse_scenario(
                        path.read_text(encoding="utf-8")).task
                    s, out = wall_s([sys.executable, "-m", "emdyn.cli", task,
                                     "--scenario", str(path), "--out",
                                     str(Path(tmp) / side / path.stem)],
                                    sides[side], env)
                    if out.returncode != 0:
                        raise RuntimeError(f"{side} {path.name}: {out.stderr}")
                    cli_ms[side][path.name].append(1e3 * s)
                s, out = wall_s(TIER1, sides[side], env)
                tier1[side].append({"wall_s": round(s, 2), "summary":
                                    out.stdout.strip().splitlines()[-1]})
                print(json.dumps({side: tier1[side][-1]}), flush=True)
    return {"e2e": {
        "repeats": E2E_REPEATS,
        "cli_ms_median": {side: {name: round(statistics.median(v), 1)
                                 for name, v in per.items()}
                          for side, per in cli_ms.items()},
        "tier1": {side: {"wall_s_median": statistics.median(
                             r["wall_s"] for r in runs), "runs": runs}
                  for side, runs in tier1.items()}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, required=True,
                        help="JSON file to update, e.g. BENCH_<pr>.json")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("scaling", parents=[common]).add_argument("--parent")
    sub.add_parser("lie", parents=[common])
    against = argparse.ArgumentParser(add_help=False, parents=[common])
    against.add_argument("--parent", required=True)
    p = sub.add_parser("pairs", parents=[against])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--pairs", type=int, default=10)
    sub.add_parser("trace", parents=[against]).add_argument(
        "--seed", type=int, default=3)
    sub.add_parser("e2e", parents=[against])
    args = parser.parse_args(argv)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    result = {"scaling": scaling, "lie": lie, "pairs": pairs, "trace": trace,
              "e2e": e2e}[args.cmd](args)
    data.update(result)
    data["machine"] = machine()
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0 if result.get("lie", {}).get("all_match_svd_oracle", True) else 1


if __name__ == "__main__":
    sys.exit(main())
