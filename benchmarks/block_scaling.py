"""Block-route scaling curve and perfbench medians, written to the JSON file
named by ``OUT``.

    python benchmarks/block_scaling.py scaling [--parent DIR]
    python benchmarks/block_scaling.py pairs --parent DIR --workload NAME \
        --seed N --pairs K
    python benchmarks/block_scaling.py trace --parent DIR [--seed N]
    python benchmarks/block_scaling.py e2e --parent DIR

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
(``tests/conftest.py::rotated_frame_loop``, run once).  The dense
``propagate`` call at D = 4 and 8 is timed for a generator with no exact
zeros and for ``validate_elimination``'s eliminated model, which has some,
against the complex ``expm`` oracle; here the library side is the median of
``DENSE_REPEATS`` calls.  So are the assembly rows, against the Kronecker
build: every occupied block pair's generator of ``validate_elimination``'s
rotated model at n_max 4, 6, 8 (one batched ``_superop`` call per block
shape), its eliminated dissipator at
D = 4 and the rotated frame's dense ``D[M]`` at d2 = 2, 4, 8.  With
``--parent DIR`` every library call is also
timed on the parent checkout's ``emdyn`` (imported as ``emdyn_parent``),
alternating call by call, as ``parent_ms``.  ``pairs`` runs
``perfbench/run.py`` K times on the parent checkout ``DIR`` and on this
checkout, alternating which runs first, and records every run, with the
median of each item class it prints, and each side's median and quartiles.
``trace`` records the per-layer metrics of ``TRACE_RUNS`` traced perfbench
cycles of each workload on both checkouts, alternating, with each side's
median and quartiles.  ``e2e`` records the two end-to-end
numbers: the CLI's wall time per sample scenario (a fresh interpreter per
run) and the Tier-1 suite's wall time, each the median of ``E2E_REPEATS``
runs on both checkouts, alternating which runs first.  Each subcommand
updates its own key of the JSON file and the machine info.  BLAS is pinned
to one thread in this process and in the runs it starts.
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

import emdyn  # noqa: E402
from conftest import (kron_superop, rand_density,  # noqa: E402
                      rand_hermitian, rotated_frame_loop, working_point)
from perfbench import reference  # noqa: E402

OUT = ROOT / "BENCH_14.json"
DENSE_REPEATS = 2000
E2E_REPEATS = 5
TRACE_RUNS = 5
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
WORKLOADS = ("gap_sweep", "mode_elimination")
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


def alternated(fns, repeats, stat=min):
    """``stat`` of each callable's times in ms, the calls alternating."""
    times = [[] for _ in fns]
    for _ in range(repeats):
        for fn, ts in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            ts.append(time.perf_counter() - t0)
    return [1e3 * stat(ts) for ts in times]


def load_parent(path):
    """The ``emdyn`` package of the checkout at ``path``, as ``emdyn_parent``."""
    pkg = Path(path).resolve() / "src" / "emdyn"
    spec = importlib.util.spec_from_file_location(
        "emdyn_parent", pkg / "__init__.py",
        submodule_search_locations=[str(pkg)])
    mod = sys.modules["emdyn_parent"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def elimination_model(em, n_max):
    """Criterion 07's model at gamma_a = 100, the middle of its sweep: its
    parameters, eliminated jump and full model."""
    gamma_a, phi1, phi2 = 100.0, 0.1, 0.7
    lam1 = np.sqrt(0.6 * gamma_a) / 2
    lam2 = 0.5 * lam1
    L = em.circuit.adiabatic_eliminate(lam1, lam2, phi1, phi2, gamma_a, SZ, SX)
    full = em.circuit.build_system_bath(
        em.circuit.SystemBathParams(lam1, lam2, gamma_a, n_max=n_max),
        SZ, SX, (phi1, phi2))
    return (lam1, lam2, gamma_a, phi1, phi2), L, full


def elimination_point(em, n_max):
    """``validate_elimination`` of criterion 07's model."""
    args, L, full = elimination_model(em, n_max)
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho0 = np.kron(plus, plus)
    return (lambda: reference.system_bath_distance(
                *args, SZ, SX, n_max, rho0, 2.0),
            lambda: em.circuit.validate_elimination(full, L, rho0, 2.0))


def pair_assembly(em, n_max):
    """The generators of every block pair of ``elimination_point``'s rotated
    model (all are occupied there): one batched ``_superop`` call per block
    shape."""
    full = elimination_model(em, n_max)[2]
    _, h, jumps = em.liouville._leading_eigenbasis(full)
    pattern = h != 0
    for op, _ in jumps:
        pattern |= op != 0
    comps = em.liouville._blocks(pattern)
    pairs = [(i, j) for a, i in enumerate(comps) for j in comps[a:]]

    def sub(op, i, j):
        return op[np.ix_(i, j)]

    def per_pair():
        return [kron_superop(sub(h, i, i), sub(h, j, j),
                             [(sub(op, i, i), sub(op, j, j), r)
                              for op, r in jumps])
                for i, j in pairs]

    def batched():
        ia, ib = (np.array(x) for x in zip(*pairs))
        return em.opcore._superop(
            h[ia[:, :, None], ia[:, None, :]],
            h[ib[:, :, None], ib[:, None, :]],
            [(op[ia[:, :, None], ia[:, None, :]],
              op[ib[:, :, None], ib[:, None, :]], r) for op, r in jumps])

    return per_pair, batched


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


def dissipator_build(em, d, kind):
    """``dissipator_superop`` of ``elimination_point``'s eliminated jump (D =
    4, with exact zeros) or of the rotated frame's dense ``M`` on d2 levels
    (the 64×64 ``D[M]`` at d2 = 8), against its Kronecker build."""
    if kind == "elimination":
        L = elimination_model(em, 4)[1]
    else:
        c = pulsed_task(em, d).coupling
        lam = em.opcore.herm_eig(c.A).eigenvalues[0]
        L = np.sqrt(c.gamma) * lam * np.eye(d) - np.exp(
            1j * c.phi) * c.eta / np.sqrt(c.gamma) * c.B
    z = np.zeros_like(L)
    return (lambda: kron_superop(z, z, [(L, L, 1.0)]),
            lambda: em.opcore.dissipator_superop(L))


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


def pulsed_task(em, d2):
    """A perfbench-like pulsed gate task on d2 levels (one segment)."""
    rng = np.random.default_rng([8, d2])
    A, B, h = (rand_hermitian(rng, d) for d in (2, d2, d2))
    c = em.liouville.DissipativeCoupling(A=A / np.abs(A).sum(0).max(),
                                         B=B / np.abs(B).sum(0).max(),
                                         gamma=20.0, eta=0.6, phi=np.pi / 2)
    pulse = em.liouville.ControlPulse(
        segments=((1.0, (1.0,)),), hamiltonians=(h / np.abs(h).sum(0).max(),))
    psi0 = np.eye(d2)[0].astype(complex)
    return em.bounds.make_gate_task(c, psi0, 1.0, pulse=pulse)


def rotated_frame(em, d2):
    """The rotated-frame marginal: per-substep loop vs one expm per segment."""
    task = pulsed_task(em, d2)
    return (lambda: rotated_frame_loop(task)[0],
            lambda: em.bounds.rotated_frame_marginal(task)[0])


def dense_call(em, d, kind):
    """One dense ``propagate`` on d levels: a dissipator with no exact zeros,
    or ``validate_elimination``'s eliminated model (exact zeros), as in
    perfbench's ``sb.n4`` items at d = 4."""
    rng = np.random.default_rng([8, d])
    if kind == "no_zero":
        L = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        gen = em.opcore.dissipator_superop(L / np.abs(L).sum(0).max())
    else:
        B = rand_hermitian(rng, d // 2)
        gen = em.opcore.dissipator_superop(em.circuit.adiabatic_eliminate(
            5.0, 2.5, 0.1, 0.7, 100.0, SZ, B / np.abs(B).sum(0).max()))
    rho0 = np.eye(d, dtype=complex) / d
    rho0[0, 1] = rho0[1, 0] = 0.5 / d
    return (lambda: reference.evolve(gen, rho0, 2.0),
            lambda: em.liouville.propagate(gen, rho0, 2.0))


CASES = (
    # kind, maker, sizes, oracle repeats, library repeats (None: the median
    # of DENSE_REPEATS calls)
    ("validate_elimination", elimination_point, (4, 6, 8), 1, 3),
    ("jrm_propagate", jrm_point, (2, 3, 4), 1, 3),
    ("propagate_controlled", controlled_point,
     ((2, 4), (4, 4), (4, 6), (3, 8)), 1, 3),
    ("jrm_generator_build", jrm_build, (2, 3, 4), 3, 3),
    ("rotated_frame", rotated_frame, (2, 4, 8), 1, 3),
    ("dense_call.no_zero", lambda em, d: dense_call(em, d, "no_zero"),
     (4, 8), 3, None),
    ("dense_call.elimination", lambda em, d: dense_call(em, d, "elim"),
     (4, 8), 3, None),
    ("pair_assembly", pair_assembly, (4, 6, 8), 3, None),
    ("dissipator_build.elimination",
     lambda em, d: dissipator_build(em, d, "elimination"), (4,), 3, None),
    ("dissipator_build.rotated_frame",
     lambda em, d: dissipator_build(em, d, "rotated_frame"), (2, 4, 8), 3,
     None),
)


def scaling(args) -> dict:
    parent = load_parent(args.parent) if args.parent else None
    rows = []
    for kind, make, sizes, oracle_repeats, repeats in CASES:
        for n in sizes:
            oracle, library = make(emdyn, n)
            oracle_ms, want = timed(oracle, oracle_repeats)
            got = library()
            fns = [library] + ([make(parent, n)[1]] if parent else [])
            ms = (alternated(fns, repeats) if repeats else
                  alternated(fns, DENSE_REPEATS, statistics.median))
            row = {"kind": kind, "n": n, "oracle_ms": round(oracle_ms, 3),
                   "library_ms": round(ms[0], 3),
                   "max_abs_diff": float(np.max(np.abs(
                       np.asarray(got) - np.asarray(want))))}
            if parent:
                row["parent_ms"] = round(ms[1], 3)
            rows.append(row)
            print(json.dumps(rows[-1]), flush=True)
    return {"scaling": rows}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2]}


def run_perfbench(checkout, workload, seed, trace=0):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "28", "--trace", str(trace)],
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
    runs = alternating_runs(args, args.pairs, args.workload)
    summary = summarize(runs)
    for side, classes in summarize(runs, "class_ms_median").items():
        summary[side]["class_ms_median"] = classes
    key = f"perfbench.{args.workload}.seed{args.seed}"
    return {key: {"pairs": args.pairs, "summary": summary, "runs": runs}}


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
                    task = emdyn.scenario.load_scenario(path).task
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


def add_pairs_parser(sub) -> None:
    """The ``pairs`` subcommand's options, shared by the BENCH scripts."""
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--pairs", type=int, default=10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("scaling").add_argument("--parent")
    add_pairs_parser(sub)
    p = sub.add_parser("trace")
    p.add_argument("--parent", required=True)
    p.add_argument("--seed", type=int, default=3)
    sub.add_parser("e2e").add_argument("--parent", required=True)
    args = parser.parse_args(argv)
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data.update({"scaling": scaling, "pairs": pairs, "trace": trace,
                 "e2e": e2e}[args.cmd](args))
    data["machine"] = machine()
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
