"""Block-route scaling curve and perfbench medians, written to the JSON file
named by ``OUT``.

    python benchmarks/block_scaling.py scaling [--parent DIR]
    python benchmarks/block_scaling.py pairs --parent DIR --workload NAME \
        --seed N --pairs K
    python benchmarks/block_scaling.py trace --parent DIR [--seed N]
    python benchmarks/block_scaling.py e2e --parent DIR
    python benchmarks/block_scaling.py expm --parent DIR
    python benchmarks/block_scaling.py probe --parent DIR [--seed N]

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
runs on both checkouts, alternating which runs first.  ``expm`` times
``opcore.expm`` on both checkouts, alternating call by call (median of
``EXPM_REPEATS``), with each side's error against a 40-digit mpmath
``expm``: the stacks one ``sb.n4`` item hands it (perfbench's first seed-3
draw, which occupies every block pair: four 25×25 real pinned diagonal
blocks and six 25×25 complex off-diagonal ones) at gamma_a = 10, 100 and
1000, and single random complex 4×4 and real 16×16 matrices at 1-norm
0.05 and 2.3.  An error is the largest member's 1-norm error; the
``floor`` beside it is ``4 u ‖E‖₁``.  The same subcommand summarizes the
errors of every stack member of five seeded ``sb.n4`` items and records
the largest ``validate_elimination`` difference between the checkouts on
those five sweeps and on criterion 07 at n_max 4, 6 and 8.
``probe`` splits perfbench's ``mode_elimination`` set-up probe in fresh
processes, ``PROBE_REPEATS`` per checkout, alternating: ``import emdyn``,
importing perfbench, building cycle 0 and running its first ``sb.n4``
item; beside it, the whole probe (``perfbench/run.py --probe``) and whether
``python -X importtime -c 'import emdyn'`` lists the same modules on both.
Each subcommand updates its own key of the JSON file and the machine info.
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

import mpmath  # noqa: E402
import numpy as np  # noqa: E402  (after the BLAS pin)
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests"),
                str(ROOT / "perfbench")]

import emdyn  # noqa: E402
from conftest import (kron_superop, rand_density,  # noqa: E402
                      rand_hermitian, rotated_frame_loop, working_point)
import workloads  # noqa: E402
from perfbench import reference  # noqa: E402

OUT = ROOT / "BENCH_18.json"
DENSE_REPEATS = 2000
E2E_REPEATS = 5
TRACE_RUNS = 5
EXPM_REPEATS = 25
PROBE_REPEATS = 10
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


def eliminated_jump(em, *args):
    """The jump matrix of ``adiabatic_eliminate(*args)``, which returns it
    as a matrix or, in newer checkouts, as a ``DissipativeCoupling``."""
    out = em.circuit.adiabatic_eliminate(*args)
    return out if isinstance(out, np.ndarray) else out.jump_operator()


def elimination_model(em, n_max):
    """Criterion 07's model at gamma_a = 100, the middle of its sweep: its
    parameters, eliminated model (what ``adiabatic_eliminate`` returns) and
    full model."""
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
    lab = em.liouville._components(pattern)
    comps = [np.flatnonzero(lab == c) for c in np.unique(lab)]
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


def dissipator(em, L):
    """The generator of ``D[L]``, as ``MasterEquation.generator`` builds it."""
    d = len(L)
    return em.liouville.MasterEquation(np.zeros((d, d)), ((L, 1.0),),
                                       (d,)).generator()


def dissipator_build(em, d, kind):
    """The generator of ``D[L]`` (:func:`dissipator`) for
    ``elimination_point``'s eliminated jump (D = 4, with exact zeros) or the
    rotated frame's dense ``M`` on d2 levels (the 64×64 ``D[M]`` at d2 =
    8), against its Kronecker build."""
    if kind == "elimination":
        lam1, lam2, gamma_a, phi1, phi2 = elimination_model(em, 4)[0]
        L = eliminated_jump(em, lam1, lam2, phi1, phi2, gamma_a, SZ, SX)
    else:
        c = pulsed_task(em, d).coupling
        lam = em.opcore.herm_eig(c.A).eigenvalues[0]
        L = np.sqrt(c.gamma) * lam * np.eye(d) - np.exp(
            1j * c.phi) * c.eta / np.sqrt(c.gamma) * c.B
    z = np.zeros_like(L)
    return (lambda: kron_superop(z, z, [(L, L, 1.0)]),
            lambda: dissipator(em, L))


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
    """The rotated-frame marginal: per-substep loop vs the library's route."""
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
        gen = dissipator(em, L / np.abs(L).sum(0).max())
    else:
        B = rand_hermitian(rng, d // 2)
        gen = dissipator(em, eliminated_jump(
            em, 5.0, 2.5, 0.1, 0.7, 100.0, SZ, B / np.abs(B).sum(0).max()))
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


def sb4_models() -> list[tuple]:
    """Five ``sb.n4`` models drawn as perfbench draws them (seed 3), then
    criterion 07's at n_max 4, 6 and 8: ``(n_max, A, B, gamma_eff, ratio,
    phi1, phi2, rho0)``."""
    rng = np.random.default_rng(3)
    models = []
    for _ in range(5):
        A, B = workloads.rand_herm(rng, 2), workloads.rand_herm(rng, 2)
        a, b = workloads.rand_ket(rng, 2), workloads.rand_ket(rng, 2)
        models.append((4, A, B, *rng.uniform([0.3, 0.3, 0, 0],
                                             [0.9, 0.8, 2 * np.pi, 2 * np.pi]),
                       np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))))
    plus = np.full((2, 2), 0.5, dtype=complex)
    return models + [(n, SZ, SX, 0.6, 0.5, 0.1, 0.7, np.kron(plus, plus))
                     for n in (4, 6, 8)]


def sb4_distance(em, n, A, B, gamma_eff, ratio, phi1, phi2, rho0, gamma_a):
    """``validate_elimination`` of one ``sb4_models`` model at ``gamma_a``,
    t = 2, as perfbench's sweep items run it."""
    lam1 = np.sqrt(gamma_eff * gamma_a) / 2
    L = em.circuit.adiabatic_eliminate(lam1, ratio * lam1, phi1, phi2,
                                       gamma_a, A, B)
    full = em.circuit.build_system_bath(em.circuit.SystemBathParams(
        lam1, ratio * lam1, gamma_a, n_max=n), A, B, (phi1, phi2))
    return em.circuit.validate_elimination(full, L, rho0, 2.0)


def sb4_stacks(em, gamma_a, model=None):
    """The ``expm`` calls (``(op, scale, kwargs)``) of one ``sb4_models``
    item (the first by default) at ``gamma_a``."""
    seen = []
    kernel = em.opcore.expm

    def spy(op, scale=1.0, **kw):
        seen.append((op, scale, kw))
        return kernel(op, scale, **kw)

    em.opcore.expm = spy
    try:
        sb4_distance(em, *(model or sb4_models()[0]), gamma_a)
    finally:
        em.opcore.expm = kernel
    return seen


def mp_error(got, ref) -> tuple[float, float]:
    """1-norms of ``got − ref`` and of ``ref``, an mpmath matrix, reckoned
    in mpmath."""
    n = got.shape[-1]
    cols = [(mpmath.fsum(abs(ref[i, j] - complex(got[i, j])) for i in range(n)),
             mpmath.fsum(abs(ref[i, j]) for i in range(n))) for j in range(n)]
    return float(max(c[0] for c in cols)), float(max(c[1] for c in cols))


def mp_errors(gots, op, scale):
    """Each stack of ``gots``' 1-norm error per member against mpmath's
    40-digit ``expm`` of ``scale * op``, and ``4 u`` times each member's
    1-norm."""
    errs, floors = [[] for _ in gots], []
    members = (scale * op).reshape((-1,) + op.shape[-2:])
    for k, a in enumerate(members):
        with mpmath.workdps(40):
            ref = mpmath.expm(mpmath.matrix(a.tolist()))
            for err, got in zip(errs, gots):
                err.append(mp_error(got.reshape(members.shape)[k], ref)[0])
            floors.append(4 * 2.0 ** -53 * mp_error(a, ref)[1])
    return errs, floors


def expm_rows(args) -> dict:
    parent = load_parent(args.parent)
    calls = [(f"sb.n4.gamma_a{g:g}", *call) for g in (10.0, 100.0, 1000.0)
             for call in sb4_stacks(emdyn, g)]
    rng = np.random.default_rng(18)
    for n, kind in ((4, "complex"), (16, "real")):
        x = rng.normal(size=(n, n))
        if kind == "complex":
            x = x + 1j * rng.normal(size=(n, n))
        for norm in (0.05, 2.3):
            calls.append((f"single.{n}x{n}.{kind}.norm{norm:g}",
                          x * norm / np.abs(x).sum(axis=0).max(), 1.0, {}))
    rows = []
    for label, op, scale, kw in calls:
        ms = alternated([lambda: parent.opcore.expm(op, scale, **kw),
                         lambda: emdyn.opcore.expm(op, scale, **kw)],
                        EXPM_REPEATS, statistics.median)
        (parent_err, change_err), floor = mp_errors(
            [parent.opcore.expm(op, scale, **kw),
             emdyn.opcore.expm(op, scale, **kw)], op, scale)
        rows.append({"case": label, "shape": list(op.shape),
                     "dtype": op.dtype.name, "pinned": "conserved" in kw,
                     "norm1": float(np.abs(scale * op).sum(axis=-2).max()),
                     "parent_us": round(1e3 * ms[0], 1),
                     "change_us": round(1e3 * ms[1], 1),
                     "parent_err": max(parent_err),
                     "change_err": max(change_err), "floor": max(floor),
                     "member_err": {"parent": parent_err,
                                    "change": change_err}})
        print(json.dumps({k: v for k, v in rows[-1].items()
                          if k != "member_err"}), flush=True)
    return {"expm": rows, "expm_sb4_members": sb4_member_errors(parent),
            "validate_elimination_vs_parent": elimination_vs_parent(parent)}


def sb4_member_errors(parent) -> dict:
    """Every ``expm`` stack member of the five seeded ``sb4_models`` items at
    gamma_a 10, 100 and 1000: each side's median and largest 1-norm error
    against mpmath per gamma_a and dtype, and how many members the change
    errs no more on than the parent, up to ``4 u ‖E‖₁``."""
    out = {}
    for g in (10.0, 100.0, 1000.0):
        for m in sb4_models()[:5]:
            for op, scale, kw in sb4_stacks(emdyn, g, m):
                (p_err, c_err), floor = mp_errors(
                    [parent.opcore.expm(op, scale, **kw),
                     emdyn.opcore.expm(op, scale, **kw)], op, scale)
                errs = out.setdefault(f"gamma_a{g:g}.{op.dtype.name}",
                                      {"parent": [], "change": [], "floor": []})
                errs["parent"] += p_err
                errs["change"] += c_err
                errs["floor"] += floor
    summary = {}
    for key, e in out.items():
        summary[key] = {
            "members": len(e["parent"]),
            "parent_median": statistics.median(e["parent"]),
            "change_median": statistics.median(e["change"]),
            "parent_max": max(e["parent"]), "change_max": max(e["change"]),
            "change_no_worse": sum(c <= p + f for p, c, f in zip(
                e["parent"], e["change"], e["floor"]))}
        print(json.dumps({key: summary[key]}), flush=True)
    return summary


def elimination_vs_parent(parent) -> dict:
    """Largest |distance difference| between the checkouts for each kind of
    ``sb4_models`` model, over perfbench's five gamma_a."""
    diffs = {}
    for k, m in enumerate(sb4_models()):
        key = "sb.n4" if k < 5 else f"c07.n{m[0]}"
        for g in workloads.SB_GAMMAS:
            diffs[key] = max(diffs.get(key, 0.0),
                             abs(sb4_distance(emdyn, *m, g)
                                 - sb4_distance(parent, *m, g)))
    return diffs


PROBE = r"""
import json, sys, tempfile, time
from pathlib import Path
t0 = time.perf_counter()
sys.path[:0] = ["src", "perfbench"]
import emdyn
t1 = time.perf_counter()
import run, workloads
t2 = time.perf_counter()
with tempfile.TemporaryDirectory() as tmp:
    items = run._cycle(workloads.WORKLOADS["mode_elimination"],
                       int(sys.argv[1]), 0, workloads.Context(Path(tmp)))
    t3 = time.perf_counter()
    next(item for item in items if item.kind == "sb.n4").run()
    t4 = time.perf_counter()
print(json.dumps({"import_emdyn_s": t1 - t0, "import_perfbench_s": t2 - t1,
                  "cycle0_build_s": t3 - t2, "first_sb_n4_s": t4 - t3}))
"""


def imported_modules(checkout) -> set:
    out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import emdyn"], cwd=checkout, capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(checkout / "src")))
    return {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
            if line.startswith("import time:") and "|" in line} - {"package"}


def probe(args) -> dict:
    sides = sides_of(args)
    runs = {side: [] for side in sides}
    for k in range(PROBE_REPEATS):
        for side in (list(sides) if k % 2 == 0 else list(sides)[::-1]):
            out = subprocess.run([sys.executable, "-c", PROBE,
                                  str(args.seed)], cwd=sides[side],
                                 capture_output=True, text=True, check=True)
            row = json.loads(out.stdout)
            row["probe_total_s"] = wall_s(
                [sys.executable, "perfbench/run.py", "--workload",
                 "mode_elimination", "--seed", str(args.seed), "--seconds",
                 "0", "--trace", "0", "--probe"], sides[side], os.environ)[0]
            runs[side].append(row)
        print(json.dumps({side: runs[side][-1] for side in sides}), flush=True)
    modules = {side: imported_modules(path) for side, path in sides.items()}
    return {f"probe.seed{args.seed}": {
        "summary": {side: {m: quartiles([r[m] for r in rs]) for m in rs[0]}
                    for side, rs in runs.items()},
        "runs": runs,
        "import_emdyn_modules": {side: len(m) for side, m in modules.items()},
        "import_emdyn_modules_equal": modules["parent"] == modules["change"]}}


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
                    task = emdyn.scenario.parse_scenario(
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
    sub.add_parser("expm").add_argument("--parent", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--parent", required=True)
    p.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data.update({"scaling": scaling, "pairs": pairs, "trace": trace,
                 "e2e": e2e, "expm": expm_rows, "probe": probe}[args.cmd](args))
    data["machine"] = machine()
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
