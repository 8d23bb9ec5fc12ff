"""Seeded workloads: each builds *cycles* of items from an RNG.

An item is one closed-loop call into emdyn's public API (the unit whose
latency is reported).  Its output is checked after the timed phase, so
checks — including the dense-reference comparisons — never count towards
item latency or throughput.  Every cycle of a workload has the same fixed
mix of item classes; only the random operators, states and rates change.
Runs execute whole cycles, so throughput and the percentile positions do not
depend on where a time window happens to cut the mix.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

import reference as ref
from emdyn import bounds, circuit, cli, emergent, liouville, opcore, scenario

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
PAULI = {"id": I2, "sx": SX, "sy": SY, "sz": SZ}

REF_TOL = 1e-10


class KnownDefect(str):
    """A failure reason that is a documented library defect (ROADMAP item 4).

    Such failures count in ``failed`` like any other, but do not make the run
    incorrect: the benchmark records the defect instead of steering around it.
    """


@dataclass
class Item:
    """One timed call; ``check``/``reference`` return a failure reason or None.

    ``known_defect`` marks an item whose every failure is a documented defect.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None] = lambda out: None
    reference: Callable[[Any], str | None] | None = None
    rerun: Callable[[Any], str | None] | None = None
    known_defect: str | None = None


@dataclass
class Workload:
    name: str
    make_cycle: Callable[[np.random.Generator, "Context"], list[Item]]
    tail_pct: float             # fixed so it lands inside one size class


@dataclass
class Context:
    """Where scenario items write their artifacts (inside the checkout)."""

    tmp: Path
    count: int = 0

    def out_dir(self) -> Path:
        self.count += 1
        return self.tmp / f"item{self.count:06d}"


# --------------------------------------------------------------------------
# random inputs
# --------------------------------------------------------------------------

def rand_herm(rng, d):
    """Random Hermitian matrix with unit 1-norm.

    ``scipy.linalg.expm`` picks its squaring count from 1-norms, so fixing
    this norm keeps the cost of a propagation nearly independent of the seed.
    """
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (m + m.conj().T) / 2
    return h / np.abs(h).sum(axis=0).max()


def rand_ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def rand_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def _interleave(rng, queues) -> list[Item]:
    """Merge item lists in a seeded random order, keeping each list's order.

    Spreading every class over the whole cycle makes its latencies sample
    the machine's speed across the run instead of one short stretch.  The
    first list leads, so the warm-up item is always of the same class.
    """
    queues = [list(q) for q in queues]
    out = [queues[0].pop(0)]
    while True:
        sizes = np.array([len(q) for q in queues], dtype=float)
        if not sizes.any():
            return out
        out.append(queues[rng.choice(len(queues), p=sizes / sizes.sum())].pop(0))


def _finite(*xs) -> bool:
    return all(np.all(np.isfinite(np.asarray(x))) for x in xs)


def _slope(x, y) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# --------------------------------------------------------------------------
# gap_sweep
# --------------------------------------------------------------------------

GAP_GAMMAS = tuple(float(g) for g in np.geomspace(10.0, 1000.0, 4))
GAP_T = 1.0
# (d1, d2, couplings per cycle): D = 4, 8, 16 plus one D = 32 coupling.
# Each coupling gives 5 items (4 gaps + 1 finish), 250 per cycle.  Sorted by
# latency, the 45 D4 and D8 items come first, then the 160 D16 gap items
# (ranks 45-204), the 40 D16 finish items (ranks 205-244) and the 5 D32 items.
# p50 falls on the middle of the D16 gap items and p90 on the middle of the
# D16 finish items, so a slow stretch of the host that reaches part of a run
# shifts them no more than it shifts the items around them.  Both sit on
# BLAS-bound items: the ms-scale D4 and D8 items swing by half between runs
# on a shared host.  The D32 coupling takes about half of a cycle's time.
GAP_MIX = ((2, 2, 4), (2, 4, 5), (4, 4, 40), (4, 8, 1))


def _coupling_items(rng, d1, d2) -> list[Item]:
    A, B = rand_herm(rng, d1), rand_herm(rng, d2)
    eta = float(rng.uniform(0.5, 1.0))
    phi = float(rng.uniform(np.pi / 3, 2 * np.pi / 3))
    rho1 = rand_density(rng, d1)
    ket = rand_ket(rng, d2)
    rho2 = 0.8 * np.outer(ket, ket.conj()) + 0.2 * rand_density(rng, d2)
    rho0 = np.kron(rho1, rho2)
    base = liouville.DissipativeCoupling(A=A, B=B, gamma=GAP_GAMMAS[0],
                                         eta=eta, phi=phi)
    gaps: dict[float, float] = {}
    kind = f"D{d1 * d2}"

    def gap_item(gamma):
        def run():
            c = dataclasses.replace(base, gamma=gamma)
            gaps[gamma] = emergent.equivalence_gap(c, rho1, rho2, GAP_T)
            return gaps[gamma]

        def check(out):
            return None if _finite(out) and 0.0 <= out <= 1.0 else f"gap {out}"

        def reference(out):
            want = ref.gap(A, B, gamma, eta, phi, rho0, GAP_T)
            err = abs(out - want)
            return None if err <= REF_TOL else f"gap vs dense reference {err:.2e}"

        return Item(f"gap.{kind}", run, check,
                    reference if d1 * d2 <= 16 else None)

    def finish():
        report = emergent.nonreciprocity_report(base, rho0, GAP_T)
        mix = emergent.apply_mixture(
            emergent.strong_damping_map(base, rho1, GAP_T), rho2)
        ys = np.array([gaps[g] for g in GAP_GAMMAS])
        exponent, _ = emergent.fit_power_law(np.array(GAP_GAMMAS), ys)
        return report, mix, exponent, ys

    def check_finish(out):
        report, mix, exponent, ys = out
        if not -1.3 <= exponent <= -0.7:
            return f"fitted exponent {exponent:.3f} outside [-1.3, -0.7]"
        # With g = 0 the coherent marginal is exactly the mixture, so the gaps
        # are the mixture's distance to the exact marginal: it must shrink.
        coh = ref.coherent_s2_marginal(A, B, eta, phi, rho0, GAP_T)
        if np.max(np.abs(mix - coh)) > REF_TOL:
            return "apply_mixture differs from the coherent marginal"
        if not (np.all(np.diff(ys) < 0) and ys[-1] <= 0.1 * ys[0]):
            return f"mixture does not approach the exact marginal: {ys}"
        lam_a, lam_b = np.linalg.eigvalsh(A), np.linalg.eigvalsh(B)
        s = eta * np.sin(phi)
        if (not np.allclose(report["s2_drift_coefficients"], lam_a * s, atol=1e-9)
                or not np.allclose(report["s1_drift_coefficients"], -lam_b * s,
                                   atol=1e-9)):
            return "drift coefficients differ from lam (g ± eta sin phi)"
        for key in ("s1_trace_distance", "s2_trace_distance"):
            if not 0.0 <= report[key] <= 1.0:
                return f"{key} = {report[key]}"
        return None

    def reference_finish(out):
        report = out[0]
        dims = (d1, d2)
        full = ref.evolve(ref.coupling_generator(A, B, GAP_GAMMAS[0], eta, phi),
                          rho0, GAP_T)
        alone = ref.evolve(ref.coupling_generator(A, B, GAP_GAMMAS[0], 0.0, phi),
                           rho0, GAP_T)
        for k, key in enumerate(("s1_trace_distance", "s2_trace_distance")):
            want = ref.trace_dist(ref.marginal(full, dims, [k]),
                                  ref.marginal(alone, dims, [k]))
            if abs(report[key] - want) > REF_TOL:
                return f"{key} vs dense reference {abs(report[key] - want):.2e}"
        return None

    items = [gap_item(g) for g in GAP_GAMMAS]
    items.append(Item(f"finish.{kind}", finish, check_finish,
                      reference_finish if d1 * d2 <= 16 else None))
    return items


def gap_sweep_cycle(rng, ctx) -> list[Item]:
    return _interleave(rng, [_coupling_items(rng, d1, d2)
                             for d1, d2, count in GAP_MIX
                             for _ in range(count)])


# --------------------------------------------------------------------------
# pulsed gate tasks (ride in mode_elimination)
# --------------------------------------------------------------------------

# (d2, segments) of the pulsed gate tasks in each mode_elimination cycle: the
# cheap shapes, which sort below or among the n_max = 4 items.
PULSED_MIX = ((2, 1), (2, 1), (4, 1))


def _pulsed_item(rng, d2, n_seg) -> Item:
    # Rates, durations and segments follow the randomized pulsed tasks of
    # criterion 06; the operators have unit 1-norm.  With criterion 06's
    # unnormalized draws the 200-substep midpoint rule of the rotated frame
    # sometimes misses the 1e-4 agreement (1.2e-4 seen on one task).
    A, B = rand_herm(rng, 2), rand_herm(rng, d2)
    gamma = float(np.exp(rng.uniform(np.log(5.0), np.log(50.0))))
    eta = float(rng.uniform(0.3, 1.0))
    t = float(rng.uniform(0.3, 1.5))
    hams = tuple(rand_herm(rng, d2) for _ in range(2))
    durations = rng.uniform(0.1, 1.0, size=n_seg)
    durations *= t / durations.sum()
    segments = tuple((float(dur), tuple(float(x) for x in rng.uniform(-1, 1, 2)))
                     for dur in durations)
    psi0 = rand_ket(rng, d2)
    c = liouville.DissipativeCoupling(A=A, B=B, gamma=gamma, eta=eta,
                                      phi=np.pi / 2)
    pulse = liouville.ControlPulse(segments=segments, hamiltonians=hams)

    def run():
        task = bounds.make_gate_task(c, psi0, t, pulse=pulse)
        ub = bounds.error_upper_bound(task)
        emp = bounds.empirical_error(task)
        thr = bounds.gamma_threshold(task)
        rho2_rot, v = bounds.rotated_frame_marginal(task)
        twin = bounds.make_gate_task(c, psi0, t)
        return (task.target, ub, emp, thr, rho2_rot, v,
                bounds.exact_error_commuting(twin), bounds.empirical_error(twin))

    def check(out):
        target, ub, emp, thr, rho2_rot, v, twin_exact, twin_emp = out
        if not _finite(ub, emp, thr, rho2_rot, twin_exact, twin_emp):
            return "non-finite result"
        if emp > ub + 1e-9:
            return f"empirical error {emp} exceeds bound {ub}"
        if abs(twin_exact - twin_emp) > 1e-10:
            return f"pulse-free twin: |exact - empirical| = {abs(twin_exact - twin_emp):.2e}"
        a_vec = np.linalg.eigh(A)[1][:, -1]     # the task's eigenindex -1
        rho0 = np.kron(np.outer(a_vec, a_vec.conj()), np.outer(psi0, psi0.conj()))
        lab = ref.pulsed_s2_marginal(
            A, B, gamma, eta, np.pi / 2, rho0,
            [(dur, sum(x * h for x, h in zip(coeffs, hams)))
             for dur, coeffs in segments])
        fid_err = 1.0 - float(np.real(np.vdot(target, lab @ target)))
        if abs(fid_err - emp) > REF_TOL:
            return f"empirical error vs dense reference {abs(fid_err - emp):.2e}"
        back = ref.trace_dist(v.conj().T @ lab @ v, rho2_rot)
        if back > 1e-4:
            return f"rotated-frame marginal off the lab frame by {back:.2e}"
        return None

    return Item(f"pulse.d{d2}s{n_seg}", run, check)


# --------------------------------------------------------------------------
# mode_elimination
# --------------------------------------------------------------------------

SB_GAMMAS = tuple(float(g) for g in np.logspace(1, 3, 5))
# criterion 07: Fock-converged distances at n_max = 6 for its fixed model
C07_PINS = (0.01278142, 0.00371624, 0.00114485, 0.00035907, 0.00011325)
# Per cycle: 8 seeded n_max = 4 sweeps (40 items), 4 seeded gamma_z values at
# n_max = 2 (12 items), criterion 07's n_max = 6 sweep (5), one n_max = 3 JRM
# set (3), the 20 front-end scenarios of FRONT_END_MIX and the 3 pulsed gate
# tasks of PULSED_MIX: 83 items.  Sorted by latency, the scenarios and the
# d2 = 2 tasks come first (ranks 0-20; all but su(16) under 0.12 s), then the
# n_max = 4 items (ranks 21-60), which hold p50 at their middle.  The d2 = 4
# task and su(16) follow, then the n_max = 2 JRM items (ranks 63-74), which
# hold p85 at their middle, then the n_max = 6 and n_max = 3 items.  Both
# classes are large enough that their order statistics do not hang on a few
# items caught by a short slow stretch of the host.
SB4_SWEEPS = 8
JRM2_POINTS = 4


def _sweep_items(kind, n_max, A, B, gamma_eff, ratio, phi1, phi2, rho0, t,
                 pins=None, with_reference=False) -> list[Item]:
    dists: dict[float, float] = {}

    def point(gamma_a):
        lam1 = math.sqrt(gamma_eff * gamma_a) / 2
        lam2 = ratio * lam1

        def run():
            L = circuit.adiabatic_eliminate(lam1, lam2, phi1, phi2, gamma_a, A, B)
            full = circuit.build_system_bath(
                circuit.SystemBathParams(lam1, lam2, gamma_a, n_max=n_max),
                A, B, (phi1, phi2))
            dists[gamma_a] = circuit.validate_elimination(full, L, rho0, t)
            return dists[gamma_a]

        def check(out):
            return None if _finite(out) and 0.0 <= out <= 1.0 else f"distance {out}"

        def reference(out):
            want = ref.system_bath_distance(lam1, lam2, gamma_a, phi1, phi2,
                                            A, B, n_max, rho0, t)
            err = abs(out - want)
            return None if err <= REF_TOL else f"distance vs dense reference {err:.2e}"

        return Item(kind, run, check, reference if with_reference else None)

    items = [point(g) for g in SB_GAMMAS]

    def check_sweep(out):
        ys = np.array([dists[g] for g in SB_GAMMAS])
        if not np.all(np.diff(ys) < 0):
            return f"distances not strictly decreasing in gamma_a: {ys}"
        slope = _slope(SB_GAMMAS, ys)
        if not -1.3 <= slope <= -0.7:
            return f"elimination slope {slope:.3f} outside [-1.3, -0.7]"
        if pins is not None and not np.allclose(ys, pins, rtol=1e-4, atol=0):
            return f"criterion 07 pins missed: {ys}"
        return None

    last = items[-1]
    items[-1] = dataclasses.replace(
        last, check=lambda out, c=last.check: c(out) or check_sweep(out))
    return items


def _jrm_items(kind, n_max, gamma_z) -> list[Item]:
    """Forward, reverse and reference propagations of criterion 09's model."""
    mode = circuit.BosonicMode(n_max=n_max, omega_z=12.0, gamma_z=gamma_z)
    params = circuit.CircuitParams(
        E_J=4.0 * math.sqrt(2.0) * gamma_z, phi_ext=np.pi / 4, phi0=1.0,
        phi_z0=1.0, alpha_x=1.0, alpha_y=1.0, lambda_1z=0.25, lambda_2z=0.15,
        lambda_3z=0.15, Omega=(5.0, 6.0, 4.0), mode=mode)
    ec = circuit.effective_coupling_constants(params)
    t = 1.0 / (2.0 * ec.gamma_eff * ec.eta_over_gamma)
    dm = n_max + 1
    dims = (2, 2, 2, dm)
    rho0 = np.kron(np.kron(np.kron(P0, P0), P0), circuit.fock_vacuum(dm))
    states: dict[str, np.ndarray] = {}

    def propagate(label, phi, p):
        def run():
            tones = circuit.plan_dissipative_tones(
                p.Omega, mode.omega_z, 0.0, (0.0, np.pi + phi, np.pi + phi))
            me = circuit.build_jrm_effective(p, tones, include_three_body=True)
            states[label] = liouville.propagate(me.generator(), rho0, t)
            return label
        return run

    def reference_and_distances():
        # the phase only enters through lambda_2z and lambda_3z, which the
        # reference model sets to zero: one reference serves both directions
        propagate("ref", np.pi / 2, dataclasses.replace(
            params, lambda_2z=0.0, lambda_3z=0.0))()
        out = {}
        for label in ("fwd", "rev"):
            rho, rr = states[label], states["ref"]
            out[label] = (
                opcore.trace_distance(opcore.partial_trace(rho, dims, [0]),
                                      opcore.partial_trace(rr, dims, [0])),
                opcore.trace_distance(opcore.partial_trace(rho, dims, [1, 2]),
                                      opcore.partial_trace(rr, dims, [1, 2])))
        return out

    def check(out):
        (d1, d23), (d1_rev, d23_rev) = out["fwd"], out["rev"]
        if not (d1 <= 1e-3 and d23 >= 0.3):
            return f"forward marginals d1={d1:.2e} d23={d23:.3f}"
        if not (d1_rev <= 1e-3 and d23_rev <= 0.05):
            return f"reverse marginals d1={d1_rev:.2e} d23={d23_rev:.3f}"
        return None

    return [Item(kind, propagate("fwd", np.pi / 2, params)),
            Item(kind, propagate("rev", -np.pi / 2, params)),
            Item(kind, reference_and_distances, check)]


def mode_elimination_cycle(rng, ctx) -> list[Item]:
    queues = []
    ref_sweep = int(rng.integers(SB4_SWEEPS))
    for k in range(SB4_SWEEPS):
        A, B = rand_herm(rng, 2), rand_herm(rng, 2)
        a, b = rand_ket(rng, 2), rand_ket(rng, 2)
        queues.append(_sweep_items(
            "sb.n4", 4, A, B, float(rng.uniform(0.3, 0.9)),
            float(rng.uniform(0.3, 0.8)), float(rng.uniform(0, 2 * np.pi)),
            float(rng.uniform(0, 2 * np.pi)),
            np.kron(np.outer(a, a.conj()), np.outer(b, b.conj())), 2.0,
            with_reference=(k == ref_sweep)))
    plus = np.full((2, 2), 0.5, dtype=complex)
    queues.append(_sweep_items("sb.n6", 6, SZ, SX, 0.6, 0.5, 0.1, 0.7,
                               np.kron(plus, plus), 2.0, pins=C07_PINS))
    for _ in range(JRM2_POINTS):
        queues.append(_jrm_items("jrm.n2", 2, float(rng.uniform(25.0, 75.0))))
    queues.append(_jrm_items("jrm.n3", 3, float(rng.uniform(25.0, 75.0))))
    queues += [[_scenario_item(rng, ctx, task, variant)]
               for task, variant in FRONT_END_MIX]
    queues += [[_pulsed_item(rng, d2, n_seg)] for d2, n_seg in PULSED_MIX]
    return _interleave(rng, queues)


# --------------------------------------------------------------------------
# front end: seeded YAML scenarios through parse_scenario -> cli.run
# --------------------------------------------------------------------------

def _pauli_terms(rng, n_qubits, n_terms):
    terms = []
    for _ in range(n_terms):
        labels = [str(rng.choice(["id", "sx", "sy", "sz"])) for _ in range(n_qubits)]
        if all(lab == "id" for lab in labels):
            labels[int(rng.integers(n_qubits))] = "sz"
        coeff = round(float(rng.uniform(0.2, 1.0)) * float(rng.choice([-1, 1])), 6)
        terms.append((coeff, labels))
    return terms


def _pauli_text(terms, complex_first=False) -> str:
    parts = []
    for i, (coeff, labels) in enumerate(terms):
        ops = "⊗".join(labels)
        if i == 0 and complex_first:
            parts.append(f"({coeff:.6f}+0j)*{ops}")   # documented, see README
        elif i == 0:
            parts.append(f"{coeff:.6f}*{ops}")
        else:
            parts.append(f"{'-' if coeff < 0 else '+'} {abs(coeff):.6f}*{ops}")
    return " ".join(parts)


def _pauli_matrix(terms) -> np.ndarray:
    out = 0
    for coeff, labels in terms:
        m = PAULI[labels[0]]
        for lab in labels[1:]:
            m = np.kron(m, PAULI[lab])
        out = out + coeff * m
    return out


def _complex_text(z) -> str:
    return f"{float(round(z.real, 9))!r}{float(round(z.imag, 9)):+}j"


def _dense_operator(rng, d):
    """Random Hermitian matrix written as YAML strings; returns (spec, matrix)."""
    h = rand_herm(rng, d)
    spec = [[_complex_text(h[i, j]) for j in range(d)] for i in range(d)]
    return spec, np.array([[complex(v) for v in row] for row in spec])


def _operator(rng, n_qubits, dense=False, complex_coeff=False):
    if dense:
        return _dense_operator(rng, 2 ** n_qubits)
    terms = _pauli_terms(rng, n_qubits, int(rng.integers(1, 4)))
    return _pauli_text(terms, complex_coeff), _pauli_matrix(terms)


def _coupling_doc(rng, eta=None, g=True):
    gamma = round(float(rng.uniform(5.0, 20.0)), 6)
    doc = {"gamma": gamma,
           "eta": round(float(rng.uniform(0.2, 1.5)), 6) if eta is None else eta,
           "phi": round(float(rng.uniform(-np.pi, np.pi)), 6)}
    if g:
        doc["g"] = round(float(rng.uniform(0.0, 1.0)), 6)
    return doc


def _state_spec(rng, d, ket=False):
    choice = 3 if ket else int(rng.integers(4))
    if choice == 0:
        return str(int(rng.integers(d)))
    if choice == 1 and d == 2:
        return str(rng.choice(["+", "-"]))
    ket = rand_ket(rng, d)
    return [_complex_text(z) for z in ket]


def _scenario_doc(rng, task, variant):
    """One scenario document plus what the checks need to know about it."""
    doc = {"name": f"{task}-{variant}", "task": task,
           "seed": int(rng.integers(0, 2 ** 31))}
    meta: dict = {"task": task}
    if task in ("simulate", "equivalence", "bounds"):
        # qubits of S1 and S2, and sweep lengths, are fixed per task so that
        # each class has one cost
        q1, q2 = (1, 2) if task == "equivalence" else (1, 1)
        complex_coeff = variant == "complex-coefficient"
        spec_a, A = _operator(rng, q1, dense=not complex_coeff and bool(rng.integers(2)),
                              complex_coeff=complex_coeff)
        spec_b, B = _operator(rng, q2, dense=bool(rng.integers(2)))
        eta = 0.0 if variant == "eta0" else None
        doc["system"] = {"operators": {"A": spec_a, "B": spec_b}}
        doc["coupling"] = _coupling_doc(rng, eta=eta, g=(task == "simulate"))
        meta.update(A=A, B=B, coupling=doc["coupling"])
        d1, d2 = A.shape[0], B.shape[0]
        if task == "bounds":
            psi = _state_spec(rng, d2)
            doc["initial"] = {"psi0": psi}
            doc["sweep"] = {"t": sorted(round(float(x), 6) for x in
                                        rng.uniform(0.1, 2.0, 3))}
            if rng.integers(2):
                doc["margin"] = round(float(rng.uniform(10.0, 200.0)), 3)
        else:
            generic = variant == "fit"   # kets keep the gaps off round-off
            doc["initial"] = {"rho1": _state_spec(rng, d1, generic),
                              "rho2": _state_spec(rng, d2, generic)}
            meta.update(rho1=doc["initial"]["rho1"], rho2=doc["initial"]["rho2"])
            times = sorted(round(float(x), 6) for x in
                           rng.uniform(0.1, 2.0, 2))
            doc["sweep"] = {"t": times}
            if task == "equivalence":
                n = {"short": int(rng.integers(2, 4)), "single": 1}.get(variant, 4)
                lo = float(rng.uniform(5.0, 20.0))
                doc["sweep"]["gamma"] = [round(float(x), 6) for x in
                                         np.geomspace(lo, lo * 10 ** rng.uniform(2.0, 3.0), n)]
        if variant == "complex-coefficient":
            meta["known_defect"] = ("README documents complex Pauli "
                                    "coefficients; the parser rejects them")
    elif task == "controllability":
        n = {"d2": 1, "d4": 2, "d8": 3, "d16": 4}[variant]
        dense = n >= 3
        spec_b, _ = _operator(rng, n, dense=dense)
        spec_c, _ = _operator(rng, n, dense=dense)
        doc["system"] = {"operators": {"A": "sz", "B": spec_b},
                         "controls": [spec_c],
                         "lambda_a": round(float(rng.uniform(0.5, 1.5)), 6)}
        doc["coupling"] = _coupling_doc(rng)
        meta["d"] = 2 ** n
    elif task == "circuit-validate":
        gamma_z = round(float(rng.uniform(10.0, 80.0)), 6)
        phi_ext = round(float(rng.uniform(0.3, 1.2)), 6)
        balanced = variant == "balanced"
        e_j = 4.0 * gamma_z / math.sin(phi_ext) if balanced else \
            round(float(rng.uniform(50.0, 400.0)), 6)
        doc["circuit"] = {
            "E_J": e_j, "phi_ext": phi_ext,
            "lambda_1z": round(float(rng.uniform(0.1, 0.3)), 6),
            "lambda_2z": round(float(rng.uniform(0.05, 0.3)), 6),
            "lambda_3z": round(float(rng.uniform(0.05, 0.3)), 6),
            "Omega": [round(float(x), 6) for x in rng.uniform(3.0, 8.0, 3)],
            "mode": {"n_max": int(rng.integers(2, 6)),
                     "omega_z": round(float(rng.uniform(8.0, 15.0)), 6),
                     "gamma_z": gamma_z},
            "phi": float(rng.choice([np.pi / 2, -np.pi / 2]))
            if balanced else round(float(rng.uniform(-np.pi, np.pi)), 6)}
    elif task == "tones":
        w2 = round(float(rng.uniform(3.0, 7.0)), 6)
        w3 = round(float(rng.uniform(1.0, w2 - 0.5)), 6)
        w1 = round(float(rng.uniform(2.0, 8.0)), 6)
        sec = {"plan": variant, "Omega": [w1, w2, w3],
               "phi_y": [round(float(x), 6) for x in rng.uniform(-np.pi, np.pi, 3)]}
        if variant == "dissipative":
            wz = round(float(rng.uniform(max(w1, w2 + w3) + 1.0, 25.0)), 6)
            sec.update(omega_z=wz, phi_x1=round(float(rng.uniform(-1, 1)), 6),
                       collisions=[round(wz + w1, 6), 1000.0])
        doc["tones"] = sec
    text = yaml.safe_dump(doc, sort_keys=False, allow_unicode=True)
    return text, meta


# Fixed per-cycle mix over all six tasks.  Four items hit known defects
# (ROADMAP item 4): three equivalence sweeps that cannot be fitted (eta = 0,
# fewer than 4 gammas, a single gamma) write NaN or a fit of round-off into
# report.json, and the README's complex Pauli coefficient is rejected.
FRONT_END_MIX = (
    [("tones", v) for v in ("dissipative", "coherent")]
    + [("circuit-validate", v) for v in ("random", "balanced")]
    + [("controllability", v) for v in ("d2", "d4", "d8", "d16")]
    + [("simulate", "plain")] * 3 + [("simulate", "complex-coefficient")]
    + [("bounds", "plain")] * 3
    + [("equivalence", v) for v in ("fit", "fit", "eta0", "short", "single")])


def _strict_json(path: Path):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _check_fit(out_dir: Path) -> str | None:
    """Each time's fitted exponent against what the gaps allow.

    A sweep is fittable under the rule of the library's own
    ``gamma_scaling_fit``: at least 4 gammas over two decades and no gap below
    1e-14.  The CLI re-implements the fit without that rule and writes NaN or
    a fit of round-off for the others: a known defect (ROADMAP item 4).
    """
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    rows = np.array(_read_csv(out_dir / "results.csv"))
    gammas = sorted(set(rows[:, 0]))
    for t in report["times"]:
        exponent = report["fitted_exponent_per_t"]["%.16e" % t]
        gaps = rows[rows[:, 1] == t, 2]
        fittable = (len(gammas) >= 4 and gammas[-1] >= 100 * gammas[0]
                    and gaps.min() >= 1e-14)
        if fittable and not (isinstance(exponent, float) and exponent < 0):
            return f"fitted exponent {exponent} at t={t}"
        if not fittable and exponent is not None:
            return KnownDefect(f"writes exponent {exponent} for an unfittable "
                               "sweep instead of refusing the fit")
    return None


def _scenario_item(rng, ctx, task, variant) -> Item:
    text, meta = _scenario_doc(rng, task, variant)
    out_dir = ctx.out_dir()

    def run():
        s = scenario.parse_scenario(text)
        return cli.run(s, out_dir, scenario_bytes=text.encode("utf-8"))

    def check(rc):
        if rc != 0:
            return f"cli.run returned {rc}"
        if task == "equivalence":
            reason = _check_fit(out_dir)
            if reason:
                return reason
        try:
            report = _strict_json(out_dir / "report.json")
            manifest = _strict_json(out_dir / "manifest.json")
        except ValueError as exc:
            return f"artifact is not strict JSON: {exc}"
        for name, digest in manifest["outputs"].items():
            if hashlib.sha256((out_dir / name).read_bytes()).hexdigest() != digest:
                return f"manifest hash mismatch for {name}"
        if task == "controllability":
            full = meta["d"] ** 2 - 1
            if not 1 <= report["dim_without_drift"] <= report["dim_with_drift"] <= full:
                return f"Lie dimensions {report}"
        elif task == "bounds" and not report["all_bounded"]:
            return "empirical error exceeds the bound"
        elif task == "equivalence":
            if not 0 <= report["min_trace_distance"] <= report["max_trace_distance"] <= 1:
                return "trace distances outside [0, 1]"
        elif task == "simulate":
            rows = np.array(_read_csv(out_dir / "results.csv"))
            if not (np.all(rows[:, 1:] > 0) and np.all(rows[:, 1:] <= 1 + 1e-9)):
                return "purities outside (0, 1]"
        return None

    def reference(rc):
        A, B, c = meta["A"], meta["B"], meta["coupling"]
        d1, d2 = A.shape[0], B.shape[0]
        rows = _read_csv(out_dir / "results.csv")
        rho0 = np.kron(scenario.parse_state(meta["rho1"], d1, "rho1"),
                       scenario.parse_state(meta["rho2"], d2, "rho2"))
        worst = 0.0
        if task == "simulate":
            gen = ref.coupling_generator(A, B, c["gamma"], c["eta"], c["phi"],
                                         c.get("g", 0.0))
            for t, purity, p1, p2 in rows:
                rho = ref.evolve(gen, rho0, t)
                want = [np.trace(r @ r).real for r in
                        (rho, ref.marginal(rho, (d1, d2), [0]),
                         ref.marginal(rho, (d1, d2), [1]))]
                worst = max(worst, *np.abs(np.array([purity, p1, p2]) - want))
        else:
            for gamma, t, dist, _ in rows:
                want = ref.gap(A, B, gamma, c["eta"], c["phi"], rho0, t)
                worst = max(worst, abs(dist - want))
        return None if worst <= REF_TOL else f"results vs dense reference {worst:.2e}"

    def rerun(rc):
        again = ctx.out_dir()
        scenario_run = scenario.parse_scenario(text)
        cli.run(scenario_run, again, scenario_bytes=text.encode("utf-8"))
        for name in ("results.csv", "report.json", "manifest.json"):
            if (again / name).read_bytes() != (out_dir / name).read_bytes():
                return f"re-run of {name} is not byte-identical"
        return None

    known = meta.get("known_defect")
    has_reference = task in ("simulate", "equivalence") and known is None
    return Item(f"scn.{task}.{variant}", run, check,
                reference if has_reference else None,
                rerun=rerun, known_defect=known)


WORKLOADS = {
    w.name: w for w in (
        Workload("gap_sweep", gap_sweep_cycle, tail_pct=90.0),
        Workload("mode_elimination", mode_elimination_cycle, tail_pct=85.0),
    )
}
