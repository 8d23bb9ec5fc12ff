"""Acceptance suite: ten end-to-end checks, one test per criterion.

Golden numbers quoted here were produced by an independent brute-force
implementation (different vectorization convention) before this package was
written; they pin the physics, not this codebase's internals.
"""
import dataclasses
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from emdyn import (bounds, circuit, cli, control, emergent, liouville,
                   opcore)

from conftest import build_full_generator, expanded_generator, kron_dissipator

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
PLUS_KET = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
PLUS = np.outer(PLUS_KET, PLUS_KET)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def rand_herm(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def test_criterion_01_generator_equivalence():
    """Expanded four-term generator == direct dissipator of the nonlocal
    jump, entrywise to 1e-12 relative, for 100 random couplings."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for i in range(100):
        d2 = 2 if i < 50 else 4
        c = liouville.DissipativeCoupling(
            A=rand_herm(rng, 2), B=rand_herm(rng, d2),
            gamma=float(rng.uniform(0.5, 20.0)),
            eta=float(rng.uniform(0.0, 2.0)),
            phi=float(rng.uniform(-np.pi, np.pi)),
            g=0.0)
        direct = build_full_generator(c, include_coherent=False)
        expanded = expanded_generator(c, include_coherent=False)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(expanded - direct)) < 1e-12 * scale
    assert time.monotonic() - start < 10.0


def test_criterion_02_emergent_unitarity_scaling():
    """Trace-distance gap to the emergent unitary falls off ~1/gamma."""
    start = time.monotonic()
    gammas = [1e1, 1e2, 1e3, 1e4]
    gaps = []
    for gamma in gammas:
        c = liouville.DissipativeCoupling(A=SZ, B=SX, gamma=gamma, eta=1.0,
                                          phi=np.pi / 2)
        gaps.append(emergent.equivalence_gap(c, P0, P0, 1.0))
    slope, _ = emergent.fit_power_law(np.array(gammas), np.array(gaps))
    assert -1.2 <= slope <= -0.8
    assert gaps[-1] <= 1e-2 * gaps[0]  # two orders of magnitude down
    # independent-implementation pins
    npt.assert_allclose(
        gaps, [9.06346235e-02, 9.90066335e-03, 9.99000666e-04, 9.99900004e-05],
        rtol=1e-6)
    assert time.monotonic() - start < 30.0


def test_criterion_03_directionality():
    """At phi = +pi/2 with eta = g the S1 marginal is exactly the
    drift-free damped evolution, and the S2 drift doubles to 2 g lambda."""
    g = 0.7
    t = 0.9
    for gamma in (1e1, 1e2, 1e3, 1e4):
        c = liouville.DissipativeCoupling(A=SZ, B=SX, gamma=gamma, eta=g,
                                          phi=np.pi / 2, g=g)
        rho0 = np.kron(PLUS, P0)
        full = liouville.propagate(build_full_generator(c), rho0, t)
        s1 = opcore.partial_trace(full, (2, 2), [0])
        ref = liouville.propagate(gamma * kron_dissipator(SZ), PLUS, t)
        # the S1 closure is exact here; distances sit at the numerics floor
        assert opcore.trace_distance(s1, ref) <= 1e-12
    c = liouville.DissipativeCoupling(A=SZ, B=SX, gamma=10.0, eta=g,
                                      phi=np.pi / 2, g=g)
    for j, lam in enumerate([-1.0, 1.0]):
        drift, _ = liouville.reduced_s2_generator(c, j)
        assert drift == 2 * g * lam


def test_criterion_04_controllability():
    """Lie-closure dimensions: known closures, 50 random pairs at d = 3 and
    d = 4 all full, and the Ising-drift golden value."""
    start = time.monotonic()
    assert control.lie_closure([SZ]).dimension == 1
    assert control.lie_closure([SX, SZ]).dimension == 3
    rng = np.random.default_rng(104)
    for d in (3, 4):
        for _ in range(50):
            basis = control.lie_closure([rand_herm(rng, d), rand_herm(rng, d)])
            assert basis.dimension == d * d - 1
    zz = np.kron(SZ, SZ)
    collective_x = np.kron(SX, I2) + np.kron(I2, SX)
    assert control.lie_closure([zz, collective_x]).dimension == 4
    assert time.monotonic() - start < 60.0


def test_criterion_05_exact_error_formula():
    """Closed-form error for the +/- equal superposition matches full
    propagation to 1e-8 on a 25-point (t, gamma) grid."""
    worst = 0.0
    for t in (0.2, 0.6, 1.0, 1.4, 2.0):
        for gamma in (2.0, 5.0, 10.0, 30.0, 100.0):
            c = liouville.DissipativeCoupling(A=SZ, B=SZ, gamma=gamma,
                                              eta=1.0, phi=np.pi / 2)
            task = bounds.make_gate_task(c, PLUS_KET, t)
            closed = 0.5 * (1.0 - np.exp(-2.0 * t / gamma))
            exact = bounds.exact_error_commuting(task)
            empirical = bounds.empirical_error(task)
            worst = max(worst, abs(closed - exact), abs(closed - empirical))
    assert worst < 1e-8


def test_criterion_06_bound_certification():
    """100 seeded random pulsed gate tasks: the empirical error never
    exceeds the certificate."""
    start = time.monotonic()
    rng = np.random.default_rng(106)
    violations = 0
    for i in range(100):
        d2 = 2 if i < 50 else 4
        A = rand_herm(rng, 2)
        B = rand_herm(rng, d2)
        gamma = float(np.exp(rng.uniform(np.log(5.0), np.log(50.0))))
        eta = float(rng.uniform(0.3, 1.0))
        t = float(rng.uniform(0.3, 1.5))
        n_seg = int(rng.integers(1, 4))
        hams = tuple(rand_herm(rng, d2) for _ in range(2))
        durations = rng.uniform(0.1, 1.0, size=n_seg)
        durations *= t / durations.sum()
        segments = tuple(
            (float(dur), tuple(float(x) for x in rng.uniform(-1, 1, size=2)))
            for dur in durations)
        pulse = liouville.ControlPulse(segments=segments, hamiltonians=hams)
        c = liouville.DissipativeCoupling(A=A, B=B, gamma=gamma, eta=eta,
                                          phi=np.pi / 2, g=0.0)
        psi0 = rng.normal(size=d2) + 1j * rng.normal(size=d2)
        psi0 /= np.linalg.norm(psi0)
        task = bounds.make_gate_task(c, psi0, t, pulse=pulse)
        if bounds.empirical_error(task) > bounds.error_upper_bound(task) + 1e-9:
            violations += 1
    assert violations == 0
    assert time.monotonic() - start < 300.0


def test_criterion_07_adiabatic_elimination():
    """Full qubit-qubit-mode model vs the eliminated dissipator: distance
    falls like ~1/gamma_a and is Fock-converged at n_max = 6."""
    gamma_eff, ratio = 0.6, 0.5
    phi1, phi2, t = 0.1, 0.7, 2.0
    rho0 = np.kron(PLUS, PLUS)
    gammas = np.logspace(1, 3, 5)

    def sweep(n_max):
        out = []
        for gamma_a in gammas:
            lam1 = np.sqrt(gamma_eff * gamma_a) / 2
            lam2 = ratio * lam1
            L = circuit.adiabatic_eliminate(lam1, lam2, phi1, phi2,
                                            float(gamma_a), SZ, SX)
            full = circuit.build_system_bath(
                circuit.SystemBathParams(lam1, lam2, float(gamma_a),
                                         n_max=n_max),
                SZ, SX, (phi1, phi2))
            out.append(circuit.validate_elimination(full, L, rho0, t))
        return np.array(out)

    dists = sweep(6)
    assert np.all(np.diff(dists) < 0)  # strictly decreasing over 2 decades
    slope, _ = emergent.fit_power_law(gammas, dists)
    assert -1.3 <= slope <= -0.7
    # independent-implementation pins (quoted at 8 decimal places, so the
    # smallest entries carry ~5e-5 relative print rounding)
    npt.assert_allclose(
        dists, [0.01278142, 0.00371624, 0.00114485, 0.00035907, 0.00011325],
        rtol=1e-4)
    dists8 = sweep(8)
    assert np.max(np.abs(dists - dists8)) < 1e-6


def test_criterion_08_jrm_pipeline():
    """Tone planning and the eliminated-model coefficient map."""
    rng = np.random.default_rng(108)
    # (a) six derived frequencies, exactly
    for _ in range(20):
        w2 = float(rng.uniform(2.0, 6.0))
        w3 = float(rng.uniform(0.5, w2 - 0.5))
        w1 = float(rng.uniform(1.0, 8.0))
        wz = float(rng.uniform(w2 + w3 + 1.0, 25.0))
        ts = circuit.plan_dissipative_tones((w1, w2, w3), wz, 0.0,
                                            (0.0, 0.0, 0.0))
        want = (wz + w1, wz - w1, wz + (w2 + w3), wz - (w2 + w3),
                wz + (w2 - w3), wz - (w2 - w3))
        assert ts.derived == want
    # (b) eliminating the post-rotating-wave model reproduces the nonlocal
    # jump coefficients, including the effective rate Lambda^2 l1z^2/(4 gz)
    mode = circuit.BosonicMode(n_max=3, omega_z=12.0, gamma_z=50.0)
    params = circuit.CircuitParams(
        E_J=200.0 * np.sqrt(2.0), phi_ext=np.pi / 4, phi0=1.0, phi_z0=1.0,
        alpha_x=1.0, alpha_y=1.0, lambda_1z=0.25, lambda_2z=0.15,
        lambda_3z=0.15, Omega=(5.0, 6.0, 4.0), mode=mode)
    ec = circuit.effective_coupling_constants(params)
    phi = 0.6
    lam1t = ec.Lambda * params.lambda_1z / 4
    lam2t = ec.Lambda * ec.beta / 4
    A, B = SX, np.kron(SX, SX)
    # channel amplitudes are negative; absorbing the sign shifts both
    # quadrature phases by pi
    L = circuit.adiabatic_eliminate(lam1t, lam2t, np.pi, np.pi + (np.pi + phi),
                                    mode.gamma_z, A, B).jump_operator()
    want = np.sqrt(ec.gamma_eff) * (
        np.kron(A, np.eye(4))
        - ec.eta_over_gamma * np.exp(1j * phi) * np.kron(I2, B))
    assert np.max(np.abs(L - want)) < 1e-12
    rate = (2 * lam1t / np.sqrt(mode.gamma_z)) ** 2
    want_rate = ec.Lambda ** 2 * params.lambda_1z ** 2 / (4 * mode.gamma_z)
    assert abs(rate - want_rate) < 1e-12 * want_rate


def _jrm_marginal_distances(phi, gamma_z, n_max):
    mode = circuit.BosonicMode(n_max=n_max, omega_z=12.0, gamma_z=gamma_z)
    params = circuit.CircuitParams(
        E_J=4.0 * np.sqrt(2.0) * gamma_z, phi_ext=np.pi / 4, phi0=1.0,
        phi_z0=1.0, alpha_x=1.0, alpha_y=1.0, lambda_1z=0.25, lambda_2z=0.15,
        lambda_3z=0.15, Omega=(5.0, 6.0, 4.0), mode=mode)
    ec = circuit.effective_coupling_constants(params)
    eta = ec.gamma_eff * ec.eta_over_gamma
    t = 1.0 / (2.0 * eta)
    dm = n_max + 1
    dims = (2, 2, 2, dm)
    rho0 = opcore.tensor([P0, P0, P0, circuit.fock_vacuum(dm)])
    tones = circuit.plan_dissipative_tones(
        params.Omega, mode.omega_z, 0.0, (0.0, np.pi + phi, np.pi + phi))
    me = circuit.build_jrm_effective(params, tones, include_three_body=True)
    rho_t = liouville.propagate(me.generator(), rho0, t)
    ref_params = dataclasses.replace(params, lambda_2z=0.0, lambda_3z=0.0)
    me_ref = circuit.build_jrm_effective(ref_params, tones,
                                         include_three_body=True)
    rho_ref = liouville.propagate(me_ref.generator(), rho0, t)
    d1 = opcore.trace_distance(opcore.partial_trace(rho_t, dims, [0]),
                               opcore.partial_trace(rho_ref, dims, [0]))
    d23 = opcore.trace_distance(opcore.partial_trace(rho_t, dims, [1, 2]),
                                opcore.partial_trace(rho_ref, dims, [1, 2]))
    return d1, d23


def test_criterion_09_nonreciprocity():
    """Condition checker truth table, plus the simulated three-qubit
    marginals at the balance point."""
    mode = circuit.BosonicMode(n_max=3, omega_z=12.0, gamma_z=50.0)
    params = circuit.CircuitParams(
        E_J=200.0 * np.sqrt(2.0), phi_ext=np.pi / 4, phi0=1.0, phi_z0=1.0,
        alpha_x=1.0, alpha_y=1.0, lambda_1z=0.25, lambda_2z=0.15,
        lambda_3z=0.15, Omega=(5.0, 6.0, 4.0), mode=mode)
    assert circuit.nonreciprocity_conditions(params, np.pi / 2) == (True, "S1->S2")
    assert circuit.nonreciprocity_conditions(params, -np.pi / 2) == (True, "S2->S1")
    assert circuit.nonreciprocity_conditions(params, 0.0) == (False, None)
    assert circuit.nonreciprocity_conditions(params, np.pi / 4) == (False, None)
    off_balance = dataclasses.replace(params, E_J=params.E_J * 1.05)
    assert circuit.nonreciprocity_conditions(off_balance, np.pi / 2) == (False, None)

    # forward direction: qubit 1 stays on its damped trajectory while the
    # qubit-2,3 pair is strongly driven
    d1, d23 = _jrm_marginal_distances(np.pi / 2, 50.0, n_max=3)
    assert d1 <= 1e-3
    assert d23 >= 0.3
    # independent-implementation pin (Fock cutoff 4)
    _, d23_hi = _jrm_marginal_distances(np.pi / 2, 50.0, n_max=4)
    assert d23_hi == pytest.approx(0.6977194644229263, rel=1e-6)
    # reversed phase: the pair is left alone instead
    d1_rev, d23_rev = _jrm_marginal_distances(-np.pi / 2, 50.0, n_max=3)
    assert d1_rev <= 1e-3
    assert d23_rev <= 0.05
    # the forward effect is a strong-damping statement: invariant in gamma_z
    _, d23_25 = _jrm_marginal_distances(np.pi / 2, 25.0, n_max=3)
    assert abs(d23_25 - d23) < 1e-9


def test_criterion_10_cli_determinism(tmp_path):
    """Identical scenario + seed -> byte-identical artifacts."""
    scenario = SCENARIO_DIR / "equivalence_two_qubit.yaml"
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = cli.main(["equivalence", "--scenario", str(scenario),
                       "--out", str(out), "--seed", "7"])
        assert rc == 0
    for name in ("results.csv", "report.json", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
