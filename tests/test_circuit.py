import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdyn import circuit, liouville, opcore
from emdyn.errors import (DimMismatch, DispersiveViolation,
                          NegativeToneFrequency, TruncationTooSmall,
                          ValidationError, ZeroPrimaryCoupling)

from conftest import (dense_expm_oracle, modulation_forms, rand_density,
                      rand_hermitian, working_point)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_mode_and_params_validation():
    with pytest.raises(ValidationError):
        circuit.BosonicMode(n_max=1, omega_z=1.0, gamma_z=1.0)
    with pytest.raises(ValidationError):
        circuit.BosonicMode(n_max=4, omega_z=1.0, gamma_z=0.0)
    mode = circuit.BosonicMode(n_max=4, omega_z=1.0, gamma_z=1.0)
    assert mode.dim == 5
    assert circuit.BosonicMode(np.int64(3), 1.0, 1.0).dim == 4
    assert circuit.SystemBathParams(1.0, 0.5, 10.0, np.int32(3)).n_max == 3
    with pytest.raises(ValidationError):
        dataclasses.replace(working_point(), Omega=(1.0, -2.0, 0.5))


@pytest.mark.parametrize("field", [
    "E_J", "phi_ext", "phi0", "phi_z0", "alpha_x", "alpha_y", "lambda_1z",
    "lambda_2z", "lambda_3z", "omega_z", "Omega", "phi"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_circuit_parameters_must_be_finite(field, value):
    params = working_point()
    with pytest.raises(ValidationError, match=field):
        if field == "omega_z":
            dataclasses.replace(params.mode, omega_z=value)
        elif field == "Omega":
            dataclasses.replace(params, Omega=(5.0, value, 4.0))
        elif field == "phi":
            circuit.nonreciprocity_conditions(params, value)
        else:
            dataclasses.replace(params, **{field: value})


def test_dispersive_ratio_warning():
    with pytest.warns(UserWarning):
        dataclasses.replace(working_point(), lambda_1z=0.35)


def test_lowering_and_quadrature():
    a = circuit.lowering(3)
    npt.assert_allclose(a[0, 1], 1.0)
    npt.assert_allclose(a[2, 3], np.sqrt(3))
    x0 = circuit.quadrature(a, 0.0)
    npt.assert_allclose(x0, a + a.conj().T)
    xq = circuit.quadrature(a, np.pi / 2)
    npt.assert_allclose(xq, -1j * (a - a.conj().T), atol=1e-15)


def test_effective_constants_at_working_point():
    ec = circuit.effective_coupling_constants(working_point())
    assert ec.Lambda == pytest.approx(50.0, rel=1e-12)
    assert ec.beta == pytest.approx(0.01125, rel=1e-12)
    assert ec.gamma_eff == pytest.approx(0.78125, rel=1e-12)
    assert ec.eta_over_gamma == pytest.approx(0.045, rel=1e-12)


def test_dissipative_tone_plan_standard_point():
    ts = circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 12.0, 0.0,
                                        (0.0, 0.0, 0.0))
    assert ts.kind == "dissipative"
    assert ts.x_tones == ((12.0, 0.0),)
    assert [f for f, _ in ts.y_tones] == [5.0, 10.0, 2.0]
    assert ts.derived == (17.0, 7.0, 22.0, 2.0, 14.0, 10.0)
    assert ts.phase_sum == ts.phase_diff == (0.0, 0.0, 0.0)


def test_tone_phases_carry_through():
    ts = circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 12.0, 0.25,
                                        (0.1, 0.2, 0.3))
    npt.assert_allclose(ts.phase_sum, (0.35, 0.45, 0.55))
    npt.assert_allclose(ts.phase_diff, (-0.15, -0.05, 0.05))


def test_tone_plan_rejects_nonpositive_frequencies():
    with pytest.raises(NegativeToneFrequency):
        circuit.plan_dissipative_tones((5.0, 4.0, 4.0), 12.0, 0.0,
                                       (0.0, 0.0, 0.0))
    with pytest.raises(NegativeToneFrequency):
        circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 9.0, 0.0,
                                       (0.0, 0.0, 0.0))


@pytest.mark.parametrize("Omega, omega_z, phi_x1, phi_y", [
    ((5.0, 6.0, np.nan), 12.0, 0.0, (0.0, 0.0, 0.0)),
    ((5.0, 6.0), 12.0, 0.0, (0.0, 0.0, 0.0)),
    ((5.0, 6.0, 4.0), np.inf, 0.0, (0.0, 0.0, 0.0)),
    ((5.0, 6.0, 4.0), np.nan, 0.0, (0.0, 0.0, 0.0)),
    ((5.0, 6.0, 4.0), 12.0, np.nan, (0.0, 0.0, 0.0)),
    ((5.0, 6.0, 4.0), 12.0, 0.0, (0.0, np.inf, 0.0))])
def test_tone_plans_reject_bad_input(Omega, omega_z, phi_x1, phi_y):
    """Three finite ``Omega`` and ``phi_y`` for both plans, and a finite
    ``omega_z`` and ``phi_x1`` for the dissipative one, or
    :class:`ValidationError` (no NaN or infinite tone, no bare
    ``ValueError``)."""
    with pytest.raises(ValidationError):
        circuit.plan_dissipative_tones(Omega, omega_z, phi_x1, phi_y)
    if np.isfinite([omega_z, phi_x1]).all():
        with pytest.raises(ValidationError):
            circuit.plan_coherent_tones(Omega, phi_y)


def test_tone_plan_flags_collisions():
    ts = circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 12.0, 0.0,
                                        (0.0, 0.0, 0.0), collisions=[17.0])
    assert any("17" in note for note in ts.notes)


def test_coherent_tone_plan():
    ts = circuit.plan_coherent_tones((20.0, 6.0, 4.0), (0.3, 0.1, 0.1))
    assert ts.kind == "coherent"
    assert ts.x_tones == ((20.0, 0.3),)
    # m = 1 produces 2*Omega1 (flagged unused) and drops the DC product
    assert 40.0 in ts.derived
    assert 0.0 not in ts.derived
    assert len(ts.derived) == 5
    assert any("2*Omega1" in n for n in ts.notes)
    npt.assert_allclose(ts.phase_sum, (0.6, 0.4, 0.4))
    npt.assert_allclose(ts.phase_diff, (0.0, -0.2, -0.2))


def test_coherent_plan_folds_negative_products():
    # Omega1 < Omega2 + Omega3: the difference product is negative and must
    # fold onto the positive axis with a note
    ts = circuit.plan_coherent_tones((5.0, 6.0, 4.0), (0.0, 0.0, 0.0))
    assert all(f > 0 for f in ts.derived)
    assert any("folded" in n for n in ts.notes)


def test_modulation_product_equals_sum_form(rng):
    ts = circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 12.0, 0.4,
                                        (0.1, 0.7, -0.2))
    t = rng.uniform(0.0, 20.0, size=500)
    product, total = modulation_forms(ts, t)
    assert np.max(np.abs(product - total)) < 1e-12
    vals = circuit.modulation_signal(ts, t)
    npt.assert_allclose(vals, product)


def test_modulation_at_time_zero():
    ts = circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 12.0, 0.0,
                                        (0.0, 0.0, 0.0))
    assert circuit.modulation_signal(ts, 0.0) == pytest.approx(3.0)


def test_adiabatic_eliminate_form():
    L = circuit.adiabatic_eliminate(1.0, 0.5, 0.2, 0.9, 4.0, SZ, SX
                                    ).jump_operator()
    want = (2.0 / 2.0) * (np.kron(SZ, np.eye(2))
                          + 0.5 * np.exp(-1j * (0.2 - 0.9)) * np.kron(np.eye(2), SX))
    npt.assert_allclose(L, want, atol=1e-14)
    with pytest.raises(ZeroPrimaryCoupling):
        circuit.adiabatic_eliminate(0.0, 0.5, 0.0, 0.0, 4.0, SZ, SX)


@st.composite
def elimination_cases(draw):
    """Couplings of either sign and size (``|lambda| <= gamma_a/8``, so an
    ``n_max`` 2 system-bath model passes its truncation check), phases,
    ``gamma_a``, and Hermitian ``A``, ``B`` of unit norm with d <= 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A, B = (rand_hermitian(rng, draw(st.integers(1, 3))) for _ in range(2))
    A, B = (x / np.abs(np.linalg.eigvalsh(x)).max() for x in (A, B))
    gamma_a = 10 ** draw(st.floats(-1.0, 3.0))

    def coupling(zero_ok):
        size = gamma_a * 10 ** draw(st.floats(-3.0, np.log10(1 / 8)))
        if zero_ok and draw(st.booleans()) and draw(st.booleans()):
            return 0.0
        return draw(st.sampled_from([-1.0, 1.0])) * size

    lam1, lam2 = coupling(False), coupling(True)
    phases = tuple(draw(st.floats(-2 * np.pi, 2 * np.pi)) for _ in range(2))
    rho0 = rand_density(rng, A.shape[0] * B.shape[0])
    return lam1, lam2, phases, gamma_a, A, B, rho0, draw(st.floats(0.1, 2.0))


@pytest.mark.filterwarnings("ignore:eta=")      # |lambda2| >= |lambda1|
@settings(max_examples=100, deadline=None)
@given(elimination_cases())
def test_eliminated_coupling_matches_jump_formula(case):
    lam1, lam2, (phi1, phi2), gamma_a, A, B, rho0, t = case
    c = circuit.adiabatic_eliminate(lam1, lam2, phi1, phi2, gamma_a, A, B)
    d1, d2 = A.shape[0], B.shape[0]
    terms = (2 * lam1 / np.sqrt(gamma_a)) * np.array([
        np.kron(A, np.eye(d2)),
        (lam2 / lam1) * np.exp(-1j * (phi1 - phi2)) * np.kron(np.eye(d1), B)])
    want = terms.sum(axis=0)
    got = c.jump_operator()
    sign = np.sign(lam1)        # D[L] does not see L's global sign
    # relative to the terms: with A = -B their sum cancels
    assert np.max(np.abs(sign * got - want)) <= 1e-12 * np.abs(terms).max()
    full = circuit.build_system_bath(
        circuit.SystemBathParams(lam1, lam2, gamma_a, n_max=2), A, B,
        (phi1, phi2))
    dense = circuit.validate_elimination(
        full, opcore.dissipator_superop(want), rho0, t)
    assert abs(circuit.validate_elimination(full, c, rho0, t) - dense) <= 1e-12


def test_validate_elimination_rejects_a_bare_jump():
    # a d×d jump is not a d²×d² generator: never read as one
    c = circuit.adiabatic_eliminate(1.0, 0.5, 0.2, 0.9, 4.0, SZ, SX)
    full = circuit.build_system_bath(
        circuit.SystemBathParams(1.0, 0.5, 4.0, n_max=4), SZ, SX, (0.2, 0.9))
    rho0 = np.kron(np.eye(2), np.eye(2)) / 4
    with pytest.raises(DimMismatch):
        circuit.validate_elimination(full, c.jump_operator(), rho0, 1.0)


@pytest.mark.parametrize("field, value", [
    ("lambda1", np.nan), ("lambda1", np.inf), ("lambda2", -np.inf),
    ("n_max", 2.5), ("n_max", 4.0), ("n_max", True)])
def test_system_bath_params_reject_what_they_cannot_model(field, value):
    args = {"lambda1": 1.0, "lambda2": 0.5, "gamma_a": 10.0, "n_max": 4,
            field: value}
    message = "n_max must be an integer" if field == "n_max" else \
        f"{field} must be finite"
    with pytest.raises(ValidationError, match=message):
        circuit.SystemBathParams(**args)
    if field == "n_max":
        with pytest.raises(ValidationError, match=message):
            circuit.BosonicMode(n_max=value, omega_z=1.0, gamma_z=1.0)


@pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0])
def test_mode_damping_must_be_finite_and_positive(rate):
    with pytest.raises(ValidationError):
        circuit.BosonicMode(n_max=4, omega_z=1.0, gamma_z=rate)
    with pytest.raises(ValidationError):
        circuit.SystemBathParams(1.0, 0.5, rate)
    with pytest.raises(ValidationError):
        circuit.adiabatic_eliminate(1.0, 0.5, 0.0, 0.0, rate, SZ, SX)


@pytest.mark.parametrize("call", [
    lambda: dataclasses.replace(working_point(), phi0=0.0),
    lambda: circuit.validate_elimination(
        circuit.build_system_bath(circuit.SystemBathParams(1.0, 0.5, 50.0),
                                  SZ, SX, (0.0, 0.0)),
        circuit.adiabatic_eliminate(1.0, 0.5, 0.0, 0.0, 50.0, SZ, SX),
        np.eye(2) / 2, 1.0),
    lambda: circuit.plan_coherent_tones((0.0, 6.0, 4.0), (0.0, 0.0, 0.0)),
    lambda: circuit.plan_coherent_tones((5.0, 6.0, 4.0), (0.0, 0.0))],
    ids=["phi0-zero", "validate_elimination-rho0", "Omega-zero",
         "phi_y-two"])
def test_validation_branches(call):
    with pytest.raises(ValidationError):
        call()


def test_system_bath_guards():
    with pytest.raises(TruncationTooSmall):
        circuit.build_system_bath(
            circuit.SystemBathParams(5.0, 5.0, 0.5, n_max=4),
            SZ, SX, (0.0, 0.0))


def test_elimination_distance_shrinks_with_damping():
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho0 = np.kron(plus, plus)
    dists = []
    for gamma_a in (10.0, 1000.0):
        lam1 = np.sqrt(0.6 * gamma_a) / 2
        lam2 = 0.5 * lam1
        L = circuit.adiabatic_eliminate(lam1, lam2, 0.1, 0.7, gamma_a, SZ, SX)
        full = circuit.build_system_bath(
            circuit.SystemBathParams(lam1, lam2, gamma_a, n_max=6),
            SZ, SX, (0.1, 0.7))
        dists.append(circuit.validate_elimination(full, L, rho0, 2.0))
    assert dists[1] < dists[0] / 50


def _unrotated_distance(full, gen, rho0, t):
    """validate_elimination's distance from dense complex expms, unrotated,
    with ``gen`` the eliminated model's generator."""
    dims = full.dims
    rho = dense_expm_oracle(full.generator(), np.kron(
        rho0, circuit.fock_vacuum(dims[-1])), t)
    marginal = opcore.partial_trace(rho, dims, range(len(dims) - 1))
    return opcore.trace_distance(marginal, dense_expm_oracle(gen, rho0, t))


@pytest.mark.parametrize("ops, n_max", [("random", 4), ("random-2x3", 2),
                                        ("sz-sz", 4), ("identity-a", 4)])
def test_validate_elimination_matches_unrotated(rng, ops, n_max):
    A, B = {"random": (rand_hermitian(rng, 2), rand_hermitian(rng, 2)),
            "random-2x3": (rand_hermitian(rng, 2), rand_hermitian(rng, 3)),
            "sz-sz": (SZ, SZ),
            "identity-a": (np.eye(2), rand_hermitian(rng, 2))}[ops]
    rho0 = rand_density(rng, A.shape[0] * B.shape[0])
    gamma_a = 100.0
    lam1 = np.sqrt(0.6 * gamma_a) / 2
    lam2 = 0.5 * lam1
    A, B = A / np.abs(A).max(), B / np.abs(B).max()
    L = circuit.adiabatic_eliminate(lam1, lam2, 0.3, 1.1, gamma_a, A, B)
    full = circuit.build_system_bath(
        circuit.SystemBathParams(lam1, lam2, gamma_a, n_max=n_max),
        A, B, (0.3, 1.1))
    _, h, _ = liouville._leading_eigenbasis(full)
    assert h is not full.hamiltonian   # the couplings commute: rotated
    got = circuit.validate_elimination(full, L, rho0, 2.0)
    gen = opcore.dissipator_superop(L.jump_operator())
    assert abs(got - _unrotated_distance(full, gen, rho0, 2.0)) <= 1e-10


def test_validate_elimination_non_commuting_falls_back(rng):
    """``H = sz ⊗ X1 + sx ⊗ X2``: no joint eigenbasis, so no rotation."""
    a = circuit.lowering(4)
    h = (np.kron(SZ, circuit.quadrature(a, 0.2))
         + np.kron(SX, circuit.quadrature(a, 1.3)))
    full = liouville.MasterEquation(h, ((np.kron(np.eye(2), a), 20.0),),
                                    (2, 5))
    w, h, _ = liouville._leading_eigenbasis(full)
    assert h is full.hamiltonian
    npt.assert_array_equal(w, np.eye(10))
    gen = opcore.dissipator_superop(0.4 * SZ + 0.3 * SX)
    rho0 = rand_density(rng, 2)
    got = circuit.validate_elimination(full, gen, rho0, 1.5)
    assert abs(got - _unrotated_distance(full, gen, rho0, 1.5)) <= 1e-10


def test_jrm_effective_dispersive_guard():
    params = working_point()
    with pytest.warns(UserWarning):
        bad = dataclasses.replace(params, lambda_1z=0.4)
    tones = circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 12.0, 0.0,
                                           (0.0, 0.0, 0.0))
    with pytest.raises(DispersiveViolation):
        circuit.build_jrm_effective(bad, tones)


def test_jrm_effective_phase_reduction_guard():
    params = working_point()
    skewed = circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 12.0, 0.3,
                                            (0.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        circuit.build_jrm_effective(params, skewed)
    unequal = circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 12.0, 0.0,
                                             (0.0, 0.1, 0.2))
    with pytest.raises(ValidationError):
        circuit.build_jrm_effective(params, unequal)
    coherent = circuit.plan_coherent_tones((5.0, 6.0, 4.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        circuit.build_jrm_effective(params, coherent)


def test_jrm_effective_model_structure():
    params = working_point()
    tones = circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 12.0, 0.0,
                                           (0.0, 0.0, 0.0))
    me = circuit.build_jrm_effective(params, tones)
    assert me.dims == (2, 2, 2, 4)
    h = me.hamiltonian
    # single-qubit-1 channel amplitude: -(Lambda/4) lambda_1z on sx_1 X_0
    a = circuit.lowering(3)
    sx1 = opcore.tensor([SX, np.eye(2), np.eye(2), a + a.conj().T])
    ec = circuit.effective_coupling_constants(params)
    overlap = np.vdot(sx1, h) / np.vdot(sx1, sx1)
    assert overlap.real == pytest.approx(-(ec.Lambda / 4) * params.lambda_1z,
                                         rel=1e-12)
    sxx23 = opcore.tensor([np.eye(2), SX, SX, a + a.conj().T])
    want = -(ec.Lambda / 4) * (params.lambda_1z * sx1 + ec.beta * sxx23)
    npt.assert_allclose(h, want, rtol=0, atol=1e-14)


def test_jrm_effective_checks_fock_cutoff():
    """The ring modulator is built by build_system_bath, whose occupation
    guard it shares: at E_J = 4000 the driven occupation is 3.41, past
    n_max/2 = 1."""
    params = dataclasses.replace(working_point(n_max=2), E_J=4000.0)
    tones = circuit.plan_dissipative_tones((5.0, 6.0, 4.0), 12.0, 0.0,
                                           (0.0, 0.0, 0.0))
    with pytest.raises(TruncationTooSmall, match="3.41"):
        circuit.build_jrm_effective(params, tones)
    circuit.build_jrm_effective(working_point(n_max=2), tones)


def test_strong_damping_condition_value():
    params = working_point()
    ec = circuit.effective_coupling_constants(params)
    value, ok = circuit.strong_damping_condition(params)
    want = ec.gamma_eff * (0.15 ** 4 / 0.25 ** 2) * 0.25
    assert value == pytest.approx(want, rel=1e-12)
    assert ok
    # the value grows as E_J²: 9 × 1.6e-3 is past the 1e-2 threshold
    strong = dataclasses.replace(params, E_J=3 * params.E_J)
    assert not circuit.strong_damping_condition(strong)[1]


def test_nonreciprocity_condition_table():
    params = working_point()
    assert circuit.nonreciprocity_conditions(params, np.pi / 2) == (True, "S1->S2")
    assert circuit.nonreciprocity_conditions(params, -np.pi / 2) == (True, "S2->S1")
    assert circuit.nonreciprocity_conditions(params, 0.3) == (False, None)
    unbalanced = dataclasses.replace(params, E_J=params.E_J * 1.01)
    assert circuit.nonreciprocity_conditions(unbalanced, np.pi / 2) == (False, None)


def test_three_body_sign_convention():
    params = working_point()
    ec = circuit.effective_coupling_constants(params)
    lam = ec.Lambda * params.lambda_1z * ec.beta
    sxxx = opcore.tensor([SX, SX, SX])
    npt.assert_allclose(circuit.coherent_three_body(params),
                        (lam / 4) * sxxx, atol=1e-14)
