import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emdyn import liouville, opcore
from emdyn.errors import BadEigenindex, DimMismatch, ValidationError

from conftest import dense_expm_oracle, rand_density, rand_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def make_coupling(gamma=10.0, eta=1.0, phi=np.pi / 2, g=0.0, A=SZ, B=SX):
    return liouville.DissipativeCoupling(A=A, B=B, gamma=gamma, eta=eta,
                                         phi=phi, g=g)


def test_coupling_validation():
    with pytest.raises(ValidationError):
        make_coupling(gamma=-1.0)
    with pytest.raises(ValidationError):
        make_coupling(eta=-0.5)
    with pytest.raises(ValidationError):
        make_coupling(gamma=0.0, eta=1.0)  # dissipative drive needs damping
    # gamma = 0 is fine when the channel is off entirely
    c = make_coupling(gamma=0.0, eta=0.0, g=0.3)
    assert c.gamma == 0.0
    with pytest.raises(ValidationError):
        c.jump_operator()


def test_eta_at_or_above_gamma_warns():
    with pytest.warns(UserWarning):
        make_coupling(gamma=1.0, eta=2.0)


def test_jump_operator_form():
    c = make_coupling(gamma=4.0, eta=1.0, phi=0.3)
    L = c.jump_operator()
    want = 2.0 * (np.kron(SZ, I2)
                  - (1.0 / 4.0) * np.exp(1j * 0.3) * np.kron(I2, SX))
    npt.assert_allclose(L, want, atol=1e-14)


def test_expanded_generator_matches_direct(rng):
    for _ in range(10):
        c = make_coupling(gamma=float(rng.uniform(0.5, 20)),
                          eta=float(rng.uniform(0, 1.5)) * 0.4,
                          phi=float(rng.uniform(-np.pi, np.pi)),
                          A=rand_hermitian(rng, 2), B=rand_hermitian(rng, 2))
        direct = liouville.build_full_generator(c, include_coherent=False)
        expanded = liouville.expanded_generator(c, include_coherent=False)
        npt.assert_allclose(expanded, direct, atol=1e-12)


def test_generator_includes_coherent_term():
    c = make_coupling(g=0.7)
    g_with = liouville.build_full_generator(c)
    g_without = liouville.build_full_generator(c, include_coherent=False)
    h = 0.7 * np.kron(SZ, SX)
    npt.assert_allclose(g_with - g_without, opcore.hamiltonian_superop(h),
                        atol=1e-13)


def test_pure_dephasing_rate():
    # gamma D[sz] on one qubit: coherences decay as exp(-2 gamma t)
    gamma, t = 0.8, 0.6
    gen = gamma * opcore.dissipator_superop(SZ)
    rho = liouville.propagate(gen, PLUS, t)
    assert abs(rho[0, 1] - 0.5 * np.exp(-2 * gamma * t)) < 1e-12


def test_propagate_guards():
    gen = opcore.dissipator_superop(SZ)
    with pytest.raises(ValidationError):
        liouville.propagate(gen, PLUS, -0.1)
    out = liouville.propagate(gen, PLUS, 0.0)
    npt.assert_array_equal(out, PLUS)
    assert out is not PLUS


def test_propagate_is_trace_preserving_and_positive(rng):
    c = make_coupling(gamma=3.0, eta=0.9, g=0.4)
    gen = liouville.build_full_generator(c)
    rho0 = np.kron(rand_density(rng, 2), rand_density(rng, 2))
    rho = liouville.propagate(gen, rho0, 2.0)
    assert abs(np.trace(rho) - 1) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-9


@st.composite
def coupling_cases(draw):
    """A random coupling, product state and time for the differential test.

    Regimes: ``eta < gamma``, ``eta >= gamma``, and the purely coherent
    ``gamma = eta = 0`` with ``g != 0``.  ``degenerate`` rebuilds A and B
    with repeated eigenvalues.  ``gamma t`` reaches about 1e4.
    """
    d1, d2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A, B = rand_hermitian(rng, d1), rand_hermitian(rng, d2)
    if draw(st.booleans()):
        A, B = (v @ np.diag(rng.choice([-1.0, 0.0, 2.0], size=len(w)))
                @ v.conj().T
                for w, v in (np.linalg.eigh(A), np.linalg.eigh(B)))
    regime = draw(st.sampled_from(["eta<gamma", "eta>=gamma", "coherent"]))
    g = draw(st.floats(-2.0, 2.0))
    if regime == "coherent":
        gamma = eta = 0.0
        g = g or 1.0
    else:
        gamma = 10 ** draw(st.floats(-1.0, 3.0))
        ratio = (draw(st.floats(0.0, 0.99)) if regime == "eta<gamma"
                 else draw(st.floats(1.0, 3.0)))
        eta = ratio * gamma
    t = draw(st.sampled_from([0.0, 1e-3, 0.5, 2.0, 1e4 / max(gamma, 1.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # eta >= gamma is flagged
        c = liouville.DissipativeCoupling(
            A=A, B=B, gamma=gamma, eta=eta,
            phi=draw(st.floats(-np.pi, np.pi)), g=g)
    return c, np.kron(rand_density(rng, d1), rand_density(rng, d2)), t


@settings(max_examples=150, deadline=None)
@given(coupling_cases())
def test_closed_form_matches_dense_route(case):
    c, rho0, t = case
    got = liouville.propagate(c, rho0, t)
    gen = liouville.build_full_generator(c)
    assert np.max(np.abs(got - dense_expm_oracle(gen, rho0, t))) <= 1e-10
    assert np.max(np.abs(got - liouville.propagate(gen, rho0, t))) <= 1e-10
    assert np.max(np.abs(got - got.conj().T)) <= 1e-12
    assert abs(np.trace(got) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(got).min() >= -opcore.POSITIVITY_TOL


@st.composite
def master_equation_cases(draw):
    """A random Lindblad generator (H plus one or two jumps), state and time.

    Rates reach 1e3; the state is a random density matrix or the
    non-Hermitian ``|0><1|`` (``|0><0|`` when d = 1).
    """
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    jumps = tuple(
        (rand_hermitian(rng, d) + 1j * rand_hermitian(rng, d),
         10 ** draw(st.floats(-2.0, 3.0)))
        for _ in range(draw(st.integers(1, 2))))
    me = liouville.MasterEquation(rand_hermitian(rng, d), jumps,
                                  opcore.HilbertSpace((d,)))
    if draw(st.booleans()):
        rho0 = rand_density(rng, d)
    else:
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, min(1, d - 1)] = 1.0
    return me.generator(), rho0, draw(st.sampled_from([0.0, 1e-3, 1.0, 50.0]))


@settings(max_examples=150, deadline=None)
@given(master_equation_cases())
def test_hermitian_basis_route_matches_oracle(case):
    gen, rho0, t = case
    want = dense_expm_oracle(gen, rho0, t)
    assert np.max(np.abs(opcore.expm_superop_apply(gen, rho0, t) - want)
                  ) <= 1e-10
    if opcore.is_hermitian(rho0):
        assert np.max(np.abs(liouville.propagate(gen, rho0, t) - want)
                      ) <= 1e-10


def test_non_hermiticity_preserving_generator_rejected(rng):
    gen = opcore.left_superop(rand_hermitian(rng, 3))
    with pytest.raises(ValidationError, match="preserve Hermiticity"):
        liouville.propagate(gen, np.eye(3) / 3, 1.0)


def test_closed_form_guards():
    c = make_coupling()
    with pytest.raises(DimMismatch):
        liouville.propagate(c, np.eye(2) / 2, 1.0)
    with pytest.raises(ValidationError):
        liouville.propagate(c, np.kron(PLUS, P0), -1.0)


def test_drift_coefficient_signs():
    c = make_coupling(eta=0.5, phi=0.3, g=0.2)
    assert c.drift(2.0) == 2.0 * (0.2 + 0.5 * np.sin(0.3))
    assert c.drift(2.0, on=1) == 2.0 * (0.2 - 0.5 * np.sin(0.3))
    npt.assert_array_equal(c.drift(np.array([1.0, -1.0])),
                           [c.drift(1.0), c.drift(-1.0)])
    with pytest.raises(ValidationError):
        c.drift(1.0, on=3)


def test_reduced_s2_drift_and_rate():
    # phi = +pi/2 with eta = g doubles the drift on S2 ...
    c = make_coupling(gamma=10.0, eta=0.5, phi=np.pi / 2, g=0.5)
    drift, rate = liouville.reduced_s2_generator(c, 1)  # lambda = +1 of sz
    assert drift == pytest.approx(2 * 0.5, abs=1e-15)
    assert rate == pytest.approx(0.5 ** 2 / 10.0, abs=1e-15)
    # ... and cancels it at phi = -pi/2
    c = make_coupling(gamma=10.0, eta=0.5, phi=-np.pi / 2, g=0.5)
    drift, _ = liouville.reduced_s2_generator(c, 1)
    assert abs(drift) < 1e-15


def test_reduced_s2_dissipative_only():
    c = make_coupling(gamma=7.0, eta=1.0, phi=np.pi / 2, g=0.0)
    drift, rate = liouville.reduced_s2_generator(c, 0)  # lambda = -1 of sz
    assert drift == pytest.approx(-1.0, abs=1e-15)
    assert rate == pytest.approx(1.0 / 7.0, abs=1e-15)


def test_reduced_s1_mirror():
    c = make_coupling(gamma=10.0, eta=0.5, phi=np.pi / 2, g=0.5)
    drift, rate = liouville.reduced_s1_generator(c, 1)  # lambda = +1 of sx
    assert abs(drift) < 1e-15  # g - eta sin(phi) = 0: S1 sees no back-action
    assert rate == 10.0


def test_reduced_generator_bad_index():
    c = make_coupling()
    with pytest.raises(BadEigenindex):
        liouville.reduced_s2_generator(c, 5)


def test_cascaded_generator_identity_a():
    # A = identity: the cascaded form collapses to -i[2 eta B, .] on S2
    c = make_coupling(A=I2, B=SX, gamma=5.0, eta=0.8)
    got = liouville.cascaded_generator(c)
    want = opcore.hamiltonian_superop(2 * 0.8 * np.kron(I2, SX))
    npt.assert_allclose(got, want, atol=1e-13)


def test_control_pulse_validation():
    with pytest.raises(ValidationError):
        liouville.ControlPulse(segments=((0.0, (1.0,)),), hamiltonians=(SX,))
    with pytest.raises(ValidationError):
        liouville.ControlPulse(segments=((0.5, (1.0, 2.0)),),
                               hamiltonians=(SX,))
    pulse = liouville.ControlPulse(segments=((0.5, (1.0,)), (0.25, (0.0,))),
                                   hamiltonians=(SX,))
    assert pulse.total_duration == pytest.approx(0.75)
    npt.assert_allclose(pulse.segment_hamiltonian(0), SX)
    npt.assert_allclose(pulse.segment_hamiltonian(1), np.zeros((2, 2)))


def test_rabi_flip_with_channel_off():
    # gamma = eta = 0: propagation is purely the control Hamiltonian
    c = make_coupling(gamma=0.0, eta=0.0, g=0.0)
    pulse = liouville.ControlPulse(segments=((np.pi / 2, (1.0,)),),
                                   hamiltonians=(SX,))
    rho0 = np.kron(P0, P0)
    rho = liouville.propagate_controlled(c, pulse, rho0)
    r2 = opcore.partial_trace(rho, (2, 2), [1])
    npt.assert_allclose(r2, np.diag([0.0, 1.0]), atol=1e-12)


def test_segment_split_equals_merged():
    c = make_coupling(gamma=5.0, eta=0.7)
    h = rand_hermitian(np.random.default_rng(0), 2)
    one = liouville.ControlPulse(segments=((0.8, (1.0,)),), hamiltonians=(h,))
    two = liouville.ControlPulse(segments=((0.3, (1.0,)), (0.5, (1.0,))),
                                 hamiltonians=(h,))
    rho0 = np.kron(PLUS, P0)
    npt.assert_allclose(liouville.propagate_controlled(c, one, rho0),
                        liouville.propagate_controlled(c, two, rho0),
                        atol=1e-12)


def test_propagate_controlled_no_pulse():
    c = make_coupling()
    rho0 = np.kron(P0, P0)
    npt.assert_allclose(liouville.propagate_controlled(c, None, rho0), rho0)


def test_master_equation_generator(rng):
    h = rand_hermitian(rng, 2)
    L = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    me = liouville.MasterEquation(h, ((L, 3.0),), opcore.HilbertSpace((2,)))
    want = opcore.hamiltonian_superop(h) + 3.0 * opcore.dissipator_superop(L)
    npt.assert_allclose(me.generator(), want, atol=1e-13)
