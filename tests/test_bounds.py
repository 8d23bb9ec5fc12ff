import numpy as np
import numpy.testing as npt
import pytest

from emdyn import bounds, liouville, opcore
from emdyn.errors import (BadEigenindex, DimMismatch, RequiresNoPulse,
                          ValidationError)

from conftest import (error_upper_bound_absorbed, rand_hermitian,
                      rotated_frame_loop)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def make_coupling(gamma=10.0, eta=1.0, phi=np.pi / 2, g=0.0, A=SZ, B=SZ):
    return liouville.DissipativeCoupling(A=A, B=B, gamma=gamma, eta=eta,
                                         phi=phi, g=g)


def test_task_validation():
    c = make_coupling()
    with pytest.raises(ValidationError):
        bounds.GateTask(psi0=np.zeros(2, dtype=complex),
                        target=np.array([1.0, 0.0], dtype=complex),
                        t=1.0, coupling=c)
    with pytest.raises(ValidationError):
        bounds.make_gate_task(c, np.array([1.0, 0.0, 0.0]), 1.0)
    with pytest.raises(ValidationError):
        bounds.make_gate_task(c, PLUS, -1.0)


@pytest.mark.parametrize("field, value", [
    ("t", np.nan), ("t", np.inf), ("psi0", np.array([np.nan, 0.0])),
    ("target", np.array([np.nan, 0.0]))])
def test_task_rejects_non_finite_inputs(field, value):
    fields = dict(psi0=PLUS, target=PLUS, t=1.0, coupling=make_coupling())
    with pytest.raises(ValidationError):
        bounds.GateTask(**{**fields, field: value})
    if field != "target":
        with pytest.raises(ValidationError):
            bounds.make_gate_task(make_coupling(),
                                  **{"psi0": PLUS, "t": 1.0, field: value})


def test_task_rejects_a_pulse_on_another_space():
    # caught with the task, not as a broadcast error building the target
    pulse = liouville.ControlPulse(segments=((1.0, (1.0,)),),
                                   hamiltonians=(np.eye(3),))
    with pytest.raises(DimMismatch, match="S2 dim 2"):
        bounds.make_gate_task(make_coupling(), PLUS, 1.0, pulse=pulse)


def test_pulse_duration_must_match_task_time():
    c = make_coupling()
    pulse = liouville.ControlPulse(segments=((0.5, (1.0,)),),
                                   hamiltonians=(SX,))
    with pytest.raises(ValidationError):
        bounds.make_gate_task(c, PLUS, 1.0, pulse=pulse)


def drift(task):
    return liouville.reduced_s2_generator(task.coupling, task.a_eigenindex)[0]


def test_drift_coefficient_default_top_eigenvalue():
    c = make_coupling(eta=0.5, g=0.5)
    task = bounds.make_gate_task(c, PLUS, 1.0)
    assert drift(task) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("index", [2, 5, -3])
def test_out_of_range_eigenindex_raises(index):
    # a qubit A has two merged eigenvalues: valid indices are -2..1
    c = make_coupling()
    with pytest.raises(BadEigenindex, match=f"eigenindex {index}"):
        bounds.make_gate_task(c, PLUS, 1.0, a_eigenindex=index)
    with pytest.raises(BadEigenindex):
        bounds.s1_eigenstate(c, index)
    task = bounds.GateTask(PLUS, PLUS, 1.0, c, a_eigenindex=index)
    with pytest.raises(BadEigenindex):
        drift(task)


def test_negative_eigenindex_counts_from_the_top():
    c = make_coupling(eta=0.5, g=0.5)
    npt.assert_array_equal(bounds.s1_eigenstate(c, -2),
                           bounds.s1_eigenstate(c, 0))
    assert drift(bounds.make_gate_task(c, PLUS, 1.0, a_eigenindex=-2)) == \
        pytest.approx(-1.0, abs=1e-15)


def test_s1_eigenstate_is_eigenvector():
    c = make_coupling(A=rand_hermitian(np.random.default_rng(1), 2), B=SZ)
    ket = bounds.s1_eigenstate(c)
    dec = opcore.herm_eig(c.A)
    lam = dec.eigenvalues[-1]
    npt.assert_allclose(c.A @ ket, lam * ket, atol=1e-12)


def test_unpulsed_target_is_drift_rotation():
    c = make_coupling(eta=1.0)
    task = bounds.make_gate_task(c, PLUS, 0.8)
    u = opcore.expm(SZ, scale=-1j * 0.8)  # coeff = eta sin(pi/2) * lambda_max
    npt.assert_allclose(task.target, u @ PLUS, atol=1e-13)


def test_threshold_formula():
    # margin * eta^2 * (t/2) * (max eigengap)^2 with B = sz: 100 * 0.5 * 4
    c = make_coupling()
    task = bounds.make_gate_task(c, PLUS, 1.0)
    assert bounds.gamma_threshold(task, margin=100.0) == pytest.approx(200.0)


# a bool is rejected, as the scenario parser does: True is not a margin of 1
@pytest.mark.parametrize("margin", [np.nan, -1.0, 0.0, np.inf, True,
                                    np.True_])
def test_threshold_rejects_bad_margin(margin):
    task = bounds.make_gate_task(make_coupling(), PLUS, 1.0)
    with pytest.raises(ValidationError, match="margin must be positive"):
        bounds.gamma_threshold(task, margin=margin)


def test_threshold_zero_for_scalar_spectrum():
    c = make_coupling(B=np.eye(2, dtype=complex))
    task = bounds.make_gate_task(c, PLUS, 1.0)
    assert bounds.gamma_threshold(task) == 0.0


def test_upper_bound_value():
    # (t eta^2 / 2 gamma)(||B||^2 + ||B^2||) = (1/20)(1+1) = 0.1
    c = make_coupling(gamma=10.0)
    task = bounds.make_gate_task(c, PLUS, 1.0)
    assert bounds.error_upper_bound(task) == pytest.approx(0.1, abs=1e-15)


def test_absorbed_eta_convention_agrees():
    c = make_coupling(gamma=7.0, eta=0.6)
    task = bounds.make_gate_task(c, PLUS, 1.3)
    direct = bounds.error_upper_bound(task)
    absorbed = error_upper_bound_absorbed(1.3, 7.0, 0.6 * SZ)
    assert direct == pytest.approx(absorbed, rel=1e-14)


@pytest.mark.parametrize("closed_form", [bounds.exact_error_commuting,
                                         bounds.error_upper_bound])
def test_closed_forms_need_damping(closed_form):
    task = bounds.make_gate_task(make_coupling(gamma=0.0, eta=0.0, g=1.0),
                                 PLUS, 1.0)
    with pytest.raises(ValidationError, match="gamma > 0"):
        closed_form(task)


def test_exact_error_requires_unpulsed_task():
    c = make_coupling()
    pulse = liouville.ControlPulse(segments=((1.0, (0.0,)),),
                                   hamiltonians=(SX,))
    task = bounds.make_gate_task(c, PLUS, 1.0, pulse=pulse)
    with pytest.raises(RequiresNoPulse):
        bounds.exact_error_commuting(task)


@pytest.mark.parametrize("gamma,t,want", [
    (5.0, 0.7, 0.12210812927213754),
    (50.0, 1.0, 0.019605280423841354),
    (10.0, 2.0, 0.16483997698218011),
])
def test_exact_error_dual_route(gamma, t, want):
    """Closed form against full propagation for the commuting case."""
    c = make_coupling(gamma=gamma)
    task = bounds.make_gate_task(c, PLUS, t)
    exact = bounds.exact_error_commuting(task)
    empirical = bounds.empirical_error(task)
    assert exact == pytest.approx(want, rel=1e-12)
    assert abs(exact - empirical) < 1e-10


@pytest.mark.parametrize("t", [1e10, 1e14])
def test_commuting_error_saturates_at_large_t(t):
    # the closed form's diagonal rate is exactly 0, so the populations of the
    # fully dephased state neither turn nor drift in trace
    task = bounds.make_gate_task(make_coupling(gamma=20.0), PLUS, t)
    assert bounds.empirical_error(task) == pytest.approx(0.5, abs=1e-12)


def test_eigenstate_targets_are_error_free():
    # B eigenstate: the emergent rotation only adds a phase, every error
    # measure collapses
    c = make_coupling(gamma=10.0)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    task = bounds.make_gate_task(c, psi0, 1.0)
    exact = bounds.exact_error_commuting(task)
    empirical = bounds.empirical_error(task)
    assert exact < 1e-10
    assert empirical < 1e-10
    assert abs(exact - empirical) < 1e-10


def test_empirical_error_bounded_by_certificate(rng):
    for _ in range(5):
        b = rand_hermitian(rng, 2)
        c = make_coupling(gamma=float(rng.uniform(5, 30)),
                          eta=float(rng.uniform(0.3, 1.0)), B=b)
        psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 /= np.linalg.norm(psi0)
        task = bounds.make_gate_task(c, psi0, float(rng.uniform(0.3, 1.5)))
        assert bounds.empirical_error(task) <= bounds.error_upper_bound(task) + 1e-9


def test_rotated_frame_requires_pulse_and_no_coherent_term():
    c = make_coupling()
    task = bounds.make_gate_task(c, PLUS, 1.0)
    with pytest.raises(ValidationError):
        bounds.rotated_frame_marginal(task)
    cg = make_coupling(g=0.4)
    pulse = liouville.ControlPulse(segments=((1.0, (1.0,)),),
                                   hamiltonians=(SX,))
    task = bounds.make_gate_task(cg, PLUS, 1.0, pulse=pulse)
    with pytest.raises(ValidationError):
        bounds.rotated_frame_marginal(task)


@pytest.mark.parametrize("substeps", [0, -3, 2.5, True, "200", None])
def test_rotated_frame_rejects_bad_substeps(substeps):
    c = make_coupling(gamma=20.0, eta=0.8, A=SZ, B=SX)
    pulse = liouville.ControlPulse(segments=((1.0, (1.0,)),),
                                   hamiltonians=(SX,))
    task = bounds.make_gate_task(c, np.array([1.0, 0.0]), 1.0, pulse=pulse)
    with pytest.raises(ValidationError, match="substeps"):
        bounds.rotated_frame_marginal(task, substeps=substeps)
    bounds.rotated_frame_marginal(task, substeps=np.int64(3))


def test_rotated_frame_matches_lab_frame():
    """Propagating with the pulse-rotated jump operator and undoing the
    frame reproduces the lab-frame S2 marginal."""
    c = make_coupling(gamma=20.0, eta=0.8, A=SZ, B=SX)
    h1 = np.array([[0.3, 0.2], [0.2, -0.1]], dtype=complex)
    h2 = np.array([[0.0, 0.5j], [-0.5j, 0.4]], dtype=complex)
    pulse = liouville.ControlPulse(
        segments=((0.4, (1.0, 0.0)), (0.6, (0.2, 1.0))),
        hamiltonians=(h1, h2))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    task = bounds.make_gate_task(c, psi0, 1.0, pulse=pulse)
    rho2_rot, v = bounds.rotated_frame_marginal(task, substeps=1600)
    ket1 = bounds.s1_eigenstate(c)
    rho0 = np.kron(np.outer(ket1, ket1.conj()), np.outer(psi0, psi0.conj()))
    rho_lab = liouville.propagate_controlled(c, pulse, rho0)
    rho2_lab = opcore.partial_trace(rho_lab, (2, 2), [1])
    assert opcore.trace_distance(v @ rho2_rot @ v.conj().T, rho2_lab) < 1e-8


@pytest.mark.parametrize("d2, n_seg", [(2, 1), (2, 2), (4, 1), (4, 2),
                                        (8, 1), (8, 2)])
def test_rotated_frame_matches_loop_oracle(d2, n_seg):
    # perfbench's pulsed tasks: unit 1-norm operators, rates 5-50
    rng = np.random.default_rng([d2, n_seg])

    def unit(d):
        h = rand_hermitian(rng, d)
        return h / np.abs(h).sum(axis=0).max()

    c = liouville.DissipativeCoupling(
        A=unit(2), B=unit(d2), gamma=float(rng.uniform(5.0, 50.0)),
        eta=float(rng.uniform(0.3, 1.0)), phi=np.pi / 2)
    durations = rng.uniform(0.1, 1.0, size=n_seg)
    pulse = liouville.ControlPulse(
        segments=tuple((float(dur), tuple(rng.uniform(-1, 1, 2)))
                       for dur in durations),
        hamiltonians=(unit(d2), unit(d2)))
    psi0 = rng.normal(size=d2) + 1j * rng.normal(size=d2)
    task = bounds.make_gate_task(c, psi0 / np.linalg.norm(psi0),
                                 float(durations.sum()), pulse=pulse)
    rho2, v = bounds.rotated_frame_marginal(task)
    want_rho2, want_v = rotated_frame_loop(task)
    assert np.max(np.abs(rho2 - want_rho2)) <= 1e-12
    assert np.max(np.abs(v - want_v)) <= 1e-12
    # the marginal owns its d2×d2 data; a view would keep the checked
    # stack of every substep's state alive with it
    assert rho2.base is None or rho2.base.nbytes == rho2.nbytes
