import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from emdyn import emergent, liouville, opcore
from emdyn.errors import DegenerateFit, DimMismatch, ValidationError

from conftest import build_full_generator, rand_density, rand_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def make_coupling(gamma=10.0, eta=1.0, phi=np.pi / 2, g=0.0, A=SZ, B=SX):
    return liouville.DissipativeCoupling(A=A, B=B, gamma=gamma, eta=eta,
                                         phi=phi, g=g)


def test_map_probabilities_follow_s1_populations():
    c = make_coupling()
    m = emergent.strong_damping_map(c, P0, 1.0)
    # sz eigenvalues ascending: lambda_0 = -1, lambda_1 = +1; |0> sits in
    # the +1 sector
    npt.assert_allclose(m.eigenvalues, [-1.0, 1.0], atol=1e-14)
    npt.assert_allclose(m.probs, [0.0, 1.0], atol=1e-14)


def test_map_unitaries_are_unitary(rng):
    c = make_coupling(B=SX)
    m = emergent.strong_damping_map(c, rand_density(rng, 2), 0.7)
    for u in m.unitaries:
        npt.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_map_is_unital():
    c = make_coupling()
    m = emergent.strong_damping_map(c, PLUS, 1.3)
    out = emergent.apply_mixture(m, np.eye(2, dtype=complex) / 2)
    npt.assert_allclose(out, np.eye(2) / 2, atol=1e-13)


def test_equal_mixture_offdiagonal():
    # A = B = sz, rho1 = rho2 = |+><+|: the +/- rotations average the
    # coherence to cos(2 t)/2
    c = make_coupling(A=SZ, B=SZ)
    t = 0.37
    m = emergent.strong_damping_map(c, PLUS, t)
    npt.assert_allclose(m.probs, [0.5, 0.5], atol=1e-14)
    rho2 = emergent.apply_mixture(m, PLUS)
    assert abs(rho2[0, 1].real - np.cos(2 * t) / 2) < 1e-14
    assert abs(rho2[0, 1].real - 0.3692342793647939) < 1e-14


def test_mixture_validation():
    with pytest.raises(ValidationError):
        emergent.UnitaryMixture(probs=(0.5, 0.6),
                                unitaries=(np.eye(2), np.eye(2)),
                                eigenvalues=(-1.0, 1.0))
    with pytest.raises(ValidationError):
        emergent.UnitaryMixture(probs=(0.5, 0.5),
                                unitaries=(np.eye(2), 2 * np.eye(2)),
                                eigenvalues=(-1.0, 1.0))


@pytest.mark.parametrize("probs, u", [
    ((np.nan, 1.0), np.eye(2)), ((np.nan, np.nan), np.eye(2)),
    ((0.5, 0.5), np.full((2, 2), np.nan))])
def test_mixture_rejects_nan(probs, u):
    with pytest.raises(ValidationError):
        emergent.UnitaryMixture(probs=probs, unitaries=(np.eye(2), u),
                                eigenvalues=(-1.0, 1.0))


@pytest.mark.parametrize("call", [
    lambda: emergent.strong_damping_map(make_coupling(), np.eye(3) / 3, 1.0),
    lambda: emergent.apply_mixture(
        emergent.strong_damping_map(make_coupling(), P0, 1.0), np.eye(3) / 3)],
    ids=["strong_damping_map-rho1", "apply_mixture-rho2"])
def test_map_rejects_wrong_dimension(call):
    with pytest.raises(DimMismatch):
        call()


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_strong_damping_map_rejects_non_finite_time(t):
    with pytest.raises(ValidationError, match="finite"):
        emergent.strong_damping_map(make_coupling(), P0, t)


def test_gap_closes_at_strong_damping():
    c = make_coupling(gamma=1e4, eta=1.0)
    gap = emergent.equivalence_gap(c, P0, P0, 1.0)
    assert gap < 1e-3


def test_gap_matches_map_route():
    # the emergent map and the coherent-route marginal agree in the limit;
    # at finite gamma the gap is small but nonzero
    c = make_coupling(gamma=100.0)
    gap = emergent.equivalence_gap(c, P0, P0, 1.0)
    assert 0 < gap < 0.05


def test_gap_matches_coherent_unitary_formula(rng):
    # The mixture side equals the S2 marginal of exp(-i t eta sin(phi) A⊗B)
    # for any rho1; the exact side equals the dense-expm propagation.
    for d1, d2 in ((1, 3), (2, 2), (3, 2), (4, 4)):
        c = make_coupling(gamma=float(rng.uniform(5.0, 500.0)),
                          eta=float(rng.uniform(0.2, 1.5)),
                          phi=float(rng.uniform(-np.pi, np.pi)),
                          g=float(rng.uniform(-1.0, 1.0)),
                          A=rand_hermitian(rng, d1), B=rand_hermitian(rng, d2))
        rho1, rho2 = rand_density(rng, d1), rand_density(rng, d2)
        t = float(rng.uniform(0.1, 2.0))
        rho0 = np.kron(rho1, rho2)
        gen = build_full_generator(c, include_coherent=False)
        s2_diss = opcore.partial_trace(liouville.propagate(gen, rho0, t),
                                       (d1, d2), [1])
        u = opcore.expm(c.eta * np.sin(c.phi) * np.kron(c.A, c.B), -1j * t)
        s2_coh = opcore.partial_trace(u @ rho0 @ u.conj().T, (d1, d2), [1])
        want = opcore.trace_distance(s2_diss, s2_coh)
        assert abs(emergent.equivalence_gap(c, rho1, rho2, t) - want) <= 1e-12


def test_scaling_exponent_rule():
    gammas = [10.0, 100.0, 1000.0, 10000.0]
    assert emergent.scaling_exponent(gammas, 3.0 / np.array(gammas)) == \
        pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        emergent.scaling_exponent(gammas[:3], [0.3, 0.03, 0.003])
    with pytest.raises(ValidationError):
        emergent.scaling_exponent([10.0, 20.0, 40.0, 80.0], [4, 3, 2, 1])
    with pytest.raises(DegenerateFit):
        emergent.scaling_exponent(gammas, [0.1, 0.01, 0.001, 0.0])


def test_fit_power_law_recovers_synthetic_exponent():
    x = np.logspace(0, 3, 8)
    y = 2.7 / x
    slope, prefactor = emergent.fit_power_law(x, y)
    assert abs(slope - (-1.0)) < 1e-6
    assert abs(prefactor - 2.7) < 1e-6


SWEEP = [10.0, 100.0, 1000.0, 10000.0]


def gap_fit(c, gammas, t):
    """The ``1/gamma`` fit: :func:`emergent.scaling_exponent` over the
    :func:`emergent.equivalence_gap` gaps, from ``|0><0|`` on both sides."""
    gaps = [emergent.equivalence_gap(dataclasses.replace(c, gamma=g),
                                     P0, P0, t) for g in gammas]
    return emergent.scaling_exponent(gammas, gaps), np.array(gaps)


def test_scaling_fit_guards():
    c = make_coupling()
    with pytest.raises(ValidationError):
        gap_fit(c, [10.0, 20.0, 30.0], 1.0)  # too few
    with pytest.raises(ValidationError):
        gap_fit(c, [10.0, 20.0, 40.0, 80.0], 1.0)  # < 2 dec


def test_scaling_fit_slope_near_minus_one():
    slope, gaps = gap_fit(make_coupling(), SWEEP, 1.0)
    assert -1.2 < slope < -0.8
    assert gaps[0] > gaps[-1]


def test_scaling_fit_degenerate_when_channel_off():
    with pytest.raises(DegenerateFit):
        gap_fit(make_coupling(eta=0.0), SWEEP, 1.0)


def test_scaling_fit_degenerate_at_zero_time():
    with pytest.raises(DegenerateFit):
        gap_fit(make_coupling(), SWEEP, 0.0)


def test_scaling_fit_flat_gaps_warn(monkeypatch):
    monkeypatch.setattr(emergent, "equivalence_gap",
                        lambda *args, **kwargs: 0.25)
    with pytest.warns(UserWarning):
        slope, gaps = gap_fit(make_coupling(), SWEEP, 1.0)
    assert slope == 0.0
    npt.assert_array_equal(gaps, 0.25 * np.ones(4))


def test_nonreciprocity_report_directional():
    c = make_coupling(gamma=50.0, eta=0.5, phi=np.pi / 2, g=0.5)
    rho0 = np.kron(PLUS, P0)
    report = emergent.nonreciprocity_report(c, rho0, 0.8)
    # eta = g at +pi/2: S1 back-action cancels, S2 drift doubles
    npt.assert_allclose(report["s1_drift_coefficients"], [0.0, 0.0],
                        atol=1e-15)
    npt.assert_allclose(report["s2_drift_coefficients"], [-1.0, 1.0],
                        atol=1e-15)
    assert report["s1_trace_distance"] < 1e-10
    assert report["s2_trace_distance"] > 1e-3
