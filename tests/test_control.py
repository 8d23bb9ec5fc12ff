import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emdyn import control, liouville
from emdyn.errors import ValidationError

from conftest import (ising_chain, mgs_lie_closure, pauli_string,
                      rand_hermitian, svd_rank_closure)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_single_generator_abelian():
    basis = control.lie_closure([SZ])
    assert basis.dimension == 1
    assert not control.is_fully_controllable(basis)


def test_two_generators_close_to_su2():
    basis = control.lie_closure([SX, SZ])
    assert basis.dimension == 3
    assert control.is_fully_controllable(basis)


def test_dependent_generators_do_not_inflate():
    basis = control.lie_closure([SZ, 2.0 * SZ, -0.5 * SZ])
    assert basis.dimension == 1


def test_closure_elements_traceless_orthonormal():
    basis = control.lie_closure([SX, SZ])
    for i, e in enumerate(basis.elements):
        assert abs(np.trace(e)) < 1e-12
        for j, f in enumerate(basis.elements):
            inner = np.vdot(e, f)
            want = 1.0 if i == j else 0.0
            assert abs(inner - want) < 1e-10


def test_ising_drift_with_collective_control():
    zz = np.kron(SZ, SZ)
    collective_x = np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX)
    basis = control.lie_closure([zz, collective_x])
    assert basis.dimension == 4
    assert not control.is_fully_controllable(basis)


@pytest.mark.parametrize("n, dim", [(2, 4), (3, 9), (4, 16)])
def test_ising_chain_rejects_round_off_commutators(n, dim):
    # many of the chain's commutators vanish up to round-off; none of them
    # may become a direction
    basis = control.lie_closure(ising_chain(n))
    assert basis.dimension == dim == svd_rank_closure(ising_chain(n))



def test_small_closure_at_large_d_stays_small():
    # 6-qubit chain, d = 64: the basis buffer grows with the algebra, so a
    # 36-dimensional closure never reserves a (d²−1, 2d²) array (268 MB)
    tracemalloc.start()
    try:
        basis = control.lie_closure(ising_chain(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.dimension == 36
    assert peak < 32e6


@pytest.mark.parametrize("eps, dim", [(1e-9, 2), (1e-7, 4)])
def test_commutator_resolution_limit(eps, dim):
    # the input-scale rule treats a commutator of two unit elements with
    # norm below 1e-8 as zero, exact or not: a recorded resolution limit
    zi, iz, xi = (pauli_string(s) for s in ([3, 0], [0, 3], [1, 0]))
    assert control.lie_closure([zi, iz + eps * xi]).dimension == dim

@st.composite
def pauli_generator_sets(draw):
    """1–3 generators on 1–3 qubits, each a sum of 1–3 Pauli strings
    (identity strings included) with coefficients from a small set, so many
    sets close to a proper subalgebra."""
    n = draw(st.integers(1, 3))
    strings = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    coeff = st.sampled_from([1.0, -1.0, 0.5, 2.0, 0.3])
    terms = st.lists(st.tuples(coeff, strings), min_size=1, max_size=3)
    return [sum(c * pauli_string(labels) for c, labels in draw(terms))
            for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=100, deadline=None)
@given(pauli_generator_sets())
def test_closure_dimension_matches_svd_oracle(gens):
    assert control.lie_closure(gens).dimension == svd_rank_closure(gens)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1))
@example(d=6, seed=781)
def test_closure_matches_loop_oracle(d, seed):
    rng = np.random.default_rng(seed)
    gens = [rand_hermitian(rng, d), rand_hermitian(rng, d)]
    got = control.lie_closure(gens).elements
    want = mgs_lie_closure(gens)
    assert len(got) == len(want)
    assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) <= 1e-10


def test_su16_basis_is_orthonormal_skew_hermitian(rng):
    basis = control.lie_closure([rand_hermitian(rng, 16), rand_hermitian(rng, 16)])
    assert basis.dimension == 255
    elems = np.array(basis.elements)
    assert np.max(np.abs(np.trace(elems, axis1=1, axis2=2))) <= 1e-10
    assert np.max(np.abs(elems + elems.conj().transpose(0, 2, 1))) <= 1e-10
    flat = elems.reshape(len(elems), -1)
    gram = (flat.conj() @ flat.T).real
    assert np.max(np.abs(gram - np.eye(len(elems)))) <= 1e-10


def test_random_pairs_generically_controllable(rng):
    for d in (3, 4):
        for _ in range(5):
            a = rand_hermitian(rng, d)
            b = rand_hermitian(rng, d)
            basis = control.lie_closure([a, b])
            assert basis.dimension == d * d - 1


def test_closure_input_validation():
    with pytest.raises(ValidationError):
        control.lie_closure([])
    with pytest.raises(ValidationError):
        control.lie_closure([np.array([[0, 1], [0, 0]], dtype=complex)])
    with pytest.raises(ValidationError):
        control.lie_closure([SZ, np.eye(3, dtype=complex)])


def test_lie_basis_dimension_consistency():
    """The dimension is the element count, not a separate field."""
    assert control.LieBasis(dim_space=2, elements=(SZ,)).dimension == 1
    with pytest.raises(TypeError):
        control.LieBasis(dim_space=2, elements=(SZ,), dimension=2)


def test_drift_operator_scales_with_coupling():
    c = liouville.DissipativeCoupling(A=SZ, B=SX, gamma=10.0, eta=0.5,
                                      phi=np.pi / 2, g=0.5)
    drift = control.dissipation_induced_drift(c, lambda_a=1.0)
    npt.assert_allclose(drift, (0.5 + 0.5) * SX, atol=1e-14)
    drift = control.dissipation_induced_drift(c, lambda_a=-1.0)
    npt.assert_allclose(drift, -(0.5 + 0.5) * SX, atol=1e-14)


def test_controllability_delta_ising():
    # B = zz with a collective-x control: the injected drift upgrades the
    # algebra from 1 (control alone, abelian) to 4
    zz = np.kron(SZ, SZ)
    collective_x = np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SX)
    c = liouville.DissipativeCoupling(A=SZ, B=zz, gamma=10.0, eta=0.5,
                                      phi=np.pi / 2, g=0.5)
    without, with_drift = control.controllability_delta(c, 1.0, [collective_x])
    assert without == 1
    assert with_drift == 4


def test_controllability_delta_needs_controls():
    c = liouville.DissipativeCoupling(A=SZ, B=SX, gamma=10.0, eta=0.5,
                                      phi=np.pi / 2)
    with pytest.raises(ValidationError):
        control.controllability_delta(c, 1.0, [])


def test_su2_from_drift_plus_single_control():
    c = liouville.DissipativeCoupling(A=SZ, B=SZ, gamma=10.0, eta=1.0,
                                      phi=np.pi / 2)
    without, with_drift = control.controllability_delta(c, 1.0, [SX])
    assert (without, with_drift) == (1, 3)
