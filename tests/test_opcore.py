import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from emdyn import liouville, opcore
from emdyn.errors import (BadFactorIndex, DimMismatch, NotDensityMatrix,
                          NotHermitian)

from conftest import (hamiltonian_superop, kron_superop, left_superop,
                      rand_density, rand_hermitian, right_superop)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_expm_pauli_rotation():
    # exp(-i theta sx) = cos(theta) I - i sin(theta) sx
    theta = 0.3
    u = opcore.expm(SX, scale=-1j * theta)
    want = np.cos(theta) * I2 - 1j * np.sin(theta) * SX
    npt.assert_allclose(u, want, atol=1e-14)
    assert abs(np.cos(0.3) - 0.955336489125606) < 1e-15
    assert abs(np.sin(0.3) - 0.29552020666133955) < 1e-15


def test_expm_of_zero_is_identity():
    npt.assert_array_equal(opcore.expm(np.zeros((3, 3))), np.eye(3))


def test_expm_conserved_row(rng):
    # a classical rate matrix: its columns sum to zero, so the row of
    # ones (total probability) is conserved
    a = rng.uniform(size=(6, 6))
    a -= np.diag(a.sum(axis=0))
    ones = np.ones(6)
    e = opcore.expm(a, 1e3, conserved=ones)
    assert np.abs(ones @ e - ones).max() <= 1e-14
    npt.assert_allclose(e, opcore.expm(a, 1e3), atol=1e-9)
    # a row that a does not conserve leaves the result as it was
    b = a + np.eye(6)
    npt.assert_array_equal(opcore.expm(b, 10.0, conserved=ones),
                           opcore.expm(b, 10.0))
    # a stack shares one halving count and pins every member
    stack = np.stack([a, 0.1 * a, a.T - np.diag(a.T.sum(axis=0))])
    e = opcore.expm(stack, 1e3, conserved=ones)
    assert np.abs(ones @ e - ones).max() <= 1e-14
    npt.assert_allclose(e, opcore.expm(stack, 1e3), atol=1e-9)
    # one member that does not conserve the row leaves the stack unpinned
    stack[1] += np.eye(6)
    npt.assert_array_equal(opcore.expm(stack, 10.0, conserved=ones),
                           opcore.expm(stack, 10.0))


@st.composite
def expm_stacks(draw):
    """1–6 members of one size n ≤ 12, each a Lindblad block generator
    (``_superop`` of random a×a and b×b operators) or an anti-Hermitian
    matrix, scaled to a 1-norm between 1e-3 and 1e4; or, with ``real``,
    real ones (real jumps, no Hamiltonian; real antisymmetric)."""
    real = draw(st.booleans())
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n = a * b
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def op(k):
        x = rng.normal(size=(k, k))
        return x if real else x + 1j * rng.normal(size=(k, k))

    members = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            h_l, h_r = (np.zeros((k, k)) if real else rand_hermitian(rng, k)
                        for k in (a, b))
            g = opcore._superop(h_l, h_r, [(op(a), op(b), 1.0)])
            g = g.real if real else g
        else:
            x = op(n)
            g = x - x.conj().T
        norm = 10.0 ** draw(st.floats(-3.0, 4.0))
        members.append(g * norm / max(np.abs(g).sum(axis=0).max(), 1e-300))
    return np.stack(members)


@settings(max_examples=60, deadline=None)
@given(expm_stacks())
def test_stacked_expm_matches_scipy(stack):
    e = opcore.expm(stack)
    assert e.shape == stack.shape
    assert (e.dtype.kind == "c") == (stack.dtype.kind == "c")
    for g, got in zip(stack, e):
        # typed complex: SciPy's real path loses accuracy as it squares
        want = scipy.linalg.expm(g.astype(complex))
        assert np.abs(got - want).max() <= 1e-10
    npt.assert_array_equal(opcore.expm(stack[:1])[0], opcore.expm(stack[0]))


@pytest.mark.parametrize("d", [2, 3, 8])
def test_hermitian_expm_is_unitary_at_large_t(rng, d):
    h = rand_hermitian(rng, d)
    u = opcore.expm(h, -1j * 1e10)
    assert np.abs(u @ u.conj().T - np.eye(d)).max() <= 1e-12


def test_trace_distance_pure_vs_mixed():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert abs(opcore.trace_distance(rho, I2 / 2) - 0.5) < 1e-14


def test_trace_distance_properties(rng):
    for _ in range(20):
        a = rand_density(rng, 4)
        b = rand_density(rng, 4)
        d = opcore.trace_distance(a, b)
        assert 0 <= d <= 1 + 1e-12
        assert abs(d - opcore.trace_distance(b, a)) < 1e-13
    assert opcore.trace_distance(a, a) < 1e-14


def test_tensor_matches_kron_chain():
    t = opcore.tensor([SX, SZ, I2])
    npt.assert_array_equal(t, np.kron(np.kron(SX, SZ), I2))


def test_vec_unvec_roundtrip(rng):
    rho = rand_density(rng, 3)
    npt.assert_array_equal(opcore.unvec(opcore.vec(rho), 3), rho)


def test_superop_factor_identities(rng):
    # vec(A rho B) = left(A) right(B) vec(rho)
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = rand_density(rng, 3)
        lhs = opcore.unvec(
            left_superop(a) @ right_superop(b) @ opcore.vec(rho), 3)
        npt.assert_allclose(lhs, a @ rho @ b, atol=1e-13)


def test_hamiltonian_superop_is_commutator(rng):
    h = rand_hermitian(rng, 4)
    rho = rand_density(rng, 4)
    got = opcore.unvec(hamiltonian_superop(h) @ opcore.vec(rho), 4)
    npt.assert_allclose(got, -1j * (h @ rho - rho @ h), atol=1e-13)


def test_dissipator_superop_direct_form(rng):
    """The vectorized dissipator must act exactly like
    L rho L† - (L†L rho + rho L†L)/2."""
    for _ in range(10):
        L = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = rand_density(rng, 3)
        got = opcore.unvec(opcore.dissipator_superop(L) @ opcore.vec(rho), 3)
        ldl = L.conj().T @ L
        want = L @ rho @ L.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
        npt.assert_allclose(got, want, atol=1e-12)


def rand_op(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_superop_matches_kron_oracle(a, b, n_jumps, seed):
    """Two-sided blocks (a ≠ b included), zero-rate jumps among them."""
    rng = np.random.default_rng(seed)
    rates = rng.choice([0.0, 0.3, 1.0, 2.5], size=n_jumps)
    jumps = [(rand_op(rng, a), rand_op(rng, b), r) for r in rates]
    h_l, h_r = rand_hermitian(rng, a), rand_hermitian(rng, b)
    got = opcore._superop(h_l, h_r, jumps)
    assert got.shape == (a * b, a * b)
    assert np.max(np.abs(got - kron_superop(h_l, h_r, jumps))) <= 1e-13


@st.composite
def sparse_superop_cases(draw):
    """``_superop`` arguments on a×b blocks (a ≠ b included), unbatched or
    with batch axes, whose operators each have their own random sparsity,
    from all-zero to dense, per batch member; one to three jumps, with rate
    0 among them, and ``L_l is L_r`` when a = b and drawn so."""
    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def op(d, hermitian=False):     # |entry| ≤ 2√2/d keeps |g| below 16
        m = rng.uniform(-1, 1, size=batch + (d, d, 2)) @ np.array([1, 1j])
        if hermitian:
            m = m + m.conj().swapaxes(-1, -2)
        keep = rng.random(batch + (d, d)) < draw(
            st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
        return m * (keep & keep.swapaxes(-1, -2) if hermitian else keep) / d

    jumps = []
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))
        L_l = op(a)
        same = a == b and draw(st.booleans())
        jumps.append((L_l, L_l if same else op(b), r))
    return op(a, True), op(b, True), jumps


@settings(max_examples=200, deadline=None)
@given(sparse_superop_cases())
def test_sparse_batched_superop_matches_kron_oracle(case):
    h_l, h_r, jumps = case
    got = opcore._superop(h_l, h_r, jumps)
    a, b = h_l.shape[-1], h_r.shape[-1]
    batch = h_l.shape[:-2]
    assert got.shape == batch + (a * b, a * b)
    for n in np.ndindex(*batch):
        want = kron_superop(h_l[n], h_r[n],
                            [(L_l[n], L_r[n], r) for L_l, L_r, r in jumps])
        assert np.max(np.abs(got[n] - want), initial=0.0) <= 1e-14


@pytest.mark.parametrize("d", range(1, 7))
def test_superop_builders_match_kron_oracle(rng, d):
    h, L1, L2 = rand_hermitian(rng, d), rand_op(rng, d), rand_op(rng, d)
    npt.assert_allclose(hamiltonian_superop(h), kron_superop(h, h),
                        rtol=0, atol=1e-13)
    z = np.zeros((d, d))
    npt.assert_allclose(opcore.dissipator_superop(L1),
                        kron_superop(z, z, [(L1, L1, 1.0)]),
                        rtol=0, atol=1e-13)
    me = liouville.MasterEquation(h, ((L1, 0.7), (L2, 0.0)),
                                  opcore.HilbertSpace((d,)))
    npt.assert_allclose(me.generator(),
                        kron_superop(h, h, [(L1, L1, 0.7), (L2, L2, 0.0)]),
                        rtol=0, atol=1e-13)


def test_dissipator_annihilates_trace(rng):
    L = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    gen = opcore.dissipator_superop(L)
    rho = rand_density(rng, 4)
    drho = opcore.unvec(gen @ opcore.vec(rho), 4)
    assert abs(np.trace(drho)) < 1e-12


def test_herm_eig_spectrum_and_projectors(rng):
    op = rand_hermitian(rng, 5)
    dec = opcore.herm_eig(op)
    total = sum(dec.projectors)
    npt.assert_allclose(total, np.eye(5), atol=1e-12)
    npt.assert_allclose(dec.reconstruct(), op, atol=1e-12)
    for p in dec.projectors:
        npt.assert_allclose(p @ p, p, atol=1e-12)


def test_herm_eig_merges_degenerate_levels():
    op = opcore.tensor([SZ, I2])  # eigenvalues (-1, -1, 1, 1)
    dec = opcore.herm_eig(op)
    assert len(dec.eigenvalues) == 2
    npt.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
    assert all(abs(np.trace(p).real - 2) < 1e-12 for p in dec.projectors)


def test_herm_eig_zero_matrix_single_cluster():
    dec = opcore.herm_eig(np.zeros((3, 3), dtype=complex))
    assert len(dec.eigenvalues) == 1
    assert dec.eigenvalues[0] == 0.0


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        opcore.herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_partial_trace_product_state(rng):
    r1 = rand_density(rng, 2)
    r2 = rand_density(rng, 3)
    rho = np.kron(r1, r2)
    npt.assert_allclose(opcore.partial_trace(rho, (2, 3), [0]), r1, atol=1e-13)
    npt.assert_allclose(opcore.partial_trace(rho, (2, 3), [1]), r2, atol=1e-13)


def test_partial_trace_keep_both_is_identity(rng):
    rho = rand_density(rng, 6)
    npt.assert_allclose(opcore.partial_trace(rho, (2, 3), [0, 1]), rho)


def test_partial_trace_preserves_trace(rng):
    rho = rand_density(rng, 8)
    r = opcore.partial_trace(rho, (2, 2, 2), [1])
    assert abs(np.trace(r) - 1) < 1e-12


def test_partial_trace_bad_factor():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(BadFactorIndex):
        opcore.partial_trace(rho, (2, 2), [2])


def test_partial_trace_dim_mismatch():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(DimMismatch):
        opcore.partial_trace(rho, (2, 3), [0])


def test_hilbert_space():
    space = opcore.HilbertSpace((2, 3, 4))
    assert space.total_dim == 24
    assert space.n_factors == 3


def test_check_density_rejects_bad_inputs():
    with pytest.raises(NotDensityMatrix):
        opcore.check_density(np.diag([2.0, -1.0]).astype(complex), "rho")
    with pytest.raises(NotHermitian):
        opcore.check_density(np.array([[1, 1], [0, 0]], dtype=complex), "rho")


def test_hs_inner_and_norm(rng):
    a = rand_hermitian(rng, 3)
    assert abs(opcore.hs_inner(a, a).real - opcore.frob_norm(a) ** 2) < 1e-12
