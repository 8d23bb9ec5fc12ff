from collections import deque
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from emdyn import circuit
from emdyn.opcore import frob_norm, hs_inner


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rand_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (m + m.conj().T) / 2


def rand_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def dense_expm_oracle(gen, rho0, t):
    """Reference ``exp(t gen)`` on a row-vectorized state: the complex expm."""
    d = rho0.shape[0]
    return (scipy.linalg.expm(gen * t) @ rho0.reshape(-1)).reshape(d, d)


def kron_superop(h_l, h_r, jumps=()):
    """Kronecker-product form of ``opcore._superop`` (the test oracle).

    Row vectorization of an a×b ``X``: ``vec(P X Q) = kron(P, Q.T) vec(X)``.
    """
    el, er = np.eye(len(h_l)), np.eye(len(h_r))
    gen = -1j * (np.kron(h_l, er) - np.kron(el, h_r.T))
    for L_l, L_r, r in jumps:
        gen = gen + r * (np.kron(L_l, L_r.conj())
                         - 0.5 * np.kron(L_l.conj().T @ L_l, er)
                         - 0.5 * np.kron(el, (L_r.conj().T @ L_r).T))
    return gen


def working_point(gamma_z=50.0, n_max=3, lambda_1z=0.25, lambda_23=0.15):
    """Balanced operating point: Lambda comes out equal to gamma_z."""
    mode = circuit.BosonicMode(n_max=n_max, omega_z=12.0, gamma_z=gamma_z)
    return circuit.CircuitParams(
        E_J=4 * np.sqrt(2) * gamma_z, phi_ext=np.pi / 4, phi0=1.0,
        phi_z0=1.0, alpha_x=1.0, alpha_y=1.0, lambda_1z=lambda_1z,
        lambda_2z=lambda_23, lambda_3z=lambda_23, Omega=(5.0, 6.0, 4.0),
        mode=mode)


PAULI = (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]).astype(complex))


def pauli_string(labels):
    """Kronecker product of Paulis indexed 0-3 (id, x, y, z)."""
    return reduce(np.kron, [PAULI[k] for k in labels])


def ising_chain(n):
    """Uniform chain ΣZᵢZᵢ₊₁ and collective ΣXᵢ on n >= 2 qubits."""
    zz = sum(pauli_string([3 if j in (i, i + 1) else 0 for j in range(n)])
             for i in range(n - 1))
    x = sum(pauli_string([1 if j == i else 0 for j in range(n)])
            for i in range(n))
    return [zz, x]


def _skew_traceless(g):
    """``i g`` with its identity component projected out."""
    m = 1j * np.asarray(g, dtype=complex)
    return m - (np.trace(m) / len(m)) * np.eye(len(m))


def mgs_lie_closure(gens, rtol=1e-8):
    """Per-element modified Gram–Schmidt Lie closure (the loop oracle).

    The same breadth-first pair order, two re-orthogonalization passes and
    rank rule as ``control.lie_closure``: a residual counts only above
    ``rtol`` times its inputs' scale (a generator's norm before its trace is
    removed, ``max(‖[a, b]‖, 1)`` for a commutator of unit elements).
    Returns the tuple of basis elements.
    """
    d = len(gens[0])
    basis = []
    pairs = deque()

    def try_add(candidate, scale):
        residual = candidate
        for _ in range(2):
            for e in basis:
                residual = residual - hs_inner(e, residual).real * e
        if len(basis) < d * d - 1 and frob_norm(residual) > rtol * scale:
            basis.append(residual / frob_norm(residual))
            pairs.extend((i, len(basis) - 1) for i in range(len(basis) - 1))

    for g in gens:
        try_add(_skew_traceless(g), frob_norm(g))
    while pairs and len(basis) < d * d - 1:
        i, j = pairs.popleft()
        comm = basis[i] @ basis[j] - basis[j] @ basis[i]
        try_add(comm, max(frob_norm(comm), 1.0))
    return tuple(basis)


def svd_rank_closure(gens, rtol=1e-9):
    """Dimension of the real Lie algebra generated by ``i * gens`` by SVD rank.

    Each round stacks the real views of the current span and of all pairwise
    commutators of its orthonormal basis, and keeps the singular directions
    above ``rtol`` times the largest singular value (in the first round, the
    largest generator norm if that is larger, so a generator that is the
    identity up to round-off adds nothing).  Rounds repeat until the rank is
    stable.  Independent of ``lie_closure``'s order and rank rule.
    """
    d = len(gens[0])
    mats = [_skew_traceless(g) for g in gens]
    floor = max(np.linalg.norm(g) for g in gens)
    rank = -1
    while True:
        stack = np.array([m.reshape(-1).view(float) for m in mats])
        _, s, vt = np.linalg.svd(stack, full_matrices=False)
        keep = int(np.sum(s > rtol * max(s[0], floor)))
        if keep in (rank, 0):
            return keep
        rank, floor = keep, 0.0
        basis = [v.copy().view(complex).reshape(d, d) for v in vt[:keep]]
        mats = basis + [a @ b - b @ a for k, a in enumerate(basis)
                        for b in basis[:k]]
