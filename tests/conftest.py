from collections import deque
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from emdyn import circuit, liouville, opcore
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


def rotated_frame_loop(task, substeps=200):
    """Per-substep form of ``bounds.rotated_frame_marginal`` (the loop
    oracle): one ``propagate`` of each midpoint-frozen dissipator, with
    ``V`` at the midpoint from the eigendecomposition of the segment
    Hamiltonian.  Returns ``(rho2_rotated, V_total)``.
    """
    c = task.coupling
    lam = opcore.herm_eig(c.A).eigenvalues[task.a_eigenindex]
    rho = np.outer(task.psi0, task.psi0.conj())
    l0 = np.sqrt(c.gamma) * lam * np.eye(c.d2)
    b_scale = np.exp(1j * c.phi) / np.sqrt(c.gamma)
    v = np.eye(c.d2, dtype=complex)
    for k, (dur, _) in enumerate(task.pulse.segments):
        w, q = np.linalg.eigh(task.pulse.segment_hamiltonian(k))
        tau = dur / substeps
        for n in range(substeps):
            v_mid = (q * np.exp(-1j * tau * (n + 0.5) * w)) @ q.conj().T @ v
            b_rot = v_mid.conj().T @ (c.eta * c.B) @ v_mid
            gen = opcore.dissipator_superop(l0 - b_scale * b_rot)
            rho = liouville.propagate(gen, rho, tau)
        v = (q * np.exp(-1j * dur * w)) @ (q.conj().T @ v)
    return rho, v


def build_full_generator(c, include_coherent=True):
    """The coupling's full generator built directly from its jump operator.

    Returns ``D[L]`` plus, when ``include_coherent``, the commutator part
    ``-i [g A1 B2, .]``.  ``gamma == 0`` (with ``eta == 0``) degenerates to
    the purely coherent generator.
    """
    if c.gamma == 0:
        gen = np.zeros(((c.d1 * c.d2) ** 2,) * 2, dtype=complex)
    else:
        gen = opcore.dissipator_superop(c.jump_operator())
    if include_coherent and c.g != 0:
        gen = gen + hamiltonian_superop(c.coherent_hamiltonian())
    return gen


def left_superop(a):
    """Kronecker superoperator of ``rho -> a @ rho``."""
    return np.kron(a, np.eye(len(a)))


def right_superop(b):
    """Kronecker superoperator of ``rho -> rho @ b``."""
    return np.kron(np.eye(len(b)), np.asarray(b).T)


def hamiltonian_superop(h):
    """Superoperator of the coherent part, ``rho -> -i [h, rho]``, from the
    library's assembler ``opcore._superop``."""
    h = np.asarray(h, dtype=complex)
    return opcore._superop(h, h)


def expanded_generator(c, include_coherent=True):
    """The coupling's full generator in the expanded four-term form (the
    cross-check of :func:`build_full_generator`)::

        gamma D[A1] + (eta^2/gamma) D[B2] − K + eta cos(phi) {A1 B2, .}

    with ``K(rho) = eta (e^{i phi} B2 rho A1 + e^{-i phi} A1 rho B2)``.
    """
    A1, B2 = c.a1(), c.b2()
    ab = A1 @ B2
    gen = np.zeros((len(A1) ** 2,) * 2, dtype=complex)
    if c.gamma > 0:
        gen += (c.gamma * opcore.dissipator_superop(A1)
                + c.eta ** 2 / c.gamma * opcore.dissipator_superop(B2))
    phase = np.exp(1j * c.phi)
    gen -= c.eta * (phase * left_superop(B2) @ right_superop(A1)
                    + phase.conjugate() * left_superop(A1) @ right_superop(B2))
    gen += c.eta * np.cos(c.phi) * (left_superop(ab) + right_superop(ab))
    if include_coherent:
        gen += hamiltonian_superop(c.coherent_hamiltonian())
    return gen


def reduced_s1_generator(c, j):
    """``(drift, rate)`` of S1 for S2 in eigenspace ``j`` of B: the mirror
    of ``liouville.reduced_s2_generator``, ``lam_j (g − eta sin phi)`` and
    ``gamma``."""
    return c.drift(float(opcore.herm_eig(c.B).eigenvalues[j]), on=1), c.gamma


def cascaded_generator(c):
    """Uni-directional coupling term ``i eta ([A1 rho, B2] + [rho A1, B2])``,
    the cascaded (source → target) piece at ``phi = pi/2``, ``eta = g``."""
    A1, B2 = c.a1(), c.b2()
    return 1j * c.eta * (left_superop(A1) @ right_superop(B2)
                         - left_superop(B2 @ A1) + right_superop(A1 @ B2)
                         - left_superop(B2) @ right_superop(A1))


def error_upper_bound_absorbed(t, gamma, b_absorbed):
    """``bounds.error_upper_bound`` in the eta-absorbed convention
    ``B_tilde = eta B``: ``(t / 2 gamma)(opnorm(B_tilde)^2 +
    opnorm(B_tilde^2))``."""
    norm = [np.max(np.abs(np.linalg.eigvalsh(m)))
            for m in (b_absorbed, b_absorbed @ b_absorbed)]
    return float(t / (2.0 * gamma) * (norm[0] ** 2 + norm[1]))


def modulation_forms(tones, t):
    """``circuit.modulation_signal`` (the product form) and the sum form of
    the drive modulation (the oracle): over every (x, y) tone pair,
    ``cos((wx+wy)t + px+py)/2 + cos((wx−wy)t + px−py)/2``.  The two agree
    pointwise by the product-to-sum identity."""
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for wx, phx in tones.x_tones:
        for wy, phy in tones.y_tones:
            total = total + 0.5 * np.cos((wx + wy) * t + (phx + phy))
            total = total + 0.5 * np.cos((wx - wy) * t + (phx - phy))
    return circuit.modulation_signal(tones, t), total


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
    removed, ``max(‖[a, b]‖, 1)`` for a commutator of unit elements).  A
    residual below 1e-3 times its scale is held back until the pairs run
    out; then the held-back residuals are re-projected, the one with the
    largest residual-to-scale ratio is accepted and pairing resumes.
    Returns the tuple of basis elements.
    """
    d = len(gens[0])
    basis = []
    pairs = deque()
    held = []

    def project(x):
        for _ in range(2):
            for e in basis:
                x = x - hs_inner(e, x).real * e
        return x

    def accept(residual):
        basis.append(residual / frob_norm(residual))
        pairs.extend((i, len(basis) - 1) for i in range(len(basis) - 1))

    def try_add(candidate, scale):
        residual = project(candidate)
        if len(basis) < d * d - 1 and frob_norm(residual) > rtol * scale:
            if frob_norm(residual) < 1e-3 * scale:
                held.append((residual, scale))
            else:
                accept(residual)

    for g in gens:
        try_add(_skew_traceless(g), frob_norm(g))
    while len(basis) < d * d - 1:
        if pairs:
            i, j = pairs.popleft()
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            try_add(comm, max(frob_norm(comm), 1.0))
            continue
        held = [(r, s) for r, s in ((project(r), s) for r, s in held)
                if frob_norm(r) > rtol * s]
        if not held:
            break
        ratios = [frob_norm(r) / s for r, s in held]
        accept(held.pop(ratios.index(max(ratios)))[0])
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
