"""Dense reference dynamics, independent of the library's generator code.

Every Liouvillian here is assembled with ``numpy.kron`` straight from the
paper's master equation and exponentiated with ``scipy.linalg.expm``.  The
benchmark compares a seeded subset of library results against these
functions outside the timed region, so later changes that move or delete the
library's own cross-check routes cannot weaken the benchmark's checks.

Convention: row vectorisation, ``vec(X rho Y) = kron(X, Y.T) vec(rho)``.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg


def lindblad(h: np.ndarray, jumps) -> np.ndarray:
    """Superoperator of ``-i[h, rho] + sum_k D[L_k] rho`` (row-vectorised)."""
    d = h.shape[0]
    eye = np.eye(d)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in jumps:
        ldl = op.conj().T @ op
        gen = gen + np.kron(op, op.conj()) - 0.5 * (np.kron(ldl, eye)
                                                   + np.kron(eye, ldl.T))
    return gen


def evolve(gen: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    d = rho0.shape[0]
    return (scipy.linalg.expm(gen * t) @ rho0.reshape(-1)).reshape(d, d)


def marginal(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace keeping the factors in ``keep`` (via einsum)."""
    n = len(dims)
    letters = "abcdefghijklmnop"
    row = list(letters[:n])
    col = [row[i] if i not in keep else letters[n + i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    spec = "".join(row) + "".join(col) + "->" + out
    dk = int(np.prod([dims[i] for i in keep]))
    return np.einsum(spec, rho.reshape(tuple(dims) * 2)).reshape(dk, dk)


def trace_dist(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return float(0.5 * np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


def coupling_generator(A, B, gamma, eta, phi, g=0.0, h2=None) -> np.ndarray:
    """Liouvillian of ``L = sqrt(gamma) (A⊗1 − (eta/gamma) e^{i phi} 1⊗B)``
    plus ``H = g A⊗B`` (plus ``1⊗h2`` when a control Hamiltonian is given)."""
    d1, d2 = A.shape[0], B.shape[0]
    a1 = np.kron(A, np.eye(d2))
    b2 = np.kron(np.eye(d1), B)
    jump = np.sqrt(gamma) * (a1 - (eta / gamma) * np.exp(1j * phi) * b2)
    h = g * a1 @ b2
    if h2 is not None:
        h = h + np.kron(np.eye(d1), h2)
    return lindblad(h, [jump])


def s2_marginal(A, B, gamma, eta, phi, rho0, t, g=0.0) -> np.ndarray:
    dims = (A.shape[0], B.shape[0])
    rho = evolve(coupling_generator(A, B, gamma, eta, phi, g), rho0, t)
    return marginal(rho, dims, [1])


def coherent_s2_marginal(A, B, eta, phi, rho0, t) -> np.ndarray:
    """S2 marginal under ``H = eta sin(phi) A⊗B`` alone."""
    u = scipy.linalg.expm(-1j * t * eta * np.sin(phi) * np.kron(A, B))
    return marginal(u @ rho0 @ u.conj().T, (A.shape[0], B.shape[0]), [1])


def gap(A, B, gamma, eta, phi, rho0, t) -> float:
    return trace_dist(s2_marginal(A, B, gamma, eta, phi, rho0, t),
                      coherent_s2_marginal(A, B, eta, phi, rho0, t))


def pulsed_s2_marginal(A, B, gamma, eta, phi, rho0, segments) -> np.ndarray:
    """Lab-frame S2 marginal under piecewise-constant ``(duration, h2)``."""
    rho = rho0
    for dur, h2 in segments:
        rho = evolve(coupling_generator(A, B, gamma, eta, phi, h2=h2), rho, dur)
    return marginal(rho, (A.shape[0], B.shape[0]), [1])


def lowering(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1).astype(complex)


def system_bath_distance(lam1, lam2, gamma_a, phi1, phi2, A, B, n_max,
                         rho0, t) -> float:
    """Full system ⊗ mode model against the eliminated jump, at time ``t``.

    ``H = lam1 X_phi1 A + lam2 X_phi2 B`` with ``X_p = a e^{-ip} + a† e^{ip}``
    and damping ``gamma_a D[a]``; the eliminated side is
    ``L = (2 lam1/sqrt(gamma_a)) (A⊗1 + (lam2/lam1) e^{-i(phi1-phi2)} 1⊗B)``.
    """
    d1, d2, dm = A.shape[0], B.shape[0], n_max + 1
    a = lowering(n_max)

    def quad(p):
        return np.exp(-1j * p) * a + np.exp(1j * p) * a.conj().T

    h = (lam1 * np.kron(np.kron(A, np.eye(d2)), quad(phi1))
         + lam2 * np.kron(np.kron(np.eye(d1), B), quad(phi2)))
    jump = np.sqrt(gamma_a) * np.kron(np.eye(d1 * d2), a)
    vac = np.zeros((dm, dm), dtype=complex)
    vac[0, 0] = 1.0
    rho = evolve(lindblad(h, [jump]), np.kron(rho0, vac), t)
    sys_part = marginal(rho, (d1, d2, dm), [0, 1])
    l_eff = (2 * lam1 / np.sqrt(gamma_a)) * (
        np.kron(A, np.eye(d2))
        + (lam2 / lam1) * np.exp(-1j * (phi1 - phi2)) * np.kron(np.eye(d1), B))
    eff = evolve(lindblad(np.zeros((d1 * d2, d1 * d2)), [l_eff]), rho0, t)
    return trace_dist(sys_part, eff)
