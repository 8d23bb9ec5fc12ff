import numpy as np
import pytest
import scipy.linalg

from emdyn import circuit


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
