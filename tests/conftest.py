import numpy as np
import pytest
import scipy.linalg


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
