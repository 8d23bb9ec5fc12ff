"""Dynamical Lie algebra closures and controllability decisions for S2 under
the dissipation-induced drift.

The closure works on traceless skew-Hermitian matrices (``i`` times the
Hermitian generators, identity component projected out) and returns an
orthonormal basis under the Hilbert–Schmidt inner product.  New commutators
are accepted when the residual after projection onto the current basis
exceeds ``1e-8`` times the commutator's own norm — a scale-invariant rank
threshold.  The worklist is breadth-first over commutator pairs, so bases are
deterministic for a given generator order.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .liouville import DissipativeCoupling
from .opcore import check_hermitian, frob_norm, hs_inner

__all__ = [
    "LieBasis", "lie_closure", "is_fully_controllable",
    "dissipation_induced_drift", "controllability_delta",
]

_INDEPENDENCE_RTOL = 1e-8


@dataclass(frozen=True)
class LieBasis:
    """Orthonormal basis of a dynamical Lie algebra on a d-dimensional space."""

    dim_space: int
    elements: tuple[np.ndarray, ...]
    dimension: int

    def __post_init__(self):
        if self.dimension != len(self.elements):
            raise ValidationError("dimension must equal the element count")


def _traceless(m: np.ndarray) -> np.ndarray:
    d = m.shape[0]
    return m - (np.trace(m) / d) * np.eye(d)


def lie_closure(generators) -> LieBasis:
    """Basis of the smallest real Lie algebra containing ``i * generators``.

    Generators must be Hermitian; identity components are projected out
    first, so the result lives inside the traceless skew-Hermitian algebra
    (dimension at most ``d**2 - 1``).
    """
    gens = [check_hermitian(g, f"generator {i}") for i, g in enumerate(generators)]
    if not gens:
        raise ValidationError("need at least one generator")
    d = gens[0].shape[0]
    for g in gens:
        if g.shape[0] != d:
            raise ValidationError("generators must share one dimension")
    max_dim = d * d - 1

    basis: list[np.ndarray] = []

    def try_add(candidate: np.ndarray) -> bool:
        scale = frob_norm(candidate)
        if scale == 0.0:
            return False
        residual = candidate
        for _ in range(2):   # re-orthogonalize: classical GS alone drifts
            for e in basis:
                residual = residual - hs_inner(e, residual).real * e
        if frob_norm(residual) <= _INDEPENDENCE_RTOL * scale:
            return False
        basis.append(residual / frob_norm(residual))
        return True

    pairs: deque[tuple[int, int]] = deque()

    def note_new_element():
        k = len(basis) - 1
        for i in range(k):
            pairs.append((i, k))

    for g in gens:
        if try_add(_traceless(1j * g)):
            note_new_element()

    # Breadth-first worklist over commutator pairs: every unordered pair is
    # enqueued exactly once, including pairs with elements discovered later.
    while pairs and len(basis) < max_dim:
        i, j = pairs.popleft()
        a, b = basis[i], basis[j]
        if try_add(a @ b - b @ a):
            note_new_element()

    return LieBasis(d, tuple(basis), len(basis))


def is_fully_controllable(basis: LieBasis) -> bool:
    """True when the algebra has the full dimension ``d**2 - 1``."""
    return basis.dimension == basis.dim_space ** 2 - 1


def dissipation_induced_drift(c: DissipativeCoupling, lambda_a: float) -> np.ndarray:
    """Effective drift Hamiltonian on S2, ``lambda_a (g + eta sin phi) B``.

    ``lambda_a`` is the eigenvalue of ``A`` the first subsystem is prepared
    in; together with the controls this drift decides controllability.
    """
    return c.drift(lambda_a) * c.B


def controllability_delta(c: DissipativeCoupling, lambda_a: float,
                          controls) -> tuple[int, int]:
    """Closure dimension of the controls alone vs controls plus drift."""
    controls = list(controls)
    if not controls:
        raise ValidationError("controls must be non-empty")
    dim_without = lie_closure(controls).dimension
    drift = dissipation_induced_drift(c, lambda_a)
    dim_with = lie_closure(controls + [drift]).dimension
    return dim_without, dim_with
