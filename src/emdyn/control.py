"""Dynamical Lie algebra closures and controllability decisions for S2 under
the dissipation-induced drift.

The closure works on traceless skew-Hermitian matrices (``i`` times the
Hermitian generators, identity component projected out) and returns an
orthonormal basis under the real Hilbert–Schmidt inner product.  Rank rule: a
candidate is accepted when its residual after projection onto the current
basis exceeds ``1e-8`` times the scale of its *inputs* — a generator's norm
before its trace is removed, and ``max(‖[a, b]‖, 1)`` for the commutator of
two unit basis elements — so a commutator that vanishes up to round-off is
never normalized into a new direction.  The price is a fixed resolution: a
commutator of two unit elements with norm below ``1e-8`` is treated as zero,
even when it is exact (``Z⊗I`` and ``I⊗Z + 1e-9·X⊗I`` close to 2 dimensions,
not 4).  Element ``k`` is paired with every earlier element in discovery
order (breadth-first), so bases are deterministic for a given generator order.
A candidate that passes the rank rule with a residual below ``1e-3`` of its
scale is held back, because normalizing it would amplify rounding by the
inverse ratio.  When the pairs run out, the held-back candidates are
re-projected, the one with the largest residual-to-scale ratio is accepted,
and pairing resumes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .liouville import DissipativeCoupling
from .opcore import check_hermitian

__all__ = [
    "LieBasis", "lie_closure",
    "dissipation_induced_drift", "controllability_delta",
]

_INDEPENDENCE_RTOL = 1e-8
_WEAK_RTOL = 1e-3


@dataclass(frozen=True)
class LieBasis:
    """Orthonormal basis of a dynamical Lie algebra on a d-dimensional space."""

    elements: tuple[np.ndarray, ...]

    @property
    def dimension(self) -> int:
        return len(self.elements)


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
    # row k is the real view of element k; mats[k] is the same memory as d×d.
    # The buffer doubles when full, so a small algebra at large d stays small.
    rows = np.zeros((min(max_dim, max(64, 2 * len(gens))), 2 * d * d))
    mats = rows.view(complex).reshape(-1, d, d)
    n = 0
    held = []   # (residual, scale) of weakly independent candidates

    def project(r: np.ndarray) -> float:
        for _ in range(2):   # re-orthogonalize: classical GS alone drifts
            r -= (rows[:n] @ r) @ rows[:n]
        return np.linalg.norm(r)

    def accept(r: np.ndarray):
        nonlocal n, rows, mats
        if n == len(rows):
            grow = np.zeros((min(n, max_dim - n), rows.shape[1]))
            rows = np.concatenate([rows, grow])
            mats = rows.view(complex).reshape(-1, d, d)
        rows[n] = r / np.linalg.norm(r)
        n += 1

    def try_add(candidate: np.ndarray, scale: float):
        r = candidate.reshape(-1).view(float)
        norm = project(r)
        if n < max_dim and norm > _INDEPENDENCE_RTOL * scale:
            if norm < _WEAK_RTOL * scale:
                held.append((r, scale))
            else:
                accept(r)

    for g in gens:
        try_add(_traceless(1j * g), np.linalg.norm(g))
    k = 1
    while n < max_dim:
        if k < n:
            for i in range(k):
                if n == max_dim:
                    break
                comm = mats[i] @ mats[k] - mats[k] @ mats[i]
                try_add(comm, max(np.linalg.norm(comm), 1.0))
            k += 1
            continue
        # pairs exhausted: re-project the held-back candidates and accept the
        # best-conditioned one that still passes the rank rule
        held = [(r, s) for r, s in held
                if project(r) > _INDEPENDENCE_RTOL * s]
        if not held:
            break
        ratios = [np.linalg.norm(r) / s for r, s in held]
        accept(held.pop(int(np.argmax(ratios)))[0])
    return LieBasis(tuple(m.copy() for m in mats[:n]))


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
