"""Strong-damping effective dynamics: the bistochastic unitary-mixture map it
induces on S2, the finite-gamma gap to that limit, and enhancement /
suppression (nonreciprocity) diagnostics for the two marginals.
"""
from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from . import opcore
from .errors import DegenerateFit, DimMismatch, ValidationError
from .liouville import DissipativeCoupling, propagate
from .opcore import (herm_eig, partial_trace, tensor, trace_distance)

__all__ = [
    "UnitaryMixture", "strong_damping_map", "apply_mixture",
    "equivalence_gap", "fit_power_law",
    "scaling_exponent", "nonreciprocity_report",
]


@dataclass(frozen=True)
class UnitaryMixture:
    """Convex mixture of unitaries ``rho -> sum_j p_j U_j rho U_j†`` on S2.

    ``eigenvalues`` records the merged eigenvalues of ``A`` the branches
    descend from (ascending order, matching ``probs`` and ``unitaries``).
    The map is bistochastic: it fixes the maximally mixed state.
    """

    probs: np.ndarray
    unitaries: tuple[np.ndarray, ...]
    eigenvalues: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if not np.all(p >= -1e-12):
            raise ValidationError(f"negative or NaN probability in {p}")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValidationError(f"probabilities sum to {p.sum()}, not 1")
        object.__setattr__(self, "probs", np.clip(p, 0.0, None))
        for u in self.unitaries:
            d = u.shape[0]
            if not np.linalg.norm(u @ u.conj().T - np.eye(d),
                                  ord=np.inf) <= 1e-10:
                raise ValidationError("mixture element is not unitary to 1e-10")


def strong_damping_map(c: DissipativeCoupling, rho1_init: np.ndarray,
                       t: float) -> UnitaryMixture:
    """Limit map on S2 for the product initial state ``rho1_init ⊗ rho2``.

    Spectrally decomposes ``A`` (merged, ascending); branch ``j`` carries
    probability ``p_j = tr(P_j rho1)`` and unitary
    ``U_j = exp(-i t lam_j (g + eta sin phi) B)``.
    """
    if not np.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    rho1 = opcore.check_density(rho1_init, name="rho1_init")
    if rho1.shape[0] != c.d1:
        raise DimMismatch(
            f"rho1 dim {rho1.shape[0]} != S1 dim {c.d1}")
    dec = herm_eig(c.A)
    probs = np.array([np.real(np.trace(p @ rho1)) for p in dec.projectors])
    unitaries = tuple(opcore.expm(c.B, -1j * t * c.drift(lam))
                      for lam in dec.eigenvalues)
    return UnitaryMixture(probs, unitaries, dec.eigenvalues.copy())


def apply_mixture(m: UnitaryMixture, rho2: np.ndarray) -> np.ndarray:
    """Apply the mixture map to a state of S2."""
    rho2 = np.asarray(rho2, dtype=complex)
    d = m.unitaries[0].shape[0]
    if rho2.shape != (d, d):
        raise DimMismatch(f"state shape {rho2.shape} != ({d}, {d})")
    out = np.zeros_like(rho2)
    for p, u in zip(m.probs, m.unitaries):
        if p != 0:
            out = out + p * (u @ rho2 @ u.conj().T)
    return out


def equivalence_gap(c: DissipativeCoupling, rho1: np.ndarray,
                    rho2: np.ndarray, t: float) -> float:
    """Trace distance between the exact S2 marginal and the emergent mixture.

    Exact side: full propagation of ``rho1 ⊗ rho2`` under ``D[L]`` alone
    (``g`` forced to zero), by :func:`propagate`'s closed form.  Emergent
    side: the unitary mixture of :func:`strong_damping_map` applied to
    ``rho2``.  That is exactly the S2 marginal of the coherent evolution
    under ``H = eta sin(phi) A ⊗ B`` (at ``phi = pi/2`` the plain
    ``eta A1 B2`` exchange), since ``A1`` and ``H`` commute.  The gap
    closes like ``1/gamma`` as the damping grows.
    """
    rho1 = opcore.check_density(rho1, name="rho1")
    rho2 = opcore.check_density(rho2, name="rho2")
    c0 = dataclasses.replace(c, g=0.0)
    rho_diss = propagate(c0, tensor([rho1, rho2]), t)
    s2_diss = partial_trace(rho_diss, (c.d1, c.d2), [1])
    s2_coh = apply_mixture(strong_damping_map(c0, rho1, t), rho2)
    return trace_distance(s2_diss, s2_coh)


def fit_power_law(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Ordinary least squares of ``log y`` against ``log x``.

    Returns ``(exponent, prefactor)`` such that ``y ≈ prefactor * x**exponent``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(np.exp(intercept))


def scaling_exponent(gammas, gaps) -> float:
    """Power-law exponent of ``gaps`` against ``gammas``, where one exists.

    Over the :func:`equivalence_gap` gaps of a gamma sweep this is the
    ``1/gamma`` convergence fit, with an exponent close to −1.  The fit
    needs at least four gamma values spanning two decades
    (:class:`ValidationError` otherwise) and no gap below 1e-14
    (:class:`DegenerateFit` otherwise).  Gaps that do not vary give
    exponent 0 with a warning.
    """
    gammas = np.asarray(gammas, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if len(gammas) < 4:
        raise ValidationError("need >= 4 gamma values for a scaling fit")
    if gammas.max() < 100 * gammas.min():
        raise ValidationError("gamma values must span >= 2 decades")
    if np.any(gaps < 1e-14):
        raise DegenerateFit(
            f"gap underflow: min gap {gaps.min():.3e} below 1e-14")
    if gaps.max() == gaps.min():
        warnings.warn("gaps do not vary across the sweep; exponent 0 is "
                      "an anomaly, not a scaling law", stacklevel=2)
        return 0.0
    exponent, _ = fit_power_law(gammas, gaps)
    return exponent


def nonreciprocity_report(c: DissipativeCoupling, rho0: np.ndarray,
                          t: float) -> dict:
    """Directionality diagnostics for a product initial state.

    Reports the commutator drift coefficients of both reduced generators
    (per merged eigenindex) and, from full simulations, the trace distance
    of each marginal between the ``(g, eta)`` configuration and the
    coherent-only ``(g, 0)`` reference.
    """
    rho0 = opcore.check_density(rho0, name="rho0")
    dims = (c.d1, c.d2)
    dec_a, dec_b = herm_eig(c.A), herm_eig(c.B)
    s2_coeffs = [float(c.drift(lam)) for lam in dec_a.eigenvalues]
    s1_coeffs = [float(c.drift(lam, on=1)) for lam in dec_b.eigenvalues]

    rho_full = propagate(c, rho0, t)
    rho_ref = propagate(dataclasses.replace(c, eta=0.0), rho0, t)

    return {
        "s1_drift_coefficients": s1_coeffs,
        "s2_drift_coefficients": s2_coeffs,
        "s1_trace_distance": trace_distance(
            partial_trace(rho_full, dims, [0]),
            partial_trace(rho_ref, dims, [0])),
        "s2_trace_distance": trace_distance(
            partial_trace(rho_full, dims, [1]),
            partial_trace(rho_ref, dims, [1])),
    }
