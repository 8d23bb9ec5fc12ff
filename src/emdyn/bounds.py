"""Fidelity-error analysis for dissipation-driven gates on S2: the exact
commuting-case error, the damping threshold for a wanted fidelity margin, the
general upper bound, and the simulated (empirical) error they are checked
against.

A :class:`GateTask` packages the initial and target pure states of S2, the
duration, the coupling, and an optional piecewise-constant control pulse.
The first subsystem is taken to start in an eigenstate of ``A`` (eigenindex
selectable); :func:`make_gate_task` computes the matching target state from
the effective drift (plus pulse) so the error measures all refer to the same
gate.

Conventions: the bound is evaluated in the *factored* form
``(t eta^2 / 2 gamma) (opnorm(B)^2 + opnorm(B^2))`` where ``B`` is the bare
coupling operator.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import opcore
from .errors import RequiresNoPulse, ValidationError
from .liouville import (ControlPulse, DissipativeCoupling, _a_eigenspace,
                        _check_pulse_dim, _checked_states, _rates, propagate,
                        propagate_controlled, reduced_s2_generator)
from .opcore import herm_eig, partial_trace, tensor

__all__ = [
    "GateTask", "make_gate_task",
    "exact_error_commuting", "gamma_threshold", "error_upper_bound",
    "empirical_error", "s1_eigenstate", "rotated_frame_marginal",
    "check_margin", "DEFAULT_MARGIN",
]

#: Margin of :func:`gamma_threshold` when none is given.
DEFAULT_MARGIN = 100.0


@dataclass(frozen=True)
class GateTask:
    """A state-preparation task on S2 driven through the coupling.

    ``a_eigenindex`` selects which merged eigenspace of ``A`` the first
    subsystem is prepared in (python indexing into the ascending spectrum;
    the default −1 is the largest eigenvalue).
    """

    psi0: np.ndarray
    target: np.ndarray
    t: float
    coupling: DissipativeCoupling
    pulse: ControlPulse | None = None
    a_eigenindex: int = -1

    def __post_init__(self):
        for name in ("psi0", "target"):
            v = np.asarray(getattr(self, name), dtype=complex).reshape(-1)
            if not abs(np.linalg.norm(v) - 1.0) <= 1e-12:
                raise ValidationError(f"{name} is not normalized to 1e-12")
            if v.shape[0] != self.coupling.d2:
                raise ValidationError(
                    f"{name} lives on dim {v.shape[0]}, S2 has {self.coupling.d2}")
            object.__setattr__(self, name, v)
        if not 0 <= self.t < np.inf:
            raise ValidationError(
                f"duration must be finite and >= 0, got {self.t}")
        if self.pulse is not None:
            _check_pulse_dim(self.pulse, self.coupling)
            total = self.pulse.total_duration
            if abs(total - self.t) > 1e-9 * max(1.0, self.t):
                raise ValidationError(
                    f"pulse duration {total} != task duration {self.t}")


def s1_eigenstate(c: DissipativeCoupling, a_eigenindex: int = -1) -> np.ndarray:
    """A deterministic unit vector in the chosen merged eigenspace of A."""
    p = _a_eigenspace(c, a_eigenindex)[1]
    for k in range(p.shape[0]):
        v = p[:, k]
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n
    raise ValidationError("projector has no support")  # pragma: no cover


def make_gate_task(coupling: DissipativeCoupling, psi0: np.ndarray, t: float,
                   pulse: ControlPulse | None = None,
                   a_eigenindex: int = -1) -> GateTask:
    """Build a task whose target is what the effective dynamics would reach.

    Without a pulse the target is ``exp(-i t lam_a (g + eta sin phi) B) psi0``.
    With a pulse it is the time-ordered product of the per-segment unitaries
    ``exp(-i (lam_a (g + eta sin phi) B + H_k) dt_k)`` applied to ``psi0``.
    """
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    norm = np.linalg.norm(psi0)
    if not 1e-12 <= norm < np.inf:
        raise ValidationError(f"psi0 must be finite and nonzero, norm {norm}")
    psi0 = psi0 / norm
    checked = GateTask(psi0, psi0, t, coupling, pulse, a_eigenindex)
    coeff = reduced_s2_generator(coupling, a_eigenindex)[0]
    if pulse is None:
        u = opcore.expm(coupling.B, -1j * t * coeff)
    else:
        u = np.eye(coupling.d2, dtype=complex)
        for k, (dur, _) in enumerate(pulse.segments):
            hk = coeff * coupling.B + pulse.segment_hamiltonian(k)
            u = opcore.expm(hk, -1j * dur) @ u
    return dataclasses.replace(checked, target=u @ psi0)


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def exact_error_commuting(task: GateTask) -> float:
    """Closed-form fidelity error for the commuting (pulse-free) case.

    With the target expanded over the merged eigenspaces of ``B`` with
    weights ``w_n``, the error is ``1 − sum_{n,m} w_n w_m exp(t Re R_nm)``
    with ``t Re R_nm = −(t eta^2 / 2 gamma)(lam_n − lam_m)^2``, ``R`` the
    rates of the jump's part in ``B``, ``c.jump(0, lam)``.  Valid when the
    task's target was generated from ``psi0`` by the drift.
    """
    if task.pulse is not None:
        raise RequiresNoPulse("closed form requires a pulse-free task")
    c = task.coupling
    if c.gamma <= 0:
        raise ValidationError("closed form needs gamma > 0")
    dec = herm_eig(c.B)
    w = np.array([np.real(np.vdot(task.target, p @ task.target))
                  for p in dec.projectors])
    return float(1.0 - w @ np.exp(
        task.t * _rates(c.jump(0.0, dec.eigenvalues)).real) @ w)


def check_margin(margin: float) -> float:
    """The threshold margin must be a positive finite number, not a bool."""
    if isinstance(margin, (bool, np.bool_)) or not (np.isfinite(margin)
                                                     and margin > 0):
        raise ValidationError(
            f"margin must be positive and finite, got {margin}")
    return float(margin)


def gamma_threshold(task: GateTask, margin: float = DEFAULT_MARGIN) -> float:
    """Damping rate above which the dissipative error is margin-suppressed.

    ``margin * eta^2 * (t/2) * max_{n != m} (lam_n − lam_m)^2`` over the
    merged spectrum of ``B``; zero when the spectrum has a single value.
    ``margin`` must pass :func:`check_margin`.
    """
    margin = check_margin(margin)
    c = task.coupling
    lam = herm_eig(c.B).eigenvalues
    max_gap = float(lam[-1] - lam[0])   # ascending spectrum
    return float(margin * c.eta ** 2 * (task.t / 2.0) * max_gap ** 2)


def error_upper_bound(task: GateTask) -> float:
    """Bound ``(t eta^2 / 2 gamma)(opnorm(B)^2 + opnorm(B^2))``.

    Holds for pulsed tasks too (the pulse drops out of the bound).  Both
    norm terms are computed as printed even though they coincide for
    Hermitian ``B``; the value may exceed 1, in which case it is vacuous
    but still returned.
    """
    c = task.coupling
    if c.gamma <= 0:
        raise ValidationError("bound needs gamma > 0")
    bnorm = float(np.max(np.abs(np.linalg.eigvalsh(c.B))))
    b2norm = float(np.max(np.abs(np.linalg.eigvalsh(c.B @ c.B))))
    return float(task.t * c.eta ** 2 / (2 * c.gamma) * (bnorm ** 2 + b2norm))


# --------------------------------------------------------------------------
# simulation
# --------------------------------------------------------------------------

def empirical_error(task: GateTask) -> float:
    """``1 − <target| rho2(t) |target>`` from full finite-gamma propagation.

    S1 is prepared in the task's eigenstate of ``A``; the joint state is
    propagated under the full generator (with the pulse if present) and the
    fidelity is read off the S2 marginal.
    """
    c = task.coupling
    a_vec = s1_eigenstate(c, task.a_eigenindex)
    rho0 = tensor([np.outer(a_vec, a_vec.conj()),
                   np.outer(task.psi0, task.psi0.conj())])
    if task.pulse is None:
        rho = propagate(c, rho0, task.t)
    else:
        rho = propagate_controlled(c, task.pulse, rho0)
    rho2 = partial_trace(rho, (c.d1, c.d2), [1])
    fid = float(np.real(np.vdot(task.target, rho2 @ task.target)))
    return 1.0 - fid


def rotated_frame_marginal(task: GateTask, substeps: int = 200
                           ) -> tuple[np.ndarray, np.ndarray]:
    """S2 marginal propagated in the frame co-rotating with the pulse.

    In that frame the control commutator disappears and the jump becomes
    time-dependent, ``L(t) = sqrt(gamma) (A1 − i gamma^{-1} Btilde2(t))``
    with ``Btilde(t) = V(t)† (eta B) V(t)`` and ``V`` the accumulated control
    unitary.  S1 starts in an eigenstate of ``A`` with eigenvalue ``lam``
    and stays there, so S2 evolves alone under the jump
    ``sqrt(gamma) (lam − i gamma^{-1} Btilde(t))``.  The time dependence is
    handled by midpoint-frozen substeps (the exponential-midpoint rule).
    The jump at a midpoint ``V`` is ``V† M V``, ``M = c.jump(lam, B)``, so a
    substep is ``rho ↦ V⁻¹ E(V rho V†) V⁻ᴴ`` with ``E = exp(tau D[M])``,
    which in ``B``'s eigenbasis multiplies each entry by ``exp(tau R)``
    (:func:`liouville._rates`); no superoperator is formed.
    :func:`propagate`'s state checks run on the stack of every substep's
    state.  Returns ``(rho2_rotated, V_total)``; undoing the rotation on the
    lab-frame marginal must reproduce ``rho2_rotated`` (a consistency check
    on the rotating-frame construction used for pulsed targets).
    ``substeps`` must be a positive ``int`` (:class:`ValidationError`).
    """
    if (isinstance(substeps, bool)
            or not isinstance(substeps, (int, np.integer)) or substeps < 1):
        raise ValidationError(
            f"substeps must be a positive integer, got {substeps!r}")
    c = task.coupling
    if task.pulse is None:
        raise ValidationError("rotated-frame route is for pulsed tasks")
    if c.g != 0:
        raise ValidationError("rotated-frame route assumes g == 0")
    lam = _a_eigenspace(c, task.a_eigenindex)[0]
    d = c.d2
    b, u = np.linalg.eigh(c.B)
    rates = _rates(c.jump(lam, b) if c.gamma > 0 else np.zeros(d))
    rho = np.outer(task.psi0, task.psi0.conj())
    v = np.eye(d, dtype=complex)
    for k, (dur, _) in enumerate(task.pulse.segments):
        # V(s) = Q exp(-i s w) Qᴴ V for the segment Hamiltonian Q diag(w) Qᴴ
        w, q = np.linalg.eigh(task.pulse.segment_hamiltonian(k))
        tau = dur / substeps
        phases = np.exp(-1j * np.outer(tau * (np.arange(substeps) + 0.5), w))
        w_mid = u.conj().T @ (q * phases[:, None, :]) @ (q.conj().T @ v)
        step = np.exp(tau * rates)
        states = np.empty((substeps + 1, d, d), dtype=complex)
        states[0] = rho
        # W⁻¹ (not Wᴴ) undoes W exactly; Wᴴ's rounding would accumulate
        for n, (wn, wi) in enumerate(zip(w_mid, np.linalg.inv(w_mid))):
            x = step * (wn @ states[n] @ wn.conj().T)
            states[n + 1] = wi @ x @ wi.conj().T
        # a copy: a view would keep every substep's state alive
        rho = _checked_states(states[:-1], states[1:])[-1].copy()
        v = (q * np.exp(-1j * dur * w)) @ (q.conj().T @ v)
    return rho, v
