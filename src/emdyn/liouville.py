"""Master-equation builders and propagators for the two-party dissipative
coupling, its reduced one-sided generators, and the cascaded (uni-directional)
form, with optional piecewise-constant control Hamiltonians on the second
subsystem.

The central object is a :class:`DissipativeCoupling` holding Hermitian
operators ``A`` (on S1) and ``B`` (on S2) together with the rates
``gamma``, ``eta``, the phase ``phi`` and the coherent strength ``g``.  The
non-local jump operator is::

    L = sqrt(gamma) * (A ⊗ 1  −  (eta/gamma) e^{i phi} 1 ⊗ B)

and the full generator can be built either directly as ``D[L]`` or in the
expanded four-term form; the two agree entrywise (a consistency theorem that
the test suite checks to 1e-12).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import opcore
from .errors import (BadEigenindex, DimMismatch, NonPhysicalResult,
                     NotDensityMatrix, NotHermitian, NumericalError,
                     ValidationError)
from .opcore import (HilbertSpace, check_hermitian, dissipator_superop,
                     hamiltonian_superop, herm_eig, tensor)

__all__ = [
    "DissipativeCoupling", "ControlPulse", "MasterEquation",
    "build_full_generator", "expanded_generator",
    "reduced_s2_generator", "reduced_s1_generator", "cascaded_generator",
    "propagate", "propagate_controlled",
]


@dataclass(frozen=True)
class DissipativeCoupling:
    """Non-local dissipative coupling between subsystems S1 and S2.

    ``eta >= gamma`` is outside the regime the effective descriptions are
    aimed at; it is allowed but flagged with a warning.  ``gamma == 0`` is
    accepted only together with ``eta == 0`` (purely coherent coupling).
    """

    A: np.ndarray
    B: np.ndarray
    gamma: float
    eta: float = 0.0
    phi: float = 0.0
    g: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "A", check_hermitian(self.A, "A"))
        object.__setattr__(self, "B", check_hermitian(self.B, "B"))
        if self.gamma < 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if self.eta < 0:
            raise ValidationError(f"eta must be >= 0, got {self.eta}")
        if self.gamma == 0 and self.eta != 0:
            raise ValidationError("gamma == 0 requires eta == 0")
        if self.gamma > 0 and self.eta >= self.gamma:
            warnings.warn(
                f"eta={self.eta} >= gamma={self.gamma}: outside the strong-"
                "damping regime; results are exact but the effective "
                "descriptions may be poor", stacklevel=2)

    # -- geometry -----------------------------------------------------
    @property
    def d1(self) -> int:
        return self.A.shape[0]

    @property
    def d2(self) -> int:
        return self.B.shape[0]

    @property
    def space(self) -> HilbertSpace:
        return HilbertSpace((self.d1, self.d2))

    @property
    def eta_exceeds_gamma(self) -> bool:
        return self.gamma > 0 and self.eta >= self.gamma

    # -- embedded operators -------------------------------------------
    def a1(self) -> np.ndarray:
        """``A`` embedded on the joint space."""
        return tensor([self.A, np.eye(self.d2)])

    def b2(self) -> np.ndarray:
        """``B`` embedded on the joint space."""
        return tensor([np.eye(self.d1), self.B])

    def jump_operator(self) -> np.ndarray:
        """``sqrt(gamma) (A1 − (eta/gamma) e^{i phi} B2)``."""
        if self.gamma == 0:
            raise ValidationError("jump operator undefined for gamma == 0")
        r = self.eta / self.gamma
        return np.sqrt(self.gamma) * (
            self.a1() - r * np.exp(1j * self.phi) * self.b2())

    def coherent_hamiltonian(self) -> np.ndarray:
        """``g * A1 B2`` (the coherent two-body interaction)."""
        return self.g * (self.a1() @ self.b2())

    def drift(self, lam, on: int = 2):
        """Drift ``lam (g ± eta sin phi)`` of a reduced one-sided generator.

        ``on=2`` gives the S2 drift for S1 in an eigenspace of ``A`` with
        eigenvalue ``lam`` (``+``); ``on=1`` gives the S1 drift for S2 in an
        eigenspace of ``B`` (``−``).  ``lam`` may be an array.
        """
        if on not in (1, 2):
            raise ValidationError(f"subsystem must be 1 or 2, got {on}")
        sign = 1.0 if on == 2 else -1.0
        return lam * (self.g + sign * self.eta * np.sin(self.phi))


@dataclass(frozen=True)
class ControlPulse:
    """Piecewise-constant control on S2: ``H(t) = sum_k f_k(t) H_k``.

    ``segments`` is a list of ``(duration, coefficients)`` pairs; during each
    segment the control Hamiltonian is the fixed linear combination
    ``sum_i coefficients[i] * hamiltonians[i]``.
    """

    segments: tuple[tuple[float, tuple[float, ...]], ...]
    hamiltonians: tuple[np.ndarray, ...]

    def __post_init__(self):
        hams = tuple(check_hermitian(h, f"H_{i}")
                     for i, h in enumerate(self.hamiltonians))
        object.__setattr__(self, "hamiltonians", hams)
        segs = []
        for dur, coeffs in self.segments:
            dur = float(dur)
            coeffs = tuple(float(c) for c in coeffs)
            if dur <= 0:
                raise ValidationError(f"segment duration must be > 0, got {dur}")
            if len(coeffs) != len(hams):
                raise ValidationError(
                    f"coefficient vector length {len(coeffs)} != "
                    f"{len(hams)} control Hamiltonians")
            segs.append((dur, coeffs))
        object.__setattr__(self, "segments", tuple(segs))

    @property
    def total_duration(self) -> float:
        return sum(dur for dur, _ in self.segments)

    def segment_hamiltonian(self, k: int) -> np.ndarray:
        _, coeffs = self.segments[k]
        h = np.zeros_like(self.hamiltonians[0])
        for c, hk in zip(coeffs, self.hamiltonians):
            h = h + c * hk
        return h


@dataclass(frozen=True)
class MasterEquation:
    """Hamiltonian plus jump operators with rates, on a fixed space.

    :meth:`generator` assembles the dense row-vectorized d²×d² generator.
    :func:`propagate` takes the model itself and never forms it: it
    evolves the exact invariant blocks that the operators' zeros give,
    each from its own small generator.
    """

    hamiltonian: np.ndarray
    jumps: tuple[tuple[np.ndarray, float], ...]
    space: HilbertSpace

    def __post_init__(self):
        d = self.space.total_dim
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.shape != (d, d):
            raise DimMismatch(f"Hamiltonian shape {h.shape} != ({d}, {d})")
        object.__setattr__(self, "hamiltonian", h)
        jumps = []
        for op, rate in self.jumps:
            op = np.asarray(op, dtype=complex)
            if op.shape != (d, d):
                raise DimMismatch(f"jump shape {op.shape} != ({d}, {d})")
            if rate < 0:
                raise ValidationError(f"jump rate must be >= 0, got {rate}")
            jumps.append((op, float(rate)))
        object.__setattr__(self, "jumps", tuple(jumps))

    def generator(self) -> np.ndarray:
        h = self.hamiltonian
        return opcore._superop(h, h, [(op, op, r) for op, r in self.jumps])


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

def build_full_generator(c: DissipativeCoupling,
                         include_coherent: bool = True) -> np.ndarray:
    """Full generator built directly from the jump operator.

    Returns ``D[L]`` plus, when ``include_coherent``, the commutator part
    ``-i [g A1 B2, .]``.  ``gamma == 0`` (with ``eta == 0``) degenerates to
    the purely coherent generator.
    """
    if c.gamma == 0:
        n = (c.d1 * c.d2) ** 2
        gen = np.zeros((n, n), dtype=complex)
    else:
        gen = dissipator_superop(c.jump_operator())
    if include_coherent and c.g != 0:
        gen = gen + hamiltonian_superop(c.coherent_hamiltonian())
    return gen


def expanded_generator(c: DissipativeCoupling,
                       include_coherent: bool = True) -> np.ndarray:
    """Full generator in expanded four-term form.

    ``gamma D[A1] + (eta^2/gamma) D[B2] − K + eta cos(phi) {A1 B2, .}`` with
    the exchange term ``K(rho) = eta (e^{i phi} B2 rho A1 + e^{-i phi} A1 rho
    B2)``.  Agrees entrywise with :func:`build_full_generator`; keeping both
    routes alive is deliberate (they cross-check each other).
    """
    A1, B2 = c.a1(), c.b2()
    D = A1.shape[0]
    eye = np.eye(D)
    gen = np.zeros((D * D, D * D), dtype=complex)
    if c.gamma > 0:
        gen = gen + c.gamma * dissipator_superop(A1)
        gen = gen + (c.eta ** 2 / c.gamma) * dissipator_superop(B2)
    if c.eta != 0:
        # K(rho) = eta (e^{i phi} B2 rho A1 + e^{-i phi} A1 rho B2)
        k = c.eta * (np.exp(1j * c.phi) * np.kron(B2, A1.T)
                     + np.exp(-1j * c.phi) * np.kron(A1, B2.T))
        gen = gen - k
        # eta cos(phi) {A1 B2, rho}
        ab = A1 @ B2
        gen = gen + c.eta * np.cos(c.phi) * (np.kron(ab, eye) + np.kron(eye, ab.T))
    if include_coherent and c.g != 0:
        gen = gen + hamiltonian_superop(c.coherent_hamiltonian())
    return gen


def reduced_s2_generator(c: DissipativeCoupling, j: int) -> tuple[float, float]:
    """Reduced S2 generator coefficients for S1 in eigenspace ``j`` of A.

    Returns ``(drift, rate)`` where the S2 marginal obeys
    ``d rho2/dt = -i drift [B, rho2] + rate D[B] rho2`` with
    ``drift = lam_j (g + eta sin phi)`` and ``rate = eta^2/gamma``.
    Eigen-index ``j`` addresses the merged ascending spectrum of ``A``.
    """
    dec = herm_eig(c.A)
    if not (0 <= j < len(dec)):
        raise BadEigenindex(
            f"eigenindex {j} out of range for {len(dec)} merged eigenvalues")
    rate = 0.0 if c.eta == 0 else c.eta ** 2 / c.gamma
    return c.drift(float(dec.eigenvalues[j])), rate


def reduced_s1_generator(c: DissipativeCoupling, j: int) -> tuple[float, float]:
    """Reduced S1 generator coefficients for S2 in eigenspace ``j`` of B.

    Same structure as :func:`reduced_s2_generator` with the sign of the
    dissipative contribution flipped: ``drift = lam_j (g − eta sin phi)``,
    ``rate = gamma`` (the dissipator acts with ``A``).
    """
    dec = herm_eig(c.B)
    if not (0 <= j < len(dec)):
        raise BadEigenindex(
            f"eigenindex {j} out of range for {len(dec)} merged eigenvalues")
    return c.drift(float(dec.eigenvalues[j]), on=1), c.gamma


def cascaded_generator(c: DissipativeCoupling) -> np.ndarray:
    """Uni-directional coupling term ``i eta ([A1 rho, B2] + [rho A1, B2])``.

    This is the piece that makes the joint equation look like a cascaded
    (source → target) system at the directionality point ``phi = pi/2``,
    ``eta = g``; the caller is responsible for flagging that regime.
    """
    A1, B2 = c.a1(), c.b2()
    eye = np.eye(A1.shape[0])
    gen = (np.kron(A1, B2.T)              # A1 rho B2
           - np.kron(B2 @ A1, eye)        # B2 A1 rho
           + np.kron(eye, (A1 @ B2).T)    # rho A1 B2
           - np.kron(B2, A1.T))           # B2 rho A1
    return 1j * c.eta * gen


# --------------------------------------------------------------------------
# propagation
# --------------------------------------------------------------------------

def _evolve_coupling(c: DissipativeCoupling, rho0: np.ndarray,
                     t: float) -> np.ndarray:
    """Closed-form ``exp(t G) rho0`` for the coupling's generator ``G``.

    ``L`` and ``g A1 B2`` are both diagonal in the product eigenbasis of
    ``A`` and ``B``, with eigenvalues ``l_k`` and ``h_k``.  There each entry
    evolves on its own: ``rho_kl(t) = exp(t (l_k l_l* − ½|l_k|² − ½|l_l|²
    − i (h_k − h_l))) rho_kl(0)``.  The real part of the rate is written as
    ``−½|l_k − l_l|²`` so that it does not cancel at large gamma.
    """
    a, ua = np.linalg.eigh(c.A)
    b, ub = np.linalg.eigh(c.B)
    u = np.kron(ua, ub)
    l = np.zeros(c.d1 * c.d2, dtype=complex)
    if c.gamma > 0:
        l = (np.sqrt(c.gamma) * a[:, None] - c.eta / np.sqrt(c.gamma)
             * np.exp(1j * c.phi) * b[None, :]).reshape(-1)
    h = c.g * np.outer(a, b).reshape(-1)
    rate = (-0.5 * np.abs(l[:, None] - l[None, :]) ** 2
            + 1j * (np.imag(l[:, None] * l.conj()[None, :])
                    - (h[:, None] - h[None, :])))
    return u @ (np.exp(t * rate) * (u.conj().T @ rho0 @ u)) @ u.conj().T


def _evolve_master_equation(me: MasterEquation, rho0: np.ndarray,
                            t: float) -> np.ndarray:
    """``exp(t G) rho0`` for the model's generator ``G``, block by block.

    ``H`` and the nonzero-rate jumps ``L`` (hence each ``L†L``) are block
    diagonal over the connected components ``I_a`` of their joint nonzero
    pattern, so every component pair is an exact invariant block of ``G``:
    ``rho[I_a, I_b]`` evolves alone under ``_superop(H_aa, H_bb, L_aa,
    L_bb)``, only ``|I_a|·|I_b|`` wide.  Only the pairs ``a ≤ b`` that
    ``rho0`` occupies are evolved: a diagonal pair through
    :func:`opcore.expm_superop_apply` (real basis, Hermiticity check,
    finer split), an off-diagonal pair by one complex ``expm``, with
    ``rho[I_b, I_a] = rho[I_a, I_b]ᴴ``.
    """
    h = me.hamiltonian
    jumps = [(op, r) for op, r in me.jumps if r != 0]
    pattern = h != 0
    for op, _ in jumps:
        pattern |= op != 0
    lab = opcore._components(pattern)
    comps = [np.flatnonzero(lab == c) for c in np.unique(lab)]
    diag = [(h[np.ix_(i, i)], [op[np.ix_(i, i)] for op, _ in jumps])
            for i in comps]
    rates = [r for _, r in jumps]
    rho = np.zeros_like(rho0)
    for a, ia in enumerate(comps):
        for b, ib in enumerate(comps[a:], a):
            blk, tr = np.ix_(ia, ib), np.ix_(ib, ia)
            x = (rho0[blk] + rho0[tr].conj().T) / 2
            if not x.any():
                continue
            (h_a, ls_a), (h_b, ls_b) = diag[a], diag[b]
            gen = opcore._superop(h_a, h_b, zip(ls_a, ls_b, rates))
            if a == b:
                rho[blk] = opcore.expm_superop_apply(gen, x, t)
            else:
                rho[blk] = (opcore.expm(gen, t) @ x.reshape(-1)).reshape(
                    x.shape)
                rho[tr] = rho[blk].conj().T
    return rho


def propagate(model: DissipativeCoupling | MasterEquation | np.ndarray,
              rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve ``rho0`` for time ``t`` and re-validate the result.

    The route follows the type of ``model``:

    * a :class:`DissipativeCoupling` is evolved in closed form in the
      eigenbasis of ``A`` and ``B`` (its full generator, coherent term
      included);
    * a :class:`MasterEquation` is evolved over the exact invariant blocks
      of its generator, each built from the operators' blocks
      (:func:`_evolve_master_equation`), so the d²×d² generator is never
      formed; a non-Hermitian Hamiltonian raises :class:`ValidationError`
      (the generator would not preserve Hermiticity) at every ``t``;
    * a dense row-vectorized generator ``gen`` is evolved as
      ``exp(gen * t)`` in real Hermitian-basis coordinates
      (:func:`opcore.expm_superop_apply`); a ``gen`` that does not preserve
      Hermiticity raises :class:`ValidationError`.

    The complex ``expm`` of the generator is the test oracle for every
    route.

    ``rho0`` must be Hermitian (:class:`NotHermitian` otherwise) with no
    eigenvalue below ``-POSITIVITY_TOL`` (:class:`NotDensityMatrix`
    otherwise), at every ``t``; its trace is kept, not required to be 1.
    Trace and Hermiticity drift beyond 1e-8 raise :class:`NumericalError`;
    small Hermiticity drift is symmetrized away.  Positivity violations
    beyond the global tolerance raise :class:`NonPhysicalResult`.
    """
    if t < 0:
        raise ValidationError(f"propagation time must be >= 0, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    if isinstance(model, DissipativeCoupling):
        evolve, dims = _evolve_coupling, (model.d1, model.d2)
        dims_ok = model.d1 * model.d2 == d
    elif isinstance(model, MasterEquation):
        evolve, dims = _evolve_master_equation, model.space.factor_dims
        dims_ok = model.space.total_dim == d
        if not opcore.is_hermitian(model.hamiltonian):
            raise ValidationError("generator does not preserve Hermiticity")
    else:
        evolve, dims = opcore.expm_superop_apply, np.shape(model)
        dims_ok = dims == (d * d, d * d)
    if not dims_ok:
        raise DimMismatch(
            f"model dims {dims} incompatible with state dim {d}")
    if not opcore.is_hermitian(rho0, 1e-9):
        raise NotHermitian("initial state is not Hermitian")
    try:    # succeeds iff every eigenvalue exceeds -POSITIVITY_TOL
        np.linalg.cholesky(rho0 + opcore.POSITIVITY_TOL * np.eye(d))
    except np.linalg.LinAlgError:
        w0 = np.linalg.eigvalsh(rho0).min()
        raise NotDensityMatrix(
            f"initial state has eigenvalue {w0:.3e}") from None
    if t == 0:
        return rho0.copy()
    rho = evolve(model, rho0, t)
    tr0, tr = rho0.trace().real, rho.trace()
    if abs(tr - tr0) > 1e-8 * max(1.0, abs(tr0)):
        raise NumericalError(f"trace drifted from {tr0} to {tr}")
    herm_drift = np.linalg.norm(rho - rho.conj().T, ord=np.inf)
    if herm_drift > 1e-8 * max(1.0, np.linalg.norm(rho, ord=np.inf)):
        raise NumericalError(f"Hermiticity drift {herm_drift:.3e}")
    rho = (rho + rho.conj().T) / 2
    wmin = np.linalg.eigvalsh(rho).min()
    if wmin < -opcore.POSITIVITY_TOL:
        raise NonPhysicalResult(
            f"propagated state has eigenvalue {wmin:.3e}")
    return rho


def propagate_controlled(c: DissipativeCoupling, pulse: ControlPulse | None,
                         rho0: np.ndarray) -> np.ndarray:
    """Propagate under the full generator plus a piecewise-constant control.

    Each segment evolves with ``build_full_generator(c) - i[1 ⊗ H_seg, .]``
    for its duration; segments are applied in order.  With ``pulse=None``
    this is a no-op returning ``rho0`` (zero total duration).
    """
    rho = np.asarray(rho0, dtype=complex)
    if pulse is None or not pulse.segments:
        return rho.copy()
    base = build_full_generator(c, include_coherent=True)
    eye1 = np.eye(c.d1)
    for k, (dur, _) in enumerate(pulse.segments):
        h2 = pulse.segment_hamiltonian(k)
        if h2.shape[0] != c.d2:
            raise DimMismatch(
                f"control Hamiltonian dim {h2.shape[0]} != S2 dim {c.d2}")
        gen = base + hamiltonian_superop(tensor([eye1, h2]))
        rho = propagate(gen, rho, dur)
    return rho
