"""Master-equation builders and propagators for the two-party dissipative
coupling and its reduced S2 generator, with optional piecewise-constant
control Hamiltonians on the second subsystem.

The central object is a :class:`DissipativeCoupling` holding Hermitian
operators ``A`` (on S1) and ``B`` (on S2) together with the rates
``gamma``, ``eta``, the phase ``phi`` and the coherent strength ``g``.  The
non-local jump operator is::

    L = sqrt(gamma) * (A ⊗ 1  −  (eta/gamma) e^{i phi} 1 ⊗ B)
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import opcore
from .errors import (BadEigenindex, DimMismatch, NonPhysicalResult,
                     NotDensityMatrix, NotHermitian, NumericalError,
                     ValidationError)
from .opcore import HilbertSpace, check_hermitian, herm_eig, tensor

__all__ = [
    "DissipativeCoupling", "ControlPulse", "MasterEquation",
    "reduced_s2_generator",
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
    u = opcore._kron(ua, ub)
    l = np.zeros(c.d1 * c.d2, dtype=complex)
    if c.gamma > 0:
        l = (np.sqrt(c.gamma) * a[:, None] - c.eta / np.sqrt(c.gamma)
             * np.exp(1j * c.phi) * b[None, :]).reshape(-1)
    h = c.g * np.outer(a, b).reshape(-1)
    rate = (-0.5 * np.abs(l[:, None] - l[None, :]) ** 2
            + 1j * (np.imag(l[:, None] * l.conj()[None, :])
                    - (h[:, None] - h[None, :])))
    return u @ (np.exp(t * rate) * (u.conj().T @ rho0 @ u)) @ u.conj().T


def _blocks(pattern: np.ndarray) -> list[np.ndarray]:
    """Index sets ``I_a`` of the connected components of a d×d pattern."""
    lab = opcore._components(pattern)
    return [np.flatnonzero(lab == c) for c in np.unique(lab)]


def _evolve_blocks(comps, block_gens, rho0: np.ndarray,
                   t: float) -> np.ndarray:
    """``exp(t G) rho0`` for a ``G`` with exact invariant blocks ``rho[I_a,
    I_b]`` (``I_a`` in ``comps``), ``block_gens(ia, ib)`` the generators of
    ``rho[ia[n], ib[n]]`` for stacked index sets.  Only the pairs ``a ≤ b``
    that ``rho0`` occupies are evolved, built together per block shape: a
    diagonal pair by :func:`opcore.expm_superop_apply`, an off-diagonal pair
    by one complex ``expm``, with ``rho[I_b, I_a] = rho[I_a, I_b]ᴴ``."""
    rho = np.zeros_like(rho0)
    shapes: dict[tuple[int, int], list] = {}
    for a, ia in enumerate(comps):
        for ib in comps[a:]:
            x = (rho0[np.ix_(ia, ib)] + rho0[np.ix_(ib, ia)].conj().T) / 2
            if x.any():
                shapes.setdefault(x.shape, []).append((ia, ib, x))
    for pairs in shapes.values():
        ias, ibs, xs = zip(*pairs)
        for ia, ib, x, gen in zip(ias, ibs, xs, block_gens(np.array(ias),
                                                            np.array(ibs))):
            blk, tr = np.ix_(ia, ib), np.ix_(ib, ia)
            if ia is ib:
                rho[blk] = opcore.expm_superop_apply(gen, x, t)
            else:
                rho[blk] = (opcore.expm(gen, t) @ x.reshape(-1)).reshape(
                    x.shape)
                rho[tr] = rho[blk].conj().T
    return rho


def _evolve_master_equation(me: MasterEquation, rho0: np.ndarray,
                            t: float) -> np.ndarray:
    """``H`` and the nonzero-rate jumps are block diagonal over the
    components ``I_a`` of their joint nonzero pattern, so ``rho[I_a, I_b]``
    evolves alone under ``_superop(H_aa, H_bb, L_aa, L_bb)``."""
    h = me.hamiltonian
    jumps = [(op, r) for op, r in me.jumps if r != 0]
    pattern = h != 0
    for op, _ in jumps:
        pattern |= op != 0

    def block_gens(ia, ib):
        def sub(op, i):
            return op[i[:, :, None], i[:, None, :]]
        return opcore._superop(sub(h, ia), sub(h, ib),
                               [(sub(op, ia), sub(op, ib), r)
                                for op, r in jumps])

    return _evolve_blocks(_blocks(pattern), block_gens, rho0, t)


def _nonzero(gen: np.ndarray) -> np.ndarray:
    """Flat nonzero indices of a complex array, via its cheaper float view."""
    part = gen.reshape(-1).view(float) != 0
    return np.flatnonzero(part[0::2] | part[1::2])


#: Smallest d whose dense generator is split; below it the real basis finds
#: the same blocks faster (split 1.5–2× slower at d = 4–10, 1.8× faster at 24).
_SPLIT_MIN_DIM = 16


def _evolve_dense(gen: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """``g4 = gen.reshape(d, d, d, d)`` moves ``rho[k, l]`` into ``rho[i, j]``
    only where ``g4[i, j, k, l] != 0``: the components ``I_a`` of the links
    ``i–k`` and ``j–l`` there, read in one scan with the entries to check,
    are exact invariant blocks, generated by ``g4[I_a, I_b, I_a, I_b]``.
    One component goes whole to :func:`opcore.expm_superop_apply` instead."""
    d = rho0.shape[0]
    g4 = gen.reshape(d, d, d, d)
    comps = []      # a nonzero g4[:, 0, :, 0] links every i–k: one component
    if d >= _SPLIT_MIN_DIM and not g4[:, 0, :, 0].all():
        nz = i, j, k, l = np.unravel_index(_nonzero(gen), g4.shape)
        links = np.zeros((d, d), dtype=bool)
        links[i, k] = links[j, l] = True
        comps = _blocks(links)
    if len(comps) < 2:
        return opcore.expm_superop_apply(gen, rho0, t)
    _check_generator(gen, d, nz)

    def block_gens(ia, ib):
        return [g4[np.ix_(x, y, x, y)].reshape(len(x) * len(y), -1)
                for x, y in zip(ia, ib)]

    return _evolve_blocks(comps, block_gens, rho0, t)


def _check_generator(gen: np.ndarray, d: int, nz=None) -> None:
    """Raise :class:`ValidationError` unless the d²×d² ``gen`` preserves
    Hermiticity: ``g4[i, j, k, l] = conj(g4[j, i, l, k])`` at every nonzero
    entry (``nz = (i, j, k, l)``, found here when not given), to 1e-10
    times ``max(1, largest entry)`` (the scale of
    :func:`opcore._real_generator`)."""
    g4 = gen.reshape(d, d, d, d)
    if nz is None:
        nz = np.unravel_index(_nonzero(gen), g4.shape)
    i, j, k, l = nz
    val = g4[i, j, k, l]
    if np.abs(val - g4[j, i, l, k].conj()).max(initial=0.0) > 1e-10 * max(
            1.0, np.abs(val).max(initial=0.0)):
        raise ValidationError("generator does not preserve Hermiticity")


def _checked_states(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """``after``, made exactly Hermitian, if it passes the checks of an
    evolution from ``before`` (states or stacks ``(..., d, d)`` of them):
    trace and Hermiticity drift beyond 1e-8 raise :class:`NumericalError`,
    an eigenvalue below ``-POSITIVITY_TOL`` :class:`NonPhysicalResult`."""
    tr0 = before.diagonal(0, -2, -1).sum(-1).real
    tr = after.diagonal(0, -2, -1).sum(-1)
    bad = np.abs(tr - tr0) > 1e-8 * np.maximum(1.0, np.abs(tr0))
    if bad.any():
        k = np.argmax(bad)
        raise NumericalError(
            f"trace drifted from {tr0.flat[k]} to {tr.flat[k]}")
    adj = after.conj().swapaxes(-1, -2)
    drift = np.abs(after - adj).sum(-1).max(-1)
    if (drift > 1e-8 * np.maximum(1.0, np.abs(after).sum(-1).max(-1))).any():
        raise NumericalError(f"Hermiticity drift {drift.max():.3e}")
    rho = (after + adj) / 2
    wmin = np.linalg.eigvalsh(rho).min()
    if wmin < -opcore.POSITIVITY_TOL:
        raise NonPhysicalResult(
            f"propagated state has eigenvalue {wmin:.3e}")
    return rho


def propagate(model: DissipativeCoupling | MasterEquation | np.ndarray,
              rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve ``rho0`` for time ``t`` and re-validate the result.

    A :class:`DissipativeCoupling` is evolved in closed form in the
    eigenbasis of ``A`` and ``B`` (its full generator, coherent term
    included).  A :class:`MasterEquation` and a dense row-vectorized
    generator ``gen`` are evolved over the exact invariant blocks
    ``rho[I_a, I_b]`` of the generator (:func:`_evolve_blocks`), built from
    the model's operator blocks, all occupied pairs of one block shape in
    one batched assembly (the d²×d² generator is never formed), or sliced
    out of ``gen`` by its nonzero pattern, read in one scan that also serves
    the Hermiticity check; below ``d = _SPLIT_MIN_DIM``, or unsplit, ``gen``
    goes whole to the real-basis :func:`opcore.expm_superop_apply`.  A
    non-Hermitian Hamiltonian, or a ``gen`` that does not preserve
    Hermiticity in any block, raises :class:`ValidationError` at every
    ``t``.  The complex ``expm`` of the
    generator is the test oracle for every route.

    ``rho0`` must be Hermitian (:class:`NotHermitian` otherwise) with no
    eigenvalue below ``-POSITIVITY_TOL`` (:class:`NotDensityMatrix`
    otherwise), at every ``t``; its trace is kept, not required to be 1.
    The result passes the checks of :func:`_checked_states`.
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
        model = np.asarray(model, dtype=complex)
        evolve, dims = _evolve_dense, model.shape
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
    return _checked_states(rho0, evolve(model, rho0, t))


def propagate_controlled(c: DissipativeCoupling, pulse: ControlPulse | None,
                         rho0: np.ndarray) -> np.ndarray:
    """Propagate under the full generator plus a piecewise-constant control.

    Each segment evolves the :class:`MasterEquation` with Hamiltonian
    ``g A1 B2 + 1 ⊗ H_seg`` and jump ``L`` (none when ``gamma == 0``) for
    its duration; segments are applied in order.  With ``pulse=None`` this
    is a no-op returning ``rho0`` (zero total duration).
    """
    rho = np.asarray(rho0, dtype=complex)
    if pulse is None or not pulse.segments:
        return rho.copy()
    h = c.coherent_hamiltonian()
    jumps = ((c.jump_operator(), 1.0),) if c.gamma > 0 else ()
    eye1 = np.eye(c.d1)
    for k, (dur, _) in enumerate(pulse.segments):
        h2 = pulse.segment_hamiltonian(k)
        if h2.shape[0] != c.d2:
            raise DimMismatch(
                f"control Hamiltonian dim {h2.shape[0]} != S2 dim {c.d2}")
        me = MasterEquation(h + tensor([eye1, h2]), jumps, c.space)
        rho = propagate(me, rho, dur)
    return rho
