"""Damped-auxiliary-mode engineering: generic adiabatic elimination, the
three-qubit ring-modulator effective model, pump-tone planning for the
dissipative and coherent variants, and full-model-vs-effective-model
validation.

All frequencies and rates are in one arbitrary angular-frequency unit; fluxes
are in units of the reduced flux quantum ``phi0``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import opcore
from .errors import (DispersiveViolation, NegativeToneFrequency,
                     NumericalError, TruncationTooSmall, ValidationError,
                     ZeroPrimaryCoupling)
from .liouville import DissipativeCoupling, MasterEquation, propagate
from .opcore import partial_trace, tensor, trace_distance

__all__ = [
    "BosonicMode", "CircuitParams", "EffectiveCoupling", "ToneSet",
    "SystemBathParams", "lowering", "quadrature", "fock_vacuum",
    "adiabatic_eliminate", "build_system_bath", "validate_elimination",
    "effective_coupling_constants", "plan_dissipative_tones",
    "plan_coherent_tones", "build_jrm_effective",
    "strong_damping_condition", "nonreciprocity_conditions",
    "coherent_three_body",
]

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_DISPERSIVE_LIMIT = 0.3


def _check_n_max(n_max) -> None:
    """A Fock cutoff is an integer (a NumPy one too, but no ``bool``) >= 2."""
    if (isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer))
            or n_max < 2):
        raise ValidationError(f"n_max must be an integer >= 2, got {n_max!r}")


@dataclass(frozen=True)
class BosonicMode:
    """Truncated damped mode: Fock cutoff, frequency, damping rate."""

    n_max: int
    omega_z: float
    gamma_z: float

    def __post_init__(self):
        _check_n_max(self.n_max)
        if not 0 < self.gamma_z < np.inf:
            raise ValidationError(f"gamma_z must be > 0, got {self.gamma_z}")
        if not -np.inf < self.omega_z < np.inf:
            raise ValidationError(f"omega_z must be finite, got {self.omega_z}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class CircuitParams:
    """Parameters of the three-qubit + damped-mode circuit model.

    ``lambda_nz`` are the dispersive ratios of qubit n to the z mode; values
    above 0.3 are flagged (the perturbative model is then unreliable).
    ``Omega`` are the shifted qubit frequencies.  The mode object carries the
    damping rate and Fock truncation.
    """

    E_J: float
    phi_ext: float
    phi0: float
    phi_z0: float
    alpha_x: float
    alpha_y: float
    lambda_1z: float
    lambda_2z: float
    lambda_3z: float
    Omega: tuple[float, float, float]
    mode: BosonicMode

    def __post_init__(self):
        object.__setattr__(self, "Omega", tuple(float(w) for w in self.Omega))
        if len(self.Omega) != 3 or not all(0 < w < np.inf for w in self.Omega):
            raise ValidationError(f"Omega must be 3 positive frequencies, got {self.Omega}")
        for name in ("E_J", "phi_ext", "phi0", "phi_z0", "alpha_x", "alpha_y",
                     "lambda_1z", "lambda_2z", "lambda_3z"):
            if not -np.inf < getattr(self, name) < np.inf:
                raise ValidationError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.phi0 <= 0:
            raise ValidationError("phi0 must be positive")
        if not self.dispersive_ok:
            warnings.warn(
                "a dispersive ratio exceeds 0.3; the effective model is "
                "outside its validity range", stacklevel=2)

    @property
    def lambdas(self) -> tuple[float, float, float]:
        return (self.lambda_1z, self.lambda_2z, self.lambda_3z)

    @property
    def dispersive_ok(self) -> bool:
        return all(abs(l) <= _DISPERSIVE_LIMIT for l in self.lambdas)


@dataclass(frozen=True)
class EffectiveCoupling:
    """Derived coupling constants of the eliminated-mode description."""

    Lambda: float
    beta: float
    gamma_eff: float
    eta_over_gamma: float


@dataclass(frozen=True)
class ToneSet:
    """Pump tones on the two drive lines plus the derived mixing products.

    ``derived`` lists the pairwise sum/difference frequencies in channel
    order (m = 1, 2, 3; sum before difference).  For the damped-mode plan all
    six are present; the qubit-drive (coherent) plan drops the exact
    zero-frequency member by construction.  ``phase_sum`` / ``phase_diff``
    are the per-channel phases of the sum and difference products.
    """

    x_tones: tuple[tuple[float, float], ...]
    y_tones: tuple[tuple[float, float], ...]
    derived: tuple[float, ...]
    phase_sum: tuple[float, float, float]
    phase_diff: tuple[float, float, float]
    kind: str
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class SystemBathParams:
    """Couplings of the generic system-bath model with a damped mode."""

    lambda1: float
    lambda2: float
    gamma_a: float
    n_max: int = 6

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            if not -np.inf < getattr(self, name) < np.inf:
                raise ValidationError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.gamma_a < np.inf:
            raise ValidationError(f"gamma_a must be > 0, got {self.gamma_a}")
        _check_n_max(self.n_max)


# --------------------------------------------------------------------------
# mode helpers
# --------------------------------------------------------------------------

def lowering(n_max: int) -> np.ndarray:
    """Bosonic lowering operator on ``n_max + 1`` Fock states."""
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)


def quadrature(a: np.ndarray, phase: float) -> np.ndarray:
    """``X_phase = a e^{-i phase} + a† e^{i phase}``."""
    return np.exp(-1j * phase) * a + np.exp(1j * phase) * a.conj().T


def fock_vacuum(dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


# --------------------------------------------------------------------------
# generic elimination
# --------------------------------------------------------------------------

def adiabatic_eliminate(lambda1: float, lambda2: float, phi1: float,
                        phi2: float, gamma_a: float, A: np.ndarray,
                        B: np.ndarray) -> DissipativeCoupling:
    """The coupling left after eliminating the damped mode.

    Its jump is ``L = (2 lambda1 / sqrt(gamma_a)) [A ⊗ 1 + (lambda2/lambda1)
    e^{-i(phi1 − phi2)} 1 ⊗ B]`` up to a global sign, which ``D[L]`` does
    not see: the coupling with ``gamma = 4 lambda1²/gamma_a``, ``eta = 4
    |lambda1 lambda2|/gamma_a`` and ``phi = phi2 − phi1 + pi``, or ``phi2 −
    phi1`` when ``lambda2/lambda1 < 0``.  ``A`` and ``B`` must be Hermitian.
    """
    if not 0 < gamma_a < np.inf:
        raise ValidationError(f"gamma_a must be > 0, got {gamma_a}")
    if lambda1 == 0:
        raise ZeroPrimaryCoupling("lambda1 must be nonzero to eliminate")
    flip = np.pi if lambda1 * lambda2 >= 0 else 0.0
    return DissipativeCoupling(A, B, gamma=4 * (lambda1 * lambda1) / gamma_a,
                               eta=4 * abs(lambda1 * lambda2) / gamma_a,
                               phi=phi2 - phi1 + flip)


def build_system_bath(params: SystemBathParams, A: np.ndarray, B: np.ndarray,
                      phases: tuple[float, float]) -> MasterEquation:
    """Resonant system-bath model: two quadrature couplings to a damped mode.

    ``H = lambda1 X_{phi1} A1 + lambda2 X_{phi2} B2`` with damping
    ``gamma_a D[a]``, in the frame resonant with the mode.  Raises
    :class:`TruncationTooSmall` when the driven occupation estimate exceeds
    half the Fock cutoff.
    """
    phi1, phi2 = phases
    A = opcore.check_hermitian(A, "A")
    B = opcore.check_hermitian(B, "B")
    a_norm = float(np.max(np.abs(np.linalg.eigvalsh(A))))
    b_norm = float(np.max(np.abs(np.linalg.eigvalsh(B))))
    drive = (2 * (abs(params.lambda1) * a_norm + abs(params.lambda2) * b_norm)
             / params.gamma_a)
    occ = drive * drive
    if occ > params.n_max / 2:
        raise TruncationTooSmall(
            f"driven occupation estimate {occ:.2f} exceeds n_max/2 = "
            f"{params.n_max / 2}")
    d1, d2 = A.shape[0], B.shape[0]
    a = lowering(params.n_max)
    h = (params.lambda1 * tensor([A, np.eye(d2), quadrature(a, phi1)])
         + params.lambda2 * tensor([np.eye(d1), B, quadrature(a, phi2)]))
    jump = tensor([np.eye(d1), np.eye(d2), a])
    return MasterEquation(h, ((jump, params.gamma_a),),
                          (d1, d2, params.n_max + 1))


def validate_elimination(full: MasterEquation, eliminated, rho0: np.ndarray,
                         t: float) -> float:
    """Trace distance between full and eliminated dynamics at time ``t``.

    ``full`` lives on system ⊗ mode (mode last, initialized in vacuum);
    ``eliminated``, any model :func:`propagate` takes (such as the coupling
    of :func:`adiabatic_eliminate`, which it evolves in closed form), and
    ``rho0`` live on the system alone.  The distance shrinks roughly like
    ``1/gamma_a`` as the mode damping grows.  :func:`propagate` evolves
    ``full`` in the joint eigenbasis of its system parts when they commute
    (as for the couplings ``A ⊗ 1`` and ``1 ⊗ B`` of
    :func:`build_system_bath`), one block per system matrix element.
    """
    *sys_dims, dm = full.dims
    d_sys = int(np.prod(sys_dims))
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (d_sys, d_sys):
        raise ValidationError(
            f"rho0 shape {rho0.shape} does not match system dims {sys_dims}")
    rho_full = propagate(full, tensor([rho0, fock_vacuum(dm)]), t)
    sys_marginal = partial_trace(rho_full, full.dims, range(len(sys_dims)))
    return trace_distance(sys_marginal, propagate(eliminated, rho0, t))


# --------------------------------------------------------------------------
# circuit-level constants and tone planning
# --------------------------------------------------------------------------

def effective_coupling_constants(params: CircuitParams) -> EffectiveCoupling:
    """Mixing amplitude, three-body coupling, and effective rates.

    ``Lambda = E_J a'_x a'_y sin(phi_ext/phi0) phi_z0^2 / (4 phi0^2)`` (the
    flux bias is normally ``pi/4 * phi0``, making the sine 1/sqrt(2)),
    ``beta = lambda_2z lambda_3z phi_z0 / (2 phi0)``,
    ``gamma_eff = Lambda^2 lambda_1z^2 / (4 gamma_z)`` and
    ``eta/gamma = beta / lambda_1z``.  ``lambda_1z == 0`` raises
    :class:`ZeroPrimaryCoupling`, a constant that overflows
    :class:`NumericalError`.
    """
    if params.lambda_1z == 0:
        raise ZeroPrimaryCoupling("lambda_1z must be nonzero")
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        lam = params.E_J * params.alpha_x * params.alpha_y \
            * np.sin(params.phi_ext / params.phi0) \
            * (params.phi_z0 * params.phi_z0) \
            / (4 * (params.phi0 * params.phi0))
        beta = params.lambda_2z * params.lambda_3z * params.phi_z0 \
            / (2 * params.phi0)
        gamma_eff = (lam * params.lambda_1z) ** 2 / (4 * params.mode.gamma_z)
        ec = EffectiveCoupling(float(lam), float(beta), float(gamma_eff),
                               float(beta / params.lambda_1z))
    if not np.isfinite(list(vars(ec).values())).all():
        raise NumericalError(f"{ec} is not finite")
    return ec


def _y_tones(Omega, phi_y) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Both plans' y tones: the frequencies ``Omega1``, ``Omega2 + Omega3``
    and ``Omega2 − Omega3``, and their phases ``phi_y``, checked: each is
    three finite numbers (:class:`ValidationError`)."""
    checked = [tuple(float(v) for v in x) for x in (Omega, phi_y)]
    for name, v in zip(("Omega", "phi_y"), checked):
        if len(v) != 3 or not np.isfinite(v).all():
            raise ValidationError(f"{name} must be 3 finite numbers, got {v}")
    (w1, w2, w3), phi_y = checked
    if min(w1, w2, w3) <= 0:
        raise ValidationError(f"Omega must be positive, got {Omega}")
    if w2 <= w3:
        raise NegativeToneFrequency(
            f"difference tone Omega2 − Omega3 = {w2 - w3} is not positive")
    return (w1, w2 + w3, w2 - w3), phi_y


def plan_dissipative_tones(Omega, omega_z: float, phi_x1: float, phi_y,
                           collisions=None) -> ToneSet:
    """Pump plan driving the damped mode: one x tone, three y tones.

    The y tones sit at ``Omega1``, ``Omega2 + Omega3`` and ``Omega2 −
    Omega3``; mixing with the x tone at ``omega_z`` produces the six products
    ``omega_z ± {those}``.  Per-channel phases come out as
    ``phi_y[m] ± phi_x1``; with ``phi_x1 = 0`` sum and difference phases
    coincide, which is what the effective-model builder requires.
    ``omega_z`` and ``phi_x1`` must be finite (:class:`ValidationError`).
    """
    y_freqs, phi_y = _y_tones(Omega, phi_y)
    if not np.isfinite([omega_z, phi_x1]).all():
        raise ValidationError(f"omega_z and phi_x1 must be finite, got "
                              f"{omega_z} and {phi_x1}")
    derived = []
    for f in y_freqs:
        for sign in (+1.0, -1.0):
            fd = omega_z + sign * f
            if fd <= 0:
                raise NegativeToneFrequency(
                    f"derived tone omega_z {'+' if sign > 0 else '−'} {f} = "
                    f"{fd} is not positive")
            derived.append(fd)
    notes = []
    if collisions:
        for fc in collisions:
            for fd in derived:
                if abs(fd - fc) <= 1e-9 * max(1.0, abs(fc)):
                    notes.append(
                        f"derived tone {fd:g} collides with transition {fc:g}")
    return ToneSet(
        x_tones=((float(omega_z), float(phi_x1)),),
        y_tones=tuple(zip(y_freqs, phi_y)),
        derived=tuple(derived),
        phase_sum=tuple(p + phi_x1 for p in phi_y),
        phase_diff=tuple(p - phi_x1 for p in phi_y),
        kind="dissipative",
        notes=tuple(notes),
    )


def plan_coherent_tones(Omega, phi_y) -> ToneSet:
    """Pump plan for the coherent three-body variant.

    Same y tones, with the x drive moved onto the first qubit frequency
    ``Omega1`` and carrying the phase of the first y tone.  The m = 1 channel
    then produces an unused tone at ``2 Omega1`` (flagged) and an exact
    zero-frequency product that is excluded by construction.  A negative
    difference product is the positive frequency with the opposite phase
    sign (cosine parity); it is folded and flagged.
    """
    y_freqs, phi_y = _y_tones(Omega, phi_y)
    w1 = y_freqs[0]
    notes = [f"unused tone at 2*Omega1 = {2 * w1:g}"]
    derived = []
    for f in y_freqs:
        for sign in (+1.0, -1.0):
            fd = w1 + sign * f
            if fd == 0.0:
                continue        # the DC product is excluded by construction
            if fd < 0:
                notes.append(
                    f"negative product {fd:g} folded to {-fd:g} with "
                    "opposite phase sign")
                fd = -fd
            derived.append(fd)
    return ToneSet(
        x_tones=((w1, phi_y[0]),),
        y_tones=tuple(zip(y_freqs, phi_y)),
        derived=tuple(derived),
        phase_sum=tuple(p + phi_y[0] for p in phi_y),
        phase_diff=tuple(p - phi_y[0] for p in phi_y),
        kind="coherent",
        notes=tuple(notes),
    )


# --------------------------------------------------------------------------
# effective three-qubit model
# --------------------------------------------------------------------------

def _reduced_phases(tones: ToneSet) -> tuple[float, float]:
    """Single per-channel phases (phi1, phi2) required by the builder."""
    (f1, p1), (f2, p2), (f3, p3) = tones.y_tones
    for m, (ps, pd) in enumerate(zip(tones.phase_sum, tones.phase_diff), 1):
        if abs(ps - pd) > 1e-9:
            raise ValidationError(
                f"channel {m}: sum and difference phases differ "
                f"({ps} vs {pd}); drive the x line at zero phase")
    if abs(p2 - p3) > 1e-9:
        raise ValidationError(
            f"y tones 2 and 3 must share a phase, got {p2} and {p3}")
    return p1, p2


def build_jrm_effective(params: CircuitParams, tones: ToneSet,
                        include_three_body: bool = False) -> MasterEquation:
    """Post-rotating-wave system-bath model on three qubits ⊗ damped mode.

    ``H = −(Lambda/4)(lambda_1z X_{phi1} sx_1 + beta X_{phi2} sx_2 sx_3)``
    with damping ``gamma_z D[a]``, built (and Fock-cutoff checked) by
    :func:`build_system_bath` with ``A = sx_1``, ``B = sx_2 sx_3``,
    ``lambda1 = −Lambda lambda_1z/4``, ``lambda2 = −Lambda beta/4``, on
    the factors ``(2, 2, 2, n_max + 1)``.  Eliminating the mode reproduces the
    non-local jump with prefactor ``Lambda lambda_1z / (2 sqrt(gamma_z))``.
    Optionally adds the coherent three-body term (used at the
    nonreciprocity balance point).
    """
    if not params.dispersive_ok:
        raise DispersiveViolation(
            f"dispersive ratios {params.lambdas} exceed {_DISPERSIVE_LIMIT}")
    if tones.kind != "dissipative":
        raise ValidationError("builder expects the damped-mode tone plan")
    phi1, phi2 = _reduced_phases(tones)
    ec = effective_coupling_constants(params)
    mode = params.mode
    bath = SystemBathParams(-ec.Lambda * params.lambda_1z / 4,
                            -ec.Lambda * ec.beta / 4, mode.gamma_z, mode.n_max)
    me = build_system_bath(bath, _SX, tensor([_SX, _SX]), (phi1, phi2))
    h = me.hamiltonian
    if include_three_body:
        h = h + tensor([coherent_three_body(params), np.eye(mode.dim)])
    return MasterEquation(h, me.jumps, (2, 2, 2, mode.dim))


def strong_damping_condition(params: CircuitParams) -> tuple[float, bool]:
    """Smallness parameter of the strong-damping hierarchy, and whether it
    is below 1e-2.

    Value: ``gamma_eff (eta/gamma)^2`` of :func:`effective_coupling_constants`
    — the S2-side residual dissipation rate ``eta^2/gamma``, which must stay
    small against the coherent scales.
    """
    ec = effective_coupling_constants(params)
    value = ec.gamma_eff * (ec.eta_over_gamma * ec.eta_over_gamma)
    return float(value), bool(value < 1e-2)


def nonreciprocity_conditions(params: CircuitParams,
                              phi: float) -> tuple[bool, str | None]:
    """Check the full-nonreciprocity point: ``phi = ±pi/2`` and
    ``Lambda = gamma_z`` (both to relative 1e−9).

    Returns ``(satisfied, direction)`` where the direction is ``"S1->S2"``
    for ``+pi/2`` (the pair of qubits 2, 3 evolves, qubit 1 is untouched)
    and ``"S2->S1"`` for ``−pi/2``.  A non-finite ``phi`` raises
    :class:`ValidationError`.
    """
    if not -np.inf < phi < np.inf:
        raise ValidationError(f"phi must be finite, got {phi}")
    ec = effective_coupling_constants(params)
    gz = params.mode.gamma_z
    balanced = abs(ec.Lambda - gz) <= 1e-9 * max(abs(ec.Lambda), abs(gz))
    half_pi = np.pi / 2
    plus = abs(phi - half_pi) <= 1e-9 * half_pi
    minus = abs(phi + half_pi) <= 1e-9 * half_pi
    satisfied = balanced and (plus or minus)
    if not satisfied:
        return False, None
    return True, "S1->S2" if plus else "S2->S1"


def coherent_three_body(params: CircuitParams) -> np.ndarray:
    """Three-body interaction ``−(lam/4) cos(theta) sx_1 sx_2 sx_3`` at the
    working phase ``theta = pi``, that is ``+(lam/4) sx_1 sx_2 sx_3``, with
    ``lam = Lambda lambda_1z beta``.

    The coupling is third order in the dispersive ratios (one power of
    ``lambda_1z`` beyond the dissipative channel's ``beta``).
    """
    ec = effective_coupling_constants(params)
    lam = ec.Lambda * params.lambda_1z * ec.beta
    return (lam / 4) * tensor([_SX, _SX, _SX])
