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
from functools import lru_cache

import numpy as np

from . import opcore
from .errors import (BadEigenindex, DimMismatch, NonPhysicalResult,
                     NotDensityMatrix, NotHermitian, NumericalError,
                     ValidationError)
from .opcore import check_hermitian, herm_eig, tensor

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
        for name in ("gamma", "eta", "phi", "g"):
            value = getattr(self, name)
            if not -np.inf < value < np.inf:
                raise ValidationError(f"{name} must be finite, got {value}")
            if name in ("gamma", "eta") and value < 0:
                raise ValidationError(f"{name} must be >= 0, got {value}")
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

    # -- embedded operators -------------------------------------------
    def a1(self) -> np.ndarray:
        """``A`` embedded on the joint space."""
        return tensor([self.A, np.eye(self.d2)])

    def b2(self) -> np.ndarray:
        """``B`` embedded on the joint space."""
        return tensor([np.eye(self.d1), self.B])

    def jump(self, a, b):
        """``sqrt(gamma) a − (eta/sqrt(gamma)) e^{i phi} b`` with ``a``, ``b``
        in the roles of ``A`` and ``B``: the jump ``L`` for operators, its
        eigenvalues for broadcast eigenvalue arrays.  Undefined for
        ``gamma == 0``, which callers handle themselves."""
        return (np.sqrt(self.gamma) * a
                - self.eta / np.sqrt(self.gamma) * np.exp(1j * self.phi) * b)

    def jump_operator(self) -> np.ndarray:
        """``L = sqrt(gamma) A1 − (eta/sqrt(gamma)) e^{i phi} B2``."""
        if self.gamma == 0:
            raise ValidationError("jump operator undefined for gamma == 0")
        return self.jump(self.a1(), self.b2())

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
        if not hams:
            raise ValidationError("a control pulse needs a Hamiltonian")
        shapes = {h.shape for h in hams}
        if len(shapes) > 1:
            raise DimMismatch(f"Hamiltonians differ in shape: {shapes}")
        object.__setattr__(self, "hamiltonians", hams)
        segs = []
        for dur, coeffs in self.segments:
            dur = float(dur)
            coeffs = tuple(float(c) for c in coeffs)
            if not (0 < dur < np.inf and np.isfinite(coeffs).all()):
                raise ValidationError(f"segment {(dur, coeffs)} needs a "
                                      "finite duration > 0, finite weights")
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
        terms = zip(self.segments[k][1], self.hamiltonians)
        return sum((c * hk for c, hk in terms),
                   np.zeros_like(self.hamiltonians[0]))


@dataclass(frozen=True)
class MasterEquation:
    """Hamiltonian plus jump operators with rates, on factors of the
    dimensions ``dims`` (a non-empty tuple of positive integers).

    :meth:`generator` assembles the dense row-vectorized d²×d² generator.
    :func:`propagate` takes the model itself and never forms it: in the
    joint eigenbasis of the operators' leading-factor parts, when they
    commute, it evolves the exact invariant blocks that the operators'
    zeros give, each from its own small generator.
    """

    hamiltonian: np.ndarray
    jumps: tuple[tuple[np.ndarray, float], ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.dims, tuple) and self.dims) or any(
                isinstance(n, bool) or not isinstance(n, (int, np.integer))
                or n < 1 for n in self.dims):
            raise DimMismatch(f"dims must be a non-empty tuple of positive "
                              f"integers, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        d = int(np.prod(self.dims))
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.shape != (d, d):
            raise DimMismatch(f"Hamiltonian shape {h.shape} != ({d}, {d})")
        if not np.isfinite(h).all():
            raise ValidationError("Hamiltonian has non-finite entries")
        object.__setattr__(self, "hamiltonian", h)
        jumps = []
        for k, (op, rate) in enumerate(self.jumps):
            op = np.asarray(op, dtype=complex)
            if op.shape != (d, d):
                raise DimMismatch(f"jump shape {op.shape} != ({d}, {d})")
            if not np.isfinite(op).all():
                raise ValidationError(f"jump {k} has non-finite entries")
            if not 0 <= rate < np.inf:
                raise ValidationError(f"jump rate must be >= 0, got {rate}")
            jumps.append((op, float(rate)))
        object.__setattr__(self, "jumps", tuple(jumps))

    def generator(self) -> np.ndarray:
        h = self.hamiltonian
        return opcore._superop(h, h, [(op, op, r) for op, r in self.jumps])


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

def _a_eigenspace(c: DissipativeCoupling, index: int):
    """Eigenvalue and projector of A's merged eigenspace ``index``; a
    negative index counts from the largest eigenvalue, as in Python."""
    dec = herm_eig(c.A)
    if not -len(dec) <= index < len(dec):
        raise BadEigenindex(f"eigenindex {index} out of range for "
                            f"{len(dec)} merged eigenvalues")
    return float(dec.eigenvalues[index]), dec.projectors[index]


def reduced_s2_generator(c: DissipativeCoupling, j: int) -> tuple[float, float]:
    """Reduced S2 generator coefficients for S1 in eigenspace ``j`` of A.

    Returns ``(drift, rate)`` where the S2 marginal obeys
    ``d rho2/dt = -i drift [B, rho2] + rate D[B] rho2`` with
    ``drift = lam_j (g + eta sin phi)`` and ``rate = eta^2/gamma``.
    Eigen-index ``j`` addresses the merged ascending spectrum of ``A``; a
    negative one counts from the largest eigenvalue.
    """
    rate = 0.0 if c.eta == 0 else c.eta * c.eta / c.gamma
    return c.drift(_a_eigenspace(c, j)[0]), rate


# --------------------------------------------------------------------------
# propagation
# --------------------------------------------------------------------------

def _rates(l: np.ndarray, h=0.0) -> np.ndarray:
    """``R`` with ``exp(t (D[L] − i [H, ·])) rho = exp(t R) ∘ rho`` for ``L``
    and ``H`` diagonal, with eigenvalues ``l_k`` and ``h_k``: ``R_kl = l_k
    l_l* − ½|l_k|² − ½|l_l|² − i (h_k − h_l)``.  The real part is written as
    ``−½|l_k − l_l|²`` so that it does not cancel at large gamma, and
    ``Im(l_k l_l*)`` from real products, so that it is exactly antisymmetric
    and the diagonal, whose rate is exactly 0, does not turn at large ``t``.
    """
    return (-0.5 * np.abs(l[:, None] - l[None, :]) ** 2
            + 1j * (l.imag[:, None] * l.real - l.real[:, None] * l.imag
                    - np.subtract.outer(h, h)))


def _evolve_coupling(c: DissipativeCoupling, rho0: np.ndarray,
                     t: float) -> np.ndarray:
    """Closed-form ``exp(t G) rho0`` for the coupling's generator ``G``:
    ``L`` and ``g A1 B2`` are both diagonal in the product eigenbasis of
    ``A`` and ``B``, where ``G`` multiplies each entry by its rate
    (:func:`_rates`)."""
    a, ua = np.linalg.eigh(c.A)
    b, ub = np.linalg.eigh(c.B)
    u = opcore._kron(ua, ub)
    l = np.zeros(c.d1 * c.d2, dtype=complex)
    if c.gamma > 0:
        l = c.jump(a[:, None], b[None, :]).reshape(-1)
    h = c.g * np.outer(a, b).reshape(-1)
    rate = _rates(l, h)
    return u @ (np.exp(t * rate) * (u.conj().T @ rho0 @ u)) @ u.conj().T


@lru_cache(maxsize=64)
def _hermitian_basis(d: int) -> tuple[np.ndarray, ...]:
    """Sparse form of the unitary ``T`` whose columns are the row-vectorized
    orthonormal Hermitian basis of d×d operators: ``|i><i|``, then
    ``(|i><j| + |j><i|)/√2``, then ``i(|i><j| − |j><i|)/√2`` (``i < j``).

    Returns ``(i1, i2, w1, w2, j1, j2, u1, u2)``: row ``k`` of ``Tᴴ`` is
    ``w1[k] e_i1[k] + w2[k] e_i2[k]`` and row ``n`` of ``T`` is
    ``u1[n] e_j1[n] + u2[n] e_j2[n]``, so either product is two gathers.
    """
    i, j = np.triu_indices(d, 1)
    ii, ij, ji = np.arange(d) * (d + 1), i * d + j, j * d + i
    half, s = np.full(d, 0.5), np.full(len(i), np.sqrt(0.5))
    i1, i2 = np.concatenate([ii, ij, ij]), np.concatenate([ii, ji, ji])
    w1 = np.concatenate([half, s, -1j * s])
    w2 = np.concatenate([half, s, 1j * s])
    # T[n, k] = conj(Tᴴ[k, n]): every n occurs twice among (i1, i2)
    order = np.argsort(np.concatenate([i1, i2]), kind="stable")
    k = np.tile(np.arange(d * d), 2)[order].reshape(-1, 2)
    u = np.concatenate([w1, w2]).conj()[order].reshape(-1, 2)
    out = (i1, i2, w1, w2, k[:, 0], k[:, 1], u[:, 0], u[:, 1])
    for a in out:
        a.setflags(write=False)
    return out


def _components(g: np.ndarray) -> np.ndarray:
    """Connected-component labels of the exact nonzero pattern of ``g``.

    Coordinates ``k`` and ``l`` are linked when ``g[k, l]`` or ``g[l, k]`` is
    nonzero.  Min-label propagation with pointer jumping labels each
    coordinate with the smallest coordinate of its component; the labels
    returned number the components 0, 1, … in the order of those.
    """
    adj = g != 0
    adj |= adj.T
    n = g.shape[0]
    lab = np.arange(n)
    while True:
        new = np.minimum(np.where(adj, lab, n).min(axis=1), lab)
        new = new[new]
        if (new == lab).all():
            return np.cumsum(lab == np.arange(n))[lab] - 1
        lab = new


def _real_generator(gen: np.ndarray, d: int) -> np.ndarray:
    """``Tᴴ gen T``, ``T`` the basis of :func:`_hermitian_basis`, as a real
    matrix, for a d²×d² ``gen`` or each of a stack of them: ``gen``
    preserves Hermiticity (checked once per model by :func:`propagate`), so
    the imaginary part is rounding and is dropped.

    Formed by row and column gathers (``np.take``; no product with ``T``),
    scaled and summed in place, so at most two temporaries of ``gen``'s size
    live beside it.
    """
    i1, i2, w1, w2 = _hermitian_basis(d)[:4]
    cols = np.take(gen, i1, axis=-1)
    cols *= w1.conj()
    part = np.take(gen, i2, axis=-1)
    part *= w2.conj()
    cols += part
    g = np.take(cols, i1, axis=-2)
    g *= w1[:, None]
    np.take(cols, i2, axis=-2, out=part, mode="clip")   # "clip": unbuffered
    part *= w2[:, None]
    g += part
    return g.real


def _evolve_real_basis(gen: np.ndarray, rho: np.ndarray,
                       t: float) -> np.ndarray:
    """``exp(t gen) rho`` for a Hermiticity-preserving d²×d² ``gen``, or for
    each member of stacks ``gen`` and ``rho``, by a real ``expm`` of ``Tᴴ gen
    T`` (:func:`_real_generator`).  The map is an exact similarity
    transform, so ``rho`` need not be Hermitian.

    Only the connected components of the members' joint exact nonzero
    pattern (:func:`_components`) that some ``rho``'s coordinates touch are
    exponentiated, each for the whole stack in one :func:`opcore.expm` call;
    every other coordinate of the result is exactly zero.  A component of
    the joint pattern is an exact invariant set of every member.  The real
    ``expm`` is 1.5–3.9× cheaper than a complex one, and each call gets the
    component's trace row (its diagonal coordinates) as ``conserved``.  That
    pins the trace of a trace-preserving block: a d = 5 Lindblad generator
    at ``‖t G‖₂ ≈ 1.3e6`` errs by 5e-12, not 8.6e-11.
    """
    d = rho.shape[-1]
    i1, i2, w1, w2, j1, j2, u1, u2 = _hermitian_basis(d)
    g = _real_generator(gen, d)
    v = rho.reshape(rho.shape[:-2] + (d * d,))
    x = w1 * v[..., i1] + w2 * v[..., i2]
    y = np.zeros_like(x)
    lab = _components(g.reshape(-1, d * d, d * d).any(axis=0))
    for c in np.unique(lab[(x != 0).reshape(-1, d * d).any(axis=0)]):
        b = np.flatnonzero(lab == c)
        tr = (b < d).astype(float)      # coordinates of |i><i|: the trace
        e = opcore.expm(g[..., b[:, None], b], t,
                        conserved=tr if tr.any() else None)
        xb = x[..., b, None]
        y[..., b] = (e @ xb.real + 1j * (e @ xb.imag))[..., 0]
    return (u1 * y[..., j1] + u2 * y[..., j2]).reshape(rho.shape)


def _evolve_blocks(pattern: np.ndarray, block_gens, rho0: np.ndarray,
                   t: float) -> np.ndarray:
    """``exp(t G) rho0`` for a ``G`` with exact invariant blocks ``rho[I_a,
    I_b]``, ``I_a`` the components of the d×d ``pattern``, and
    ``block_gens(ia, ib)`` the generators of ``rho[ia[n], ib[n]]``.

    Only the pairs ``a ≤ b`` where ``rho0`` has a nonzero are evolved, each
    gathered from and scattered to ``rho[I_a, I_b]`` by its index sets.  The
    pairs of one block shape share one ``block_gens`` call; the diagonal
    ones are evolved by one :func:`_evolve_real_basis`, the others by one
    complex ``expm``, with ``rho[I_b, I_a] = rho[I_a, I_b]ᴴ``."""
    lab = _components(pattern)
    comps = [np.flatnonzero(lab == c) for c in range(lab.max() + 1)]
    x = (rho0 + rho0.conj().T) / 2
    occupied = np.zeros((len(comps),) * 2, dtype=bool)
    i, j = np.nonzero(x)
    occupied[lab[i], lab[j]] = True
    diagonal = np.flatnonzero(occupied.diagonal())
    groups: dict[tuple, list] = {}
    for a, b in [*zip(diagonal, diagonal),
                 *zip(*np.nonzero(np.triu(occupied, 1)))]:
        groups.setdefault((len(comps[a]), len(comps[b])), []).append((a, b))
    rho = np.zeros_like(x)
    for (na, nb), pairs in groups.items():
        a, b = np.array(pairs).T
        rows = np.array([comps[k] for k in a])[:, :, None]
        cols = np.array([comps[k] for k in b])[:, None, :]
        gens = block_gens(rows[..., 0], cols[:, 0])
        k = np.count_nonzero(a == b)        # the diagonal pairs come first
        if k:
            rho[rows[:k], cols[:k]] = _evolve_real_basis(
                gens[:k], x[rows[:k], cols[:k]], t)
        if k < len(a):
            rows, cols = rows[k:], cols[k:]
            y = (opcore.expm(gens[k:], t)
                 @ x[rows, cols].reshape(-1, na * nb, 1)).reshape(-1, na, nb)
            rho[rows, cols] = y
            rho[cols, rows] = y.conj()
    return rho


def _leading_eigenbasis(me: MasterEquation):
    """``(W, H, jumps)``: ``me``'s Hamiltonian and nonzero-rate jumps
    ``(L, rate)`` rotated by ``W = U ⊗ 1`` over its leading factors (all but
    the last), where their parts ``S_nn'`` (``op = Σ S_nn' ⊗ |n><n'|``) are
    diagonal; rounding-level off-diagonal entries are set to exact zero.

    ``U`` is the eigenbasis of one Hermitian matrix: the Hermitian and
    anti-Hermitian halves of every part, each operator's scaled by its
    largest entry, with fixed distinct positive weights.  For commuting
    parts that is a joint eigenbasis, unless the weights merge two joint
    eigenvalues by accident.  When a rotated part keeps an off-diagonal
    entry above 1e-12 times its operator's largest entry (non-commuting
    parts, or such an accident), they come back unrotated, with ``W = 1``.
    """
    d = me.hamiltonian.shape[0]
    dm = me.dims[-1]
    ds = d // dm
    jumps = [(op, r) for op, r in me.jumps if r != 0]
    ops = [me.hamiltonian] + [op for op, _ in jumps]
    parts = np.concatenate([
        op.reshape(ds, dm, ds, dm).transpose(1, 3, 0, 2).reshape(-1, ds * ds)
        / (np.abs(op).max() or 1.0) for op in ops])
    # weights 1/2 + frac(k/phi), phi the golden ratio; x + xᴴ weighs the
    # halves (S + Sᴴ)/2 and (S − Sᴴ)/2i of each part S alike
    weights = np.arange(len(parts)) * 0.6180339887498949 % 1 + 0.5
    x = ((1 - 1j) * weights @ parts).reshape(ds, ds)
    w = opcore._kron(np.linalg.eigh(x + x.conj().T)[1], np.eye(dm))
    level = np.arange(d) // dm
    diagonal = level[:, None] == level
    rotated = []
    for op in ops:
        r = w.conj().T @ op @ w
        if np.abs(r[~diagonal]).max(initial=0) > 1e-12 * np.abs(op).max():
            return np.eye(d), me.hamiltonian, jumps
        rotated.append(np.where(diagonal, r, 0))
    return w, rotated[0], [(l, r) for l, (_, r) in zip(rotated[1:], jumps)]


def _evolve_master_equation(me: MasterEquation, rho0: np.ndarray,
                            t: float) -> np.ndarray:
    """In the frame ``W`` of :func:`_leading_eigenbasis`, ``H`` and the
    nonzero-rate jumps are block diagonal over the components ``I_a`` of
    their joint nonzero pattern, so ``rho[I_a, I_b]`` evolves alone under
    ``_superop(H_aa, H_bb, L_aa, L_bb)``; the result is rotated back."""
    w, h, jumps = _leading_eigenbasis(me)
    pattern = h != 0
    for op, _ in jumps:
        pattern |= op != 0

    def block_gens(ia, ib):
        def sub(op, i):
            return op[i[:, :, None], i[:, None, :]]
        return opcore._superop(sub(h, ia), sub(h, ib),
                               [(sub(op, ia), sub(op, ib), r)
                                for op, r in jumps])

    wh = w.conj().T
    return w @ _evolve_blocks(pattern, block_gens, wh @ rho0 @ w,
                              t) @ wh


def _evolve_dense(gen: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """``g4 = gen.reshape(d, d, d, d)`` moves ``rho[k, l]`` into ``rho[i, j]``
    only where ``g4[i, j, k, l] != 0``.  One scan of those entries serves
    :func:`_check_generator` and the links ``i–k`` and ``j–l``, whose
    components ``I_a`` are exact invariant blocks, generated by
    ``g4[I_a, I_b, I_a, I_b]``."""
    d = rho0.shape[0]
    g4 = gen.reshape(d, d, d, d)
    part = gen.reshape(-1).view(float) != 0     # cheaper than complex
    f = np.flatnonzero(part[0::2] | part[1::2])
    nz = i, j, k, l = np.unravel_index(f, g4.shape)
    _check_generator(gen, d, (f, nz))
    links = np.zeros((d, d), dtype=bool)
    links[i, k] = links[j, l] = True

    def block_gens(ia, ib):
        na, nb = ia.shape[1], ib.shape[1]
        return g4[ia[:, :, None, None, None], ib[:, None, :, None, None],
                  ia[:, None, None, :, None], ib[:, None, None, None, :]
                  ].reshape(len(ia), na * nb, na * nb)

    return _evolve_blocks(links, block_gens, rho0, t)


def _check_generator(gen: np.ndarray, d: int, nz) -> None:
    """Raise :class:`ValidationError` unless the d²×d² ``gen`` preserves
    Hermiticity: ``g4[i, j, k, l] = conj(g4[j, i, l, k])`` at every nonzero
    entry, to 1e-10 times ``max(1, largest entry)`` (the floor of 1 keeps a
    generator that cancels to rounding noise, such as a d = 1 dissipator,
    from being rejected).  ``nz = (f, (i, j, k, l))`` holds the flat indices
    of the nonzero entries and their 4-D indices (:func:`_evolve_dense`);
    the mirror of flat index ``f`` is ``f + (j−i)(d³−d²) + (l−k)(d−1)``."""
    f, (i, j, k, l) = nz
    flat = gen.reshape(-1)
    val = flat.take(f)
    mirror = flat.take(f + (j - i) * (d ** 3 - d * d) + (l - k) * (d - 1))
    if np.abs(val - mirror.conj()).max(initial=0.0) > 1e-10 * max(
            1.0, np.abs(val).max(initial=0.0)):
        raise ValidationError("generator does not preserve Hermiticity")


def _checked_states(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """``after``, made exactly Hermitian, if it passes the checks of an
    evolution from ``before`` (states or stacks ``(..., d, d)`` of them):
    a non-finite entry, or trace and Hermiticity drift beyond 1e-8, raise
    :class:`NumericalError`, an eigenvalue below ``-POSITIVITY_TOL``
    :class:`NonPhysicalResult`."""
    if not np.isfinite(after).all():
        raise NumericalError("propagated state has non-finite entries")
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
    ``rho[I_a, I_b]`` of the generator (:func:`_evolve_blocks`).  A
    :class:`MasterEquation` is first rotated over its leading factors into
    the joint eigenbasis of their parts when they commute
    (:func:`_leading_eigenbasis`), and its block generators are assembled
    from the operator blocks (the d²×d² generator is never formed).
    ``gen``'s blocks are sliced out of it by its nonzero pattern, read in
    one scan that also serves the Hermiticity check.  Each model is checked
    for Hermiticity preservation once, before any block is evolved: a
    non-Hermitian Hamiltonian, or a ``gen`` that fails
    :func:`_check_generator`, raises :class:`ValidationError` at every
    ``t``.  The complex ``expm`` of the generator is the test oracle for
    every route.

    ``rho0`` must be Hermitian (:class:`NotHermitian` otherwise) with no
    eigenvalue below ``-POSITIVITY_TOL`` (:class:`NotDensityMatrix`
    otherwise), at every ``t``; its trace is kept, not required to be 1.
    The result passes the checks of :func:`_checked_states`; an evolution
    that overflows raises :class:`NumericalError` there, without a warning.
    """
    if not 0 <= t < np.inf:
        raise ValidationError(
            f"propagation time must be finite and >= 0, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    d = rho0.shape[0]
    if isinstance(model, DissipativeCoupling):
        evolve, dims = _evolve_coupling, (model.d1, model.d2)
        dims_ok = model.d1 * model.d2 == d
    elif isinstance(model, MasterEquation):
        evolve, dims = _evolve_master_equation, model.dims
        dims_ok = model.hamiltonian.shape[0] == d
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
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        rho = evolve(model, rho0, t)
    return _checked_states(rho0, rho)


def _check_pulse_dim(pulse: ControlPulse, c: DissipativeCoupling) -> None:
    d = pulse.hamiltonians[0].shape[0]
    if d != c.d2:
        raise DimMismatch(f"control Hamiltonian dim {d} != S2 dim {c.d2}")


def propagate_controlled(c: DissipativeCoupling, pulse: ControlPulse,
                         rho0: np.ndarray) -> np.ndarray:
    """Propagate under the full generator plus a piecewise-constant control.

    Each segment evolves the :class:`MasterEquation` with Hamiltonian
    ``g A1 B2 + 1 ⊗ H_seg`` and jump ``L`` (none when ``gamma == 0``) for
    its duration; segments are applied in order.  Its S1 parts, ``A`` and
    ``1``, commute, so :func:`propagate` evolves it in ``A``'s eigenbasis,
    one block per pair of those eigenvectors.  A pulse with no segments
    returns a copy of ``rho0``.
    """
    _check_pulse_dim(pulse, c)
    rho = np.array(rho0, dtype=complex)
    h = c.coherent_hamiltonian()
    jumps = ((c.jump_operator(), 1.0),) if c.gamma > 0 else ()
    eye1 = np.eye(c.d1)
    for k, (dur, _) in enumerate(pulse.segments):
        h2 = tensor([eye1, pulse.segment_hamiltonian(k)])
        me = MasterEquation(h + h2, jumps, (c.d1, c.d2))
        rho = propagate(me, rho, dur)
    return rho
