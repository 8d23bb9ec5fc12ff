"""Operator-algebra foundation: tensor products, spectral decompositions,
matrix exponentials, partial traces, and superoperator vectorization.

Conventions
-----------
* Operators and density matrices are plain complex ``numpy`` arrays.  Where a
  function needs the tensor-factor structure it takes the factor dimensions
  explicitly (or a :class:`HilbertSpace`).  Factor order is fixed: the first
  subsystem's factors precede the second subsystem's factors, which precede
  any auxiliary mode.
* Superoperators act on **row-vectorized** density matrices:
  ``vec(rho) = rho.reshape(-1)`` in C order.  Under this convention
  ``vec(A @ rho @ B) = kron(A, B.T) @ vec(rho)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .errors import (BadFactorIndex, DimMismatch, NotDensityMatrix,
                     NotHermitian, ValidationError)

__all__ = [
    "HilbertSpace", "SpectralDecomposition",
    "tensor", "herm_eig", "expm", "partial_trace",
    "vec", "unvec", "left_superop", "right_superop",
    "hamiltonian_superop", "dissipator_superop", "expm_superop_apply",
    "hs_inner", "trace_distance", "frob_norm",
    "is_hermitian", "check_hermitian", "check_density",
    "POSITIVITY_TOL", "DEGENERACY_RTOL",
]

#: Absolute tolerance on the minimum eigenvalue of a density matrix.
POSITIVITY_TOL = 1e-9

#: Relative eigenvalue gap below which eigenspaces are merged as degenerate.
DEGENERACY_RTOL = 1e-9

_HERM_TOL = 1e-10


@dataclass(frozen=True)
class HilbertSpace:
    """Composite Hilbert space as an ordered tuple of factor dimensions."""

    factor_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or any(d < 1 for d in dims):
            raise DimMismatch(f"factor dimensions must be positive: {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.factor_dims))

    @property
    def n_factors(self) -> int:
        return len(self.factor_dims)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and projectors of a Hermitian operator.

    Degenerate eigenspaces are merged into a single projector, so the
    projectors are Hermitian, idempotent, mutually orthogonal, and sum to the
    identity.  ``sum(lam_j * P_j)`` reconstructs the operator.
    """

    eigenvalues: np.ndarray          # shape (k,), real, strictly ascending
    projectors: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.projectors[0])
        for lam, p in zip(self.eigenvalues, self.projectors):
            out = out + lam * p
        return out


# --------------------------------------------------------------------------
# basic algebra
# --------------------------------------------------------------------------

def tensor(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the given square operators, in declared order."""
    mats = [np.asarray(op, dtype=complex) for op in ops]
    for m in mats:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimMismatch(f"tensor factors must be square, got {m.shape}")
    return reduce(np.kron, mats)


def is_hermitian(op: np.ndarray, tol: float = _HERM_TOL) -> bool:
    """``‖op − op†‖∞ ≤ tol · max(1, ‖op‖∞)`` in the max-row-sum norm."""
    op = np.asarray(op)
    return bool(np.abs(op - op.conj().T).sum(axis=1).max()
                <= tol * max(1.0, np.abs(op).sum(axis=1).max()))


def check_hermitian(op: np.ndarray, name: str = "operator",
                    tol: float = _HERM_TOL) -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimMismatch(f"{name} must be square, got shape {op.shape}")
    if not is_hermitian(op, tol):
        raise NotHermitian(f"{name} is not Hermitian to tolerance {tol}")
    return op


def check_density(rho: np.ndarray, name: str = "state",
                  positivity_tol: float = POSITIVITY_TOL) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, eigenvalues ≥ −tol."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotDensityMatrix(f"{name} must be a square matrix")
    if not is_hermitian(rho, 1e-9):
        raise NotHermitian(f"{name} is not Hermitian")
    tr = rho.trace()
    if abs(tr - 1.0) > 1e-8:
        raise NotDensityMatrix(f"{name} has trace {tr}, expected 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w.min() < -positivity_tol:
        raise NotDensityMatrix(
            f"{name} has negative eigenvalue {w.min():.3e} beyond tolerance")
    return rho


def herm_eig(op: np.ndarray, tol: float = _HERM_TOL) -> SpectralDecomposition:
    """Spectral decomposition with degenerate eigenspaces merged.

    Eigenvalues are returned in ascending order.  Two consecutive eigenvalues
    are treated as degenerate when their gap is below ``DEGENERACY_RTOL``
    relative to the overall spectral spread, and their eigenspaces are merged
    into a single projector.
    """
    op = check_hermitian(op, tol=tol)
    w, v = np.linalg.eigh((op + op.conj().T) / 2)
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] <= DEGENERACY_RTOL * scale:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    lams = np.array([np.mean(w[c]) for c in clusters])
    projs = []
    for c in clusters:
        vc = v[:, c]
        projs.append(vc @ vc.conj().T)
    return SpectralDecomposition(lams, tuple(projs))


def expm(op: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(scale * op)`` (scaling-and-squaring Padé).

    A real ``op`` with a real ``scale`` stays real, which makes the
    products about four times cheaper than complex ones.
    """
    op = np.asarray(op)
    if op.dtype.kind != "c":
        op = op.astype(float, copy=False)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimMismatch(f"expm argument must be square, got {op.shape}")
    return scipy.linalg.expm(scale * op)


def partial_trace(rho: np.ndarray, dims: Sequence[int] | HilbertSpace,
                  keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    Parameters
    ----------
    rho : array on the full space (product of ``dims``)
    dims : factor dimensions, in the fixed factor order
    keep : indices of the factors to retain (order-preserving)
    """
    if isinstance(dims, HilbertSpace):
        dims = dims.factor_dims
    dims = [int(d) for d in dims]
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep:
        raise BadFactorIndex("keep set must be non-empty")
    if any(k < 0 or k >= n for k in keep):
        raise BadFactorIndex(f"keep indices {keep} out of range for {n} factors")
    rho = np.asarray(rho, dtype=complex)
    d_total = int(np.prod(dims))
    if rho.shape != (d_total, d_total):
        raise DimMismatch(
            f"state shape {rho.shape} does not match dims {dims}")
    work = rho.reshape(dims + dims)
    for i in sorted(set(range(n)) - set(keep), reverse=True):
        work = np.trace(work, axis1=i, axis2=i + work.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep]))
    return work.reshape(d_keep, d_keep)


# --------------------------------------------------------------------------
# row vectorization and superoperators
# --------------------------------------------------------------------------

def vec(rho: np.ndarray) -> np.ndarray:
    """Row-vectorize: stack the rows of ``rho`` into one vector (C order)."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape(dim, dim)


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
    nonzero; each coordinate is labelled with the smallest coordinate of its
    component (min-label propagation with pointer jumping).
    """
    adj = g != 0
    adj |= adj.T
    n = g.shape[0]
    lab = np.arange(n)
    while True:
        new = np.minimum(np.where(adj, lab, n).min(axis=1), lab)
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _real_generator(gen: np.ndarray, d: int) -> np.ndarray:
    """``Tᴴ gen T`` as a real matrix, ``T`` the basis of :func:`_hermitian_basis`.

    Formed by row and column gathers (``np.take``; no product with ``T``),
    scaled and summed in place, so at most two d⁴-sized temporaries live
    beside ``gen``.  A generator whose image has an imaginary entry beyond
    1e-10 times ``max(1, largest entry)`` does not preserve Hermiticity and
    raises :class:`ValidationError` (the floor of 1 keeps a generator that
    cancels to rounding noise, such as a d = 1 dissipator, from being
    rejected).
    """
    i1, i2, w1, w2 = _hermitian_basis(d)[:4]
    cols = np.take(gen, i1, axis=1)
    cols *= w1.conj()
    part = np.take(gen, i2, axis=1)
    part *= w2.conj()
    cols += part
    g = np.take(cols, i1, axis=0)
    g *= w1[:, None]
    np.take(cols, i2, axis=0, out=part, mode="clip")   # "clip": unbuffered
    part *= w2[:, None]
    g += part
    del cols, part      # before the check's temporaries
    if np.abs(g.imag).max() > 1e-10 * max(1.0, np.abs(g).max()):
        raise ValidationError("generator does not preserve Hermiticity")
    return g.real


def expm_superop_apply(gen: np.ndarray, rho: np.ndarray,
                       t: float) -> np.ndarray:
    """``unvec(exp(t gen) vec(rho))`` for a Hermiticity-preserving ``gen``.

    ``gen`` is mapped to the real matrix ``Tᴴ gen T`` of
    :func:`_real_generator`, so a real ``expm`` does the work.  The map is an
    exact similarity transform, so ``rho`` need not be Hermitian.

    The real generator is split into the connected components of its exact
    nonzero pattern (:func:`_components`); ``exp(t G)`` is block diagonal in
    them, so only the blocks that ``rho``'s coordinates touch are
    exponentiated and every other coordinate of the result is exactly zero.
    A generator with no exact zeros is one block and takes the same path.
    """
    gen = np.asarray(gen, dtype=complex)
    d = np.shape(rho)[0]
    if gen.shape != (d * d, d * d):
        raise DimMismatch(
            f"generator shape {gen.shape} incompatible with state dim {d}")
    i1, i2, w1, w2, j1, j2, u1, u2 = _hermitian_basis(d)
    g = _real_generator(gen, d)
    v = vec(rho)
    x = w1 * v[i1] + w2 * v[i2]
    y = np.zeros_like(x)
    lab = _components(g)
    for c in np.unique(lab[x != 0]):
        b = lab == c
        e = expm(g[b][:, b], t)
        y[b] = e @ x[b].real + 1j * (e @ x[b].imag)
    return unvec(u1 * y[j1] + u2 * y[j2], d)


def left_superop(a: np.ndarray) -> np.ndarray:
    """Superoperator of left multiplication, ``rho -> a @ rho``."""
    a = np.asarray(a, dtype=complex)
    return np.kron(a, np.eye(a.shape[0]))


def right_superop(b: np.ndarray) -> np.ndarray:
    """Superoperator of right multiplication, ``rho -> rho @ b``."""
    b = np.asarray(b, dtype=complex)
    return np.kron(np.eye(b.shape[0]), b.T)


def _superop(h_l: np.ndarray, h_r: np.ndarray, jumps=()) -> np.ndarray:
    """Row-vectorized generator of the two-sided Lindblad map on a×b ``X``::

        X ↦ −i (h_l X − X h_r) + Σ r (L_l X L_r† − ½ L_l†L_l X − ½ X L_r†L_r)

    ``jumps`` holds ``(L_l, L_r, r)`` triples, ``h_l`` and ``L_l`` a×a,
    ``h_r`` and ``L_r`` b×b.  With equal left and right operators this is
    the Lindblad generator; with the diagonal blocks ``(I_a, I_a)`` and
    ``(I_b, I_b)`` of block-diagonal operators it is the generator of the
    block ``X = rho[I_a, I_b]``.

    Built in one (a, b, a, b) array with no Kronecker product: the jump
    term ``r L_l[i, k] conj(L_r[j, l])`` row by row (no temporary of the
    output's size), and the one-sided terms through the diagonal views
    ``g[:, j, :, j]`` and ``g[i, :, i, :]`` (writeable ``einsum`` views).
    """
    a, b = h_l.shape[0], h_r.shape[0]
    g = np.zeros((a, b, a, b), dtype=complex)
    k_l, k_r = -1j * h_l, 1j * h_r
    for L_l, L_r, r in jumps:
        if r == 0:
            continue
        conj_r = L_r.conj()[:, None, :]
        for i in range(a):
            g[i] += (r * L_l[i])[None, :, None] * conj_r
        k_l = k_l - 0.5 * r * (L_l.conj().T @ L_l)
        k_r = k_r - 0.5 * r * (L_r.conj().T @ L_r)
    left, right = np.einsum("ijkj->ijk", g), np.einsum("ijil->ijl", g)
    left += k_l[:, None, :]       # g[:, j, :, j] += k_l, for k_l X
    right += k_r.T[None, :, :]    # g[i, :, i, :] += k_r.T, for X k_r
    return g.reshape(a * b, a * b)


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator of the coherent part, ``rho -> -i [h, rho]``."""
    h = np.asarray(h, dtype=complex)
    return _superop(h, h)


def dissipator_superop(L: np.ndarray) -> np.ndarray:
    """Superoperator of ``rho -> L rho L† − ½{L†L, rho}`` (row vectorization)."""
    L = np.asarray(L, dtype=complex)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DimMismatch(f"jump operator must be square, got {L.shape}")
    z = np.zeros_like(L)
    return _superop(z, z, [(L, L, 1.0)])


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert–Schmidt inner product ``tr(a† b)``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))   # vdot conjugates the first argument


def frob_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """½ ‖a − b‖₁ via singular values."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    s = np.linalg.svd(a - b, compute_uv=False)
    return float(0.5 * s.sum())
