"""Operator-algebra foundation: tensor products, spectral decompositions,
matrix exponentials, partial traces, and superoperator vectorization.

Conventions
-----------
* Operators and density matrices are plain complex ``numpy`` arrays.  Where a
  function needs the tensor-factor structure it takes the factor dimensions
  explicitly, as a tuple.  Factor order is fixed: the first
  subsystem's factors precede the second subsystem's factors, which precede
  any auxiliary mode.
* Superoperators act on **row-vectorized** density matrices:
  ``vec(rho) = rho.reshape(-1)`` in C order.  Under this convention
  ``vec(A @ rho @ B) = kron(A, B.T) @ vec(rho)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import (BadFactorIndex, DimMismatch, NotDensityMatrix,
                     NotHermitian)

__all__ = [
    "SpectralDecomposition",
    "tensor", "herm_eig", "expm", "partial_trace",
    "vec", "unvec",
    "dissipator_superop",
    "trace_distance",
    "is_hermitian", "check_hermitian", "check_density",
    "POSITIVITY_TOL", "DEGENERACY_RTOL",
]

#: Absolute tolerance on the minimum eigenvalue of a density matrix.
POSITIVITY_TOL = 1e-9

#: Relative eigenvalue gap below which eigenspaces are merged as degenerate.
DEGENERACY_RTOL = 1e-9

_HERM_TOL = 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and projectors of a Hermitian operator.

    Degenerate eigenspaces are merged into a single projector, so the
    projectors are Hermitian, idempotent, mutually orthogonal, and sum to the
    identity; ``sum(lam_j * P_j)`` is the operator.
    """

    eigenvalues: np.ndarray          # shape (k,), real, strictly ascending
    projectors: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.eigenvalues)


# --------------------------------------------------------------------------
# basic algebra
# --------------------------------------------------------------------------

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, bit for bit, as one broadcast product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def tensor(ops: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the given square operators, in declared order."""
    mats = [np.asarray(op, dtype=complex) for op in ops]
    for m in mats:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimMismatch(f"tensor factors must be square, got {m.shape}")
    return reduce(_kron, mats)


def is_hermitian(op: np.ndarray, tol: float = _HERM_TOL) -> bool:
    """``‖op − op†‖∞ ≤ tol · max(1, ‖op‖∞)`` in the max-row-sum norm."""
    op = np.asarray(op)
    return bool(np.abs(op - op.conj().T).sum(axis=1).max()
                <= tol * max(1.0, np.abs(op).sum(axis=1).max()))


def check_hermitian(op: np.ndarray, name: str = "operator") -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DimMismatch(f"{name} must be square, got shape {op.shape}")
    if not is_hermitian(op):
        raise NotHermitian(f"{name} is not Hermitian to tolerance {_HERM_TOL}")
    return op


def check_density(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, eigenvalues
    ≥ −``POSITIVITY_TOL``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotDensityMatrix(f"{name} must be a square matrix")
    if not is_hermitian(rho, 1e-9):
        raise NotHermitian(f"{name} is not Hermitian")
    tr = rho.trace()
    if abs(tr - 1.0) > 1e-8:
        raise NotDensityMatrix(f"{name} has trace {tr}, expected 1")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    if w.min() < -POSITIVITY_TOL:
        raise NotDensityMatrix(
            f"{name} has negative eigenvalue {w.min():.3e} beyond tolerance")
    return rho


def herm_eig(op: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition with degenerate eigenspaces merged.

    Eigenvalues are returned in ascending order.  Two consecutive eigenvalues
    are treated as degenerate when their gap is below ``DEGENERACY_RTOL``
    relative to the overall spectral spread, and their eigenspaces are merged
    into a single projector.
    """
    op = check_hermitian(op)
    w, v = np.linalg.eigh((op + op.conj().T) / 2)
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] <= DEGENERACY_RTOL * scale:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    lams = np.array([np.mean(w[c]) for c in clusters])
    projs = tuple(v[:, c] @ v[:, c].conj().T for c in clusters)
    return SpectralDecomposition(lams, projs)


#: Taylor coefficients ``1/k!`` of ``exp``, k = 0 … 24.
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(25)])
#: ``(m, θ_m, p)``: the degree-m Taylor polynomial's backward error is below
#: unit roundoff up to 1-norm θ_m (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
#: 488 (2011); rounded down), and p | m its Paterson–Stockmeyer chunk length.
_TAYLOR_DEGREES = ((8, 0.0499, 4), (12, 0.2996, 4), (18, 1.0908, 6),
                   (24, 2.219, 6))


def expm(op: np.ndarray, scale: complex = 1.0, *,
         conserved: np.ndarray | None = None) -> np.ndarray:
    """Matrix exponential ``exp(scale * op)`` of a matrix or of each matrix
    of a stack ``(..., n, n)``.

    An exactly Hermitian ``op`` with a purely imaginary ``scale`` is
    exponentiated in its eigenbasis, ``V diag(exp(scale w)) Vᴴ``, which is
    unitary to rounding at any ``scale``.  Any other argument goes through
    scaling and squaring with no linear solve.  The Taylor degree m is the
    smallest of :data:`_TAYLOR_DEGREES` whose θ_m covers the stack's largest
    1-norm; past θ_24 the stack is halved ``s`` times, the fewest that bring
    that norm to θ_24 or below.  The polynomial is evaluated by
    Paterson–Stockmeyer in 4, 5, 7 or 8 products (the powers ``a … aᵖ``,
    every chunk sum in one coefficient product, Horner steps in ``aᵖ``),
    and each member is squared ``s`` times.  A real ``op`` with a real
    ``scale`` stays real, which makes the products about four times cheaper
    than complex ones.

    ``conserved`` is a nonzero real row ``c``.  If every member's ``c @
    op`` is zero to 1e-14 of its argument's 1-norm (``c`` the trace row of
    trace-preserving generators), each square has one row (at the first
    nonzero of ``c``) corrected so that ``c @ e == c`` again.  That pins the
    eigenvalue 1 of ``e``, whose rounding error otherwise doubles with every
    squaring (about ``2^s u`` after ``s``).
    """
    op = np.asarray(op)
    if op.dtype.kind != "c":
        op = op.astype(float, copy=False)
    if op.ndim < 2 or op.shape[-1] != op.shape[-2]:
        raise DimMismatch(f"expm argument must be square, got {op.shape}")
    if (complex(scale).real == 0 and scale != 0
            and np.array_equal(op, op.conj().swapaxes(-1, -2))):
        w, v = np.linalg.eigh(op)
        return (v * np.exp(scale * w)[..., None, :]) @ v.conj().swapaxes(-1,
                                                                         -2)
    a = scale * op
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    top = norms.max(initial=0.0)
    m, theta, p = next((row for row in _TAYLOR_DEGREES if top <= row[1]),
                       _TAYLOR_DEGREES[-1])
    s = math.ceil(math.log2(top / theta)) if theta < top < np.inf else 0
    pin = (conserved is not None and s > 0
           and (np.abs(conserved @ a).max(axis=-1) <= 1e-14 * norms).all())
    # a, a², …, aᵖ in one buffer, so the chunk sums are one product
    pw = np.empty((p,) + a.shape, dtype=a.dtype)
    np.multiply(a, 0.5 ** s, out=pw[0])
    for k in range(1, p):
        np.matmul(pw[k - 1], pw[0], out=pw[k])
    flat = pw.reshape(p, -1)
    chunks = (_TAYLOR[1:m + 1].reshape(-1, p)
              @ (flat.view(float) if a.dtype.kind == "c" else flat)
              ).view(a.dtype).reshape((m // p,) + a.shape)
    e = chunks[-1]
    for c in chunks[-2::-1]:
        e = c + pw[-1] @ e
    e += np.eye(a.shape[-1])
    if pin:
        j = np.flatnonzero(conserved)[0]
        w = conserved / conserved[j]
    for _ in range(s):
        e = e @ e
        if pin:
            e[..., j, :] += w - w @ e       # back to w @ e == w
    return e


def partial_trace(rho: np.ndarray, dims: Sequence[int],
                  keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    Parameters
    ----------
    rho : array on the full space (product of ``dims``)
    dims : factor dimensions, in the fixed factor order
    keep : indices of the factors to retain (order-preserving)
    """
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


def _support(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices where some matrix of the stack ``op`` is
    nonzero."""
    return np.nonzero(op if op.ndim == 2 else
                      op.reshape((-1,) + op.shape[-2:]).any(axis=0))


def _superop(h_l: np.ndarray, h_r: np.ndarray, jumps=()) -> np.ndarray:
    """Row-vectorized generator of the two-sided Lindblad map on a×b ``X``::

        X ↦ −i (h_l X − X h_r) + Σ r (L_l X L_r† − ½ L_l†L_l X − ½ X L_r†L_r)

    ``jumps`` holds ``(L_l, L_r, r)`` triples, ``h_l`` and ``L_l`` a×a,
    ``h_r`` and ``L_r`` b×b.  With equal left and right operators this is
    the Lindblad generator; with the diagonal blocks ``(I_a, I_a)`` and
    ``(I_b, I_b)`` of block-diagonal operators it is the generator of the
    block ``X = rho[I_a, I_b]``.  Leading axes shared by all operators are
    batch axes: the result is ``(..., ab, ab)``, one generator each.

    Built in one (..., a, b, a, b) array with no Kronecker product: the
    jump term ``r L_l[i, k] conj(L_r[j, l])`` by one add at the ``(i, k)``
    and ``(j, l)`` where some ``L_l`` or ``L_r`` is nonzero (unique index
    tuples, so exact), and the one-sided terms through the diagonal views
    ``g[..., :, j, :, j]`` and ``g[..., i, :, i, :]`` (writeable ``einsum``
    views).
    """
    a, b = h_l.shape[-1], h_r.shape[-1]
    batch = h_l.shape[:-2]
    g = np.zeros(batch + (a, b, a, b), dtype=complex)
    k_l, k_r = -1j * h_l, 1j * h_r
    for L_l, L_r, r in jumps:
        if r == 0:
            continue
        i, k = _support(L_l)
        j, l = (i, k) if L_r is L_l else _support(L_r)
        vals = ((r * L_l[..., i, k])[..., :, None]
                * L_r[..., j, l].conj()[..., None, :])
        if vals.size == g.size:
            g += vals.reshape(batch + (a, a, b, b)).swapaxes(-3, -2)
        else:
            g[..., i[:, None], j, k[:, None], l] += vals
        k_l = k_l - 0.5 * r * (L_l.conj().swapaxes(-1, -2) @ L_l)
        k_r = k_r - 0.5 * r * (L_r.conj().swapaxes(-1, -2) @ L_r)
    left = np.einsum("...ijkj->...ijk", g)
    right = np.einsum("...ijil->...ijl", g)
    left += k_l[..., :, None, :]                    # for k_l X
    right += k_r.swapaxes(-1, -2)[..., None, :, :]  # for X k_r
    return g.reshape(batch + (a * b, a * b))


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

def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """½ ‖a − b‖₁ via singular values."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    s = np.linalg.svd(a - b, compute_uv=False)
    return float(0.5 * s.sum())
