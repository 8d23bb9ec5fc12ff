"""Write ``tests/expm_references.json``: 40-digit mpmath references of
``exp(A)`` for the cases ``tests/test_opcore.py`` checks ``opcore.expm``
against, each with the error of the [9/9] Padé kernel that the Taylor kernel
replaced.

    python benchmarks/expm_references.py --parent DIR

``DIR`` is a checkout whose ``opcore.expm`` is the [9/9] Padé kernel (the
commit before the Taylor kernel); its error is recorded as ``parent_err``.
The cases are one complex 4×4 member inside each Taylor degree's θ_m (no
halving) and one at 1-norm 20 (three halvings), one stiff complex
off-diagonal pair block of the system-bath model (9×9, gamma_a = 1000,
t = 2, as ``propagate`` hands it to ``expm``) and one real-basis d = 3
Lindblad generator at ``‖t G‖₁ = 1e6`` with its trace row pinned, as
``liouville._evolve_real_basis`` exponentiates it.
An error is the 1-norm of ``expm(A) − exp(A)``, reckoned in mpmath.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import emdyn  # noqa: E402
from block_scaling import SX, SZ, load_parent  # noqa: E402

OUT = ROOT / "tests" / "expm_references.json"
DIGITS = 40


def stiff_pair_block() -> np.ndarray:
    """``t G`` of the first off-diagonal pair block that ``propagate`` hands
    to the complex ``expm`` for the system-bath model at n_max = 2."""
    gamma_a, t = 1000.0, 2.0
    lam1 = np.sqrt(0.6 * gamma_a) / 2
    full = emdyn.circuit.build_system_bath(
        emdyn.circuit.SystemBathParams(lam1, 0.5 * lam1, gamma_a, n_max=2),
        SZ, SX, (0.1, 0.7))
    seen = []
    kernel = emdyn.opcore.expm

    def spy(op, scale=1.0, **kw):
        seen.append((op, scale, kw))
        return kernel(op, scale, **kw)

    emdyn.opcore.expm = spy
    try:
        rho0 = np.kron(np.full((4, 4), 0.25), emdyn.circuit.fock_vacuum(3))
        emdyn.liouville.propagate(full, rho0, t)
    finally:
        emdyn.opcore.expm = kernel
    op, scale = next((op, s) for op, s, kw in seen
                     if op.dtype.kind == "c" and not kw)
    return scale * op[0]


def real_basis_lindblad() -> tuple[np.ndarray, np.ndarray]:
    """A d = 3 Lindblad generator in the real Hermitian basis, scaled to
    ``‖t G‖₁ = 1e6``, and its trace row."""
    rng = np.random.default_rng(2005)
    d = 3

    def herm():
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (x + x.conj().T) / 2

    jumps = tuple((herm() + 1j * herm(), 1e3) for _ in range(2))
    gen = emdyn.liouville.MasterEquation(herm(), jumps, (d,)).generator()
    g = emdyn.liouville._real_generator(gen, d)
    return 1e6 * g / np.abs(g).sum(axis=0).max(), (np.arange(d * d) < d) * 1.0


def cases() -> list[tuple[str, np.ndarray, np.ndarray | None]]:
    rng = np.random.default_rng(488)
    out = []
    for name, norm in (("taylor8", 0.04), ("taylor12", 0.25),
                       ("taylor18", 1.0), ("taylor24", 2.1),
                       ("taylor24_halved", 20.0)):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out.append((name, norm * x / np.abs(x).sum(axis=0).max(), None))
    out.append(("stiff_pair_block", stiff_pair_block(), None))
    out.append(("real_basis_pinned", *real_basis_lindblad()))
    return out


def mp_error(got, ref) -> float:
    """1-norm of ``got − ref``, where ``ref`` is an mpmath matrix, reckoned
    in mpmath."""
    n = got.shape[-1]
    return float(max(mpmath.fsum(abs(ref[i, j] - complex(got[i, j]))
                                 for i in range(n)) for j in range(n)))


def mp_expm(a: np.ndarray) -> mpmath.matrix:
    with mpmath.workdps(DIGITS + 20):
        return mpmath.expm(mpmath.matrix(a.tolist()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    args = parser.parse_args(argv)
    parent = load_parent(args.parent)
    rows = []
    for name, a, conserved in cases():
        ref = mp_expm(a)
        n = a.shape[0]
        kw = {} if conserved is None else {"conserved": conserved}
        with mpmath.workdps(DIGITS):
            row = {"name": name, "a": a.real.tolist(),
                   "ref": [[mpmath.nstr(ref[i, j].real, DIGITS)
                            for j in range(n)] for i in range(n)],
                   "norm1": float(np.abs(a).sum(axis=0).max()),
                   "parent_err": mp_error(parent.opcore.expm(a, **kw), ref),
                   "change_err": mp_error(emdyn.opcore.expm(a, **kw), ref)}
            if a.dtype.kind == "c":
                row["a_imag"] = a.imag.tolist()
                row["ref_imag"] = [[mpmath.nstr(ref[i, j].imag, DIGITS)
                                    for j in range(n)] for i in range(n)]
        if conserved is not None:
            row["conserved"] = conserved.tolist()
        rows.append(row)
        print(json.dumps({k: row[k] for k in
                          ("name", "norm1", "parent_err", "change_err")}),
              flush=True)
    OUT.write_text(json.dumps({"digits": DIGITS, "cases": rows}, indent=1)
                   + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
