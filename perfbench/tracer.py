"""Span tracing placed around emdyn's public functions from outside the library.

:meth:`Tracer.install` replaces every traced function in *every* emdyn
module namespace that binds it (``emergent``, ``bounds`` and ``circuit``
import ``propagate``/``herm_eig`` by name, so patching only the defining
module would miss those calls), plus ``MasterEquation.generator`` on its
class.  :meth:`Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent, item, attr)``: ``parent`` is the index
of the enclosing span (−1 at top level), ``item`` the benchmark item id, and
``attr`` an exact per-call quantity for a few functions (state dimension,
computed generator bytes, Lie-algebra dimension, artifact bytes).  Spans
stay in memory; :meth:`Tracer.dump` writes them once at the end.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("opcore", "liouville", "emergent", "bounds", "control", "circuit",
           "scenario", "cli")

# Leaf helpers called inside inner loops (``hs_inner`` runs ~10^5 times per
# su(16) closure).  A span per call would measure the tracer, not the layer,
# so their time is counted in the caller's self time instead.
UNTRACED = {"opcore.hs_inner", "opcore.frob_norm", "opcore.vec",
            "opcore.unvec", "opcore.is_hermitian"}

SUPEROP_BUILDERS = ("opcore.hamiltonian_superop", "opcore.dissipator_superop",
                    "opcore.left_superop", "opcore.right_superop")


def _state_dim(args, kwargs, result):
    rho0 = args[1] if len(args) > 1 else kwargs["rho0"]
    return int(np.shape(rho0)[0])


def _nbytes(args, kwargs, result):
    return int(result.size * result.itemsize)


def _lie_dim(args, kwargs, result):
    return int(result.dimension)


def _artifact_bytes(args, kwargs, result):
    out = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


ATTRS = {
    "liouville.propagate": _state_dim,
    "liouville.build_full_generator": _nbytes,
    "liouville.MasterEquation.generator": _nbytes,
    "opcore.hamiltonian_superop": _nbytes,
    "opcore.dissipator_superop": _nbytes,
    "control.lie_closure": _lie_dim,
    "cli.run": _artifact_bytes,
}

GENERATOR_BUILDERS = ("liouville.build_full_generator",
                      "liouville.MasterEquation.generator",
                      "opcore.hamiltonian_superop",
                      "opcore.dissipator_superop")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        attr_of = ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item, None)
            if attr_of is not None:
                spans[idx] = spans[idx][:5] + (attr_of(args, kwargs, result),)
            return result

        return traced

    def install(self) -> None:
        pkg = importlib.import_module("emdyn")
        mods = {m: importlib.import_module(f"emdyn.{m}") for m in MODULES}
        namespaces = [pkg, *mods.values()]
        for short, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or name in UNTRACED):
                    continue
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, value))
                            setattr(ns, key, wrapper)
        me = mods["liouville"].MasterEquation
        self._patches.append((me, "generator", me.generator))
        me.generator = self._wrap("liouville.MasterEquation.generator",
                                  me.generator)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item",
                                  "attr"], "spans": self.spans}, fh)

    def layer_stats(self) -> dict:
        """Per-name calls, inclusive busy time, self time and (duration, attr)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                     "samples": []})
        for i, (name, start, end, _, _, attr) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["samples"].append((end - start, attr))
        return dict(stats)


def fixed_gap_span_counts() -> dict:
    """Span counts of one fixed ``equivalence_gap`` call (wrapper self-test)."""
    from emdyn import emergent, liouville
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    c = liouville.DissipativeCoupling(A=sz, B=sx, gamma=100.0, eta=1.0,
                                      phi=np.pi / 2)
    tracer = Tracer()
    tracer.install()
    try:
        emergent.equivalence_gap(c, p0, p0, 1.0)
    finally:
        tracer.uninstall()
    counts: dict = defaultdict(int)
    for span in tracer.spans:
        counts[span[0]] += 1
    return dict(counts)
