"""Lie-closure scaling curve, perfbench controllability check, end-to-end
wall times and perfbench medians, written to the JSON file named by ``OUT``.

    python benchmarks/lie_scaling.py scaling
    python benchmarks/lie_scaling.py e2e --parent DIR
    python benchmarks/lie_scaling.py pairs --parent DIR --workload NAME \
        --seed N --pairs K

``scaling`` times ``control.lie_closure`` (best of three) against the
per-element Gram–Schmidt loop ``tests/conftest.py::mgs_lie_closure`` (run
once) at d = 2, 4, 8, 16 on random dense generator pairs and at d = 4, 8, 16
on the uniform Ising chain (``tests/conftest.py::ising_chain``), with the
largest elementwise difference of the two bases.  Every dimension is checked
against ``tests/conftest.py::svd_rank_closure``.  It then rebuilds the
controllability scenarios of perfbench's ``mode_elimination`` cycles 0–2 at
seeds 3 and 9001 from ``perfbench/workloads.py`` and checks both closure
dimensions of each against the SVD oracle.  ``e2e`` and ``pairs`` are
``benchmarks/block_scaling.py``'s end-to-end timer and alternating perfbench
runner.  Each subcommand updates its own key of the JSON file and the machine
info.  BLAS is pinned to one thread in this process and in the runs it
starts.  Exit status 1 when a dimension disagrees with the oracle.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import block_scaling  # pins BLAS to one thread before numpy loads
from block_scaling import add_pairs_parser, e2e, machine, pairs, timed

import numpy as np

ROOT = block_scaling.ROOT
sys.path.insert(0, str(ROOT / "perfbench"))

import run as perfbench_run  # noqa: E402
import workloads  # noqa: E402
from conftest import (ising_chain, mgs_lie_closure, rand_hermitian,  # noqa: E402
                      svd_rank_closure)
from emdyn import control, scenario  # noqa: E402

OUT = ROOT / "BENCH_7.json"


def closure_cases():
    for d in (2, 4, 8, 16):
        rng = np.random.default_rng([7, d])
        yield "random_pair", d, [rand_hermitian(rng, d), rand_hermitian(rng, d)]
    for n in (2, 3, 4):
        yield "ising_chain", 2 ** n, ising_chain(n)


def controllability_scenarios(seeds=(3, 9001), cycles=(0, 1, 2)):
    """(seed, cycle, variant, text) of each perfbench controllability item.

    Wraps ``workloads._scenario_doc`` while a cycle is built, so the seeded
    stream and the documents are exactly the benchmark's.
    """
    found, make_doc = [], workloads._scenario_doc

    def recording(rng, task, variant):
        text, meta = make_doc(rng, task, variant)
        if task == "controllability":
            found.append((variant, text))
        return text, meta

    workloads._scenario_doc = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            ctx = workloads.Context(Path(tmp))
            for seed in seeds:
                for cycle in cycles:
                    found.clear()
                    workloads.mode_elimination_cycle(
                        perfbench_run._rng(seed, "mode_elimination", cycle), ctx)
                    yield from ((seed, cycle, v, t) for v, t in found)
    finally:
        workloads._scenario_doc = make_doc


def scaling(args) -> dict:
    rows, checks = [], []
    for kind, d, gens in closure_cases():
        oracle_ms, want = timed(lambda: mgs_lie_closure(gens))
        library_ms, got = timed(lambda: control.lie_closure(gens), 3)
        rows.append({"kind": kind, "d": d, "oracle_ms": round(oracle_ms, 2),
                     "library_ms": round(library_ms, 2),
                     "dimension": got.dimension, "oracle_dimension": len(want),
                     "svd_dimension": svd_rank_closure(gens),
                     "max_abs_diff": max(float(np.max(np.abs(a - b)))
                                         for a, b in zip(got.elements, want))})
        print(json.dumps(rows[-1]), flush=True)
    for seed, cycle, variant, text in controllability_scenarios():
        s = scenario.parse_scenario(text)
        c, controls = s.build_coupling(), list(s.value("system.controls"))
        lam = s.value("system.lambda_a")
        drift = control.dissipation_induced_drift(c, lam)
        t0 = time.perf_counter()
        dims = control.controllability_delta(c, lam, controls)
        ms = 1e3 * (time.perf_counter() - t0)
        want = (svd_rank_closure(controls), svd_rank_closure(controls + [drift]))
        checks.append({"seed": seed, "cycle": cycle, "variant": variant,
                       "dims": list(dims), "svd_dims": list(want),
                       "ms": round(ms, 2)})
        print(json.dumps(checks[-1]), flush=True)
    ok = (all(r["dimension"] == r["oracle_dimension"] == r["svd_dimension"]
              for r in rows)
          and all(c["dims"] == c["svd_dims"] for c in checks))
    return {"scaling": rows, "perfbench_controllability": checks,
            "all_match_svd_oracle": ok}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("scaling")
    sub.add_parser("e2e").add_argument("--parent", required=True)
    add_pairs_parser(sub)
    args = parser.parse_args(argv)
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    result = {"scaling": scaling, "e2e": e2e, "pairs": pairs}[args.cmd](args)
    data.update(result)
    data["machine"] = machine()
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0 if result.get("all_match_svd_oracle", True) else 1


if __name__ == "__main__":
    sys.exit(main())
