"""Self-tests of the benchmark's tracing and of BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_fixed_gap_records_one_propagate_and_two_expm():
    counts = tracer.fixed_gap_span_counts()
    assert counts["liouville.propagate"] == 1
    assert counts["opcore.expm"] == 2
    assert counts["emergent.equivalence_gap"] == 1


def test_uninstall_restores_every_binding():
    from emdyn import bounds, circuit, emergent, liouville
    before = (emergent.propagate, bounds.propagate, circuit.propagate,
              liouville.propagate, liouville.MasterEquation.generator)
    t = tracer.Tracer()
    t.install()
    try:
        # the by-name imports are patched too, not only the defining module
        assert emergent.propagate is bounds.propagate is liouville.propagate
        assert emergent.propagate is not before[0]
    finally:
        t.uninstall()
    assert (emergent.propagate, bounds.propagate, circuit.propagate,
            liouville.propagate, liouville.MasterEquation.generator) == before


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    printed = layers.per_layer({}, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in printed.items()]
