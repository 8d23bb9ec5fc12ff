"""Per-layer metrics derived from the spans of a traced run.

Names are ``<module>.<function>.<stat>``: ``calls`` is an exact count,
``busy_s`` inclusive time, ``self_s`` inclusive time minus the time covered
by child spans.  Each line notes the end-to-end metric (and workload) it is
expected to move.  ``per_layer`` returns the metrics in this order, and
BENCHMARK.json lists the same names and units.
"""
from __future__ import annotations

import numpy as np

from tracer import GENERATOR_BUILDERS, SUPEROP_BUILDERS

PROPAGATE_DIMS = (4, 8, 16, 32)

# (function name, stat, unit); the metric is named f"{function}.{stat}" and
# stat is a key of Tracer.layer_stats
SIMPLE = (
    # items_per_s / item_ms_p50 on gap_sweep and mode_elimination; the
    # self time is propagate's validation (eigvalsh, drift checks)
    ("opcore.expm", "calls", "count"),
    ("opcore.expm", "self_s", "s"),
    ("liouville.propagate", "calls", "count"),
    ("liouville.propagate", "busy_s", "s"),
    ("liouville.propagate", "self_s", "s"),
    # item_ms_p50 on gap_sweep and mode_elimination
    ("liouville.build_full_generator", "calls", "count"),
    ("liouville.build_full_generator", "self_s", "s"),
    ("liouville.MasterEquation.generator", "calls", "count"),
    ("liouville.MasterEquation.generator", "self_s", "s"),
    # the pulsed gate tasks of mode_elimination (block route, per-call cost)
    ("liouville.propagate_controlled", "busy_s", "s"),
    ("bounds.rotated_frame_marginal", "calls", "count"),
    ("bounds.rotated_frame_marginal", "busy_s", "s"),
    ("bounds.rotated_frame_marginal", "self_s", "s"),
    ("bounds.empirical_error", "busy_s", "s"),
    ("bounds.make_gate_task", "busy_s", "s"),
    # per-call validation in small calls; ~0 change on gap_sweep
    ("opcore.herm_eig", "calls", "count"),
    ("opcore.check_density", "calls", "count"),
    ("opcore.check_density", "self_s", "s"),
    # items_per_s on gap_sweep
    ("emergent.equivalence_gap", "calls", "count"),
    ("emergent.equivalence_gap", "busy_s", "s"),
    ("emergent.nonreciprocity_report", "busy_s", "s"),
    ("emergent.fit_power_law", "self_s", "s"),
    # items_per_s on mode_elimination
    ("circuit.build_system_bath", "busy_s", "s"),
    ("circuit.build_jrm_effective", "busy_s", "s"),
    ("circuit.validate_elimination", "busy_s", "s"),
    ("circuit.validate_elimination", "self_s", "s"),
    # the front-end scenarios of mode_elimination (CLI thinning, collectors)
    ("control.lie_closure", "calls", "count"),
    ("control.lie_closure", "busy_s", "s"),
    ("scenario.parse_scenario", "calls", "count"),
    ("scenario.parse_scenario", "self_s", "s"),
    ("cli.run", "self_s", "s"),
    # reductions in small calls and scenarios
    ("opcore.partial_trace", "self_s", "s"),
    ("opcore.trace_distance", "self_s", "s"),
)


def per_layer(stats, items_per_s_plain: float, items_per_s_traced: float) -> dict:
    """Metric name -> (value, unit); absent layers read 0."""
    def stat(name, key):
        s = stats.get(name)
        return 0 if s is None else s[key]

    out = {f"{fn}.{key}": (stat(fn, key), unit) for fn, key, unit in SIMPLE}
    out["opcore.superop_build.self_s"] = (
        sum(stat(fn, "self_s") for fn in SUPEROP_BUILDERS), "s")
    # Hilbert-dimension scaling of one propagation (ROADMAP aim 1); moves
    # item_ms_tail on gap_sweep.  0 means no propagation of that size.
    def attrs(name):
        s = stats.get(name)
        return [] if s is None else [a for _, a in s["samples"] if a is not None]

    prop = stats.get("liouville.propagate")
    for d in PROPAGATE_DIMS:
        ms = [dur * 1e3 for dur, dim in prop["samples"] if dim == d] if prop else []
        out[f"liouville.propagate.ms_p50.D{d}"] = (
            float(np.median(ms)) if ms else 0.0, "ms")
    # computed from the shapes of the returned generators, not measured;
    # moves peak_rss_mb on gap_sweep and mode_elimination
    out["liouville.generator_bytes_max"] = (
        max((a for fn in GENERATOR_BUILDERS for a in attrs(fn)), default=0),
        "bytes_computed")
    out["control.lie_closure.dim_sum"] = (sum(attrs("control.lie_closure")),
                                          "count")
    out["cli.run.bytes"] = (sum(attrs("cli.run")), "bytes")
    out["trace.items_per_s_untraced"] = (items_per_s_plain, "1/s")
    out["trace.items_per_s_traced"] = (items_per_s_traced, "1/s")
    out["trace.overhead_frac"] = (1.0 - items_per_s_traced / items_per_s_plain,
                                  "ratio")
    return out
