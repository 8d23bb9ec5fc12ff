"""emdyn benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs a fixed number of cycles untraced and then traced, and
reports per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: with two, OpenBLAS makes the 64x64 superoperator products
# of the pulsed gate tasks several times slower on the 2-core reference machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
REFERENCE_PER_CYCLE = 4     # seeded items re-checked against reference.py
RERUN_PER_CYCLE = 2         # seeded scenario items re-run for byte identity
HELD_OUT_SEED = 9001    # reserved for validating claims; do not tune on it
WORKLOAD_NAMES = ("gap_sweep", "mode_elimination")

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms",
                    "item_ms_tail": "ms", "peak_rss_mb": "MB",
                    "ok_frac": "ratio"}


def _import_library():
    """Import emdyn from this checkout's ``src`` only; None if it is absent."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import emdyn
    except ImportError as exc:
        print(f"perfbench: cannot import emdyn from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(emdyn.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: emdyn was imported from {emdyn.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return None
    return emdyn


def _rng(seed: int, workload: str, cycle: int):
    import numpy as np
    return np.random.default_rng([seed, WORKLOAD_NAMES.index(workload), cycle])


def _cycle(wl, seed, k, ctx):
    return wl.make_cycle(_rng(seed, wl.name, k), ctx)


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"seed": seed, "held_out_seed": HELD_OUT_SEED,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS}


# --------------------------------------------------------------------------
# running items
# --------------------------------------------------------------------------

def _run_items(items, tracer=None):
    """Closed loop, one caller: returns [(item, output, error, seconds)]."""
    records = []
    clock = time.perf_counter
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        try:
            out, err = item.run(), None
        except Exception as exc:  # an item that raises is a failed item
            out, err = None, exc
        records.append((item, out, err, clock() - t0))
    return records


def _check(records, seed, cycle_len):
    """Run every check outside the timed region; returns (failed, unexpected)."""
    import numpy as np
    import workloads
    failures: dict[int, str] = {}

    def guarded(fn, out):
        try:
            return fn(out)
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}"

    for i, (item, out, err, _) in enumerate(records):
        if err is not None:
            failures[i] = f"raised {type(err).__name__}: {err}"
            continue
        reason = guarded(item.check, out)
        if reason:
            failures[i] = reason
    pick = np.random.default_rng([seed, 7919])
    for pool_attr, per_cycle in (("reference", REFERENCE_PER_CYCLE),
                                 ("rerun", RERUN_PER_CYCLE)):
        pool = [i for i, (item, _, err, _) in enumerate(records)
                if getattr(item, pool_attr) is not None and err is None
                and i not in failures]
        n_cycles = max(1, round(len(records) / cycle_len))
        k = min(len(pool), per_cycle * n_cycles)
        for i in sorted(pick.choice(pool, size=k, replace=False)) if k else ():
            item, out = records[i][0], records[i][1]
            reason = guarded(getattr(item, pool_attr), out)
            if reason:
                failures[i] = reason
    unexpected = {i: r for i, r in failures.items()
                  if records[i][0].known_defect is None
                  and not isinstance(r, workloads.KnownDefect)}
    shown = sorted(failures, key=lambda i: (i not in unexpected, i))[:20]
    for i, reason in ((i, failures[i]) for i in shown):
        tag = "known defect" if i not in unexpected else "FAILED"
        print(f"# {tag}: item {i} ({records[i][0].kind}): {reason}",
              file=sys.stderr)
    return len(failures), len(unexpected)


# --------------------------------------------------------------------------
# modes
# --------------------------------------------------------------------------

def _probe(wl, seed, ctx) -> None:
    """One set-up: input generation plus one warm-up item (in a fresh process)."""
    _cycle(wl, seed, 0, ctx)[0].run()


def _setup_seconds(args) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return times


def _percentile(values, pct):
    import numpy as np
    return float(np.percentile(np.asarray(values), pct))


def _measure(wl, args, ctx):
    setup = _setup_seconds(args)
    items = _cycle(wl, args.seed, 0, ctx)
    cycle_len = len(items)
    items[0].run()                      # untimed warm-up item
    records, busy, k = [], 0.0, 0
    while True:
        t0 = time.perf_counter()
        records += _run_items(items)
        busy += time.perf_counter() - t0
        k += 1
        # whole cycles only; stop at the cycle count nearest to --seconds
        if busy + busy / k / 2 >= args.seconds:
            break
        items = _cycle(wl, args.seed, k, ctx)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, unexpected = _check(records, args.seed, cycle_len)
    lat_ms = [r[3] * 1e3 for r in records]
    n = len(records)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": n / busy,
        "item_ms_p50": _percentile(lat_ms, 50.0),
        "item_ms_tail": _percentile(lat_ms, wl.tail_pct),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (n - failed) / n,
    }
    beyond = sum(1 for x in lat_ms if x > metrics["item_ms_tail"])
    print(f"# workload {wl.name}: {k} cycle(s) of {cycle_len} items, "
          f"{n} items in {busy:.3f} s; setup runs {['%.3f' % s for s in setup]}")
    print(f"# item_ms_tail is p{wl.tail_pct:g} over {n} items "
          f"({beyond} beyond it); failed {failed} of {n} "
          f"({failed - unexpected} known-defect)")
    by_kind: dict[str, list] = {}
    for rec, ms in zip(records, lat_ms):
        by_kind.setdefault(rec[0].kind, []).append(ms)
    for kind, values in sorted(by_kind.items(), key=lambda kv: min(kv[1])):
        print(f"# class {kind:32s} n={len(values):4d} median "
              f"{statistics.median(values):10.3f} ms "
              f"[{min(values):.3f}, {max(values):.3f}]")
    for name, value in metrics.items():
        print(f"# {name:14s} {value:14.6f} {END_TO_END_UNITS[name]}")
    return {"correct": unexpected == 0, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def _trace(wl, args, ctx):
    import layers
    import tracer as tr
    counts = tr.fixed_gap_span_counts()
    if counts.get("liouville.propagate") != 1 or counts.get("opcore.expm") != 2:
        print(f"perfbench: wrapper self-test failed: {counts}", file=sys.stderr)
        return None
    print("# wrapper self-test: 1 liouville.propagate and 2 opcore.expm spans")
    items = _cycle(wl, args.seed, 0, ctx)     # one cycle: exact counts per seed
    items[0].run()                      # untimed warm-up item
    t0 = time.perf_counter()
    _run_items(items)
    plain_s = time.perf_counter() - t0
    tracer = tr.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        records = _run_items(items, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    failed, unexpected = _check(records, args.seed, len(items))
    n = len(records)
    metrics = layers.per_layer(tracer.layer_stats(), n / plain_s, n / traced_s)
    path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
    tracer.dump(path)
    print(f"# traced {n} items (one cycle); {len(tracer.spans)} spans written "
          f"to {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:44s} {value:16.6f} {unit}")
    return {"correct": unexpected == 0, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # pinned for this process and its set-up probes, before numpy loads
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if _import_library() is None:
        return 2
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(TMP / f"{args.workload}-{os.getpid()}")
    ctx.tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.probe:
            _probe(wl, args.seed, ctx)
            return 0
        print("# env " + json.dumps(_environment(args.seed), sort_keys=True))
        result = (_trace if args.trace else _measure)(wl, args, ctx)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
