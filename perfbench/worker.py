"""Run one workload in this process and print its results.

``perfbench/run.py`` starts this module in a fresh process per workload,
after pinning BLAS/OpenMP pools to one thread and pointing the import
path at this checkout's ``src``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``,
its ``per_layer`` metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy

import repro
from repro import obs
from repro.sketch import kernels

from perfbench.layers import (
    LayerProbe, MemorySink, ingest_split, layer_metrics, resident_words_by_slot,
)
from perfbench.stats import floor_sum, percentile
from perfbench.workloads import WORKLOADS, Recorder

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / ".out"

#: A run starts no new round after this many seconds in the process, so
#: it ends well inside the three-minute limit even on a slow machine.
ROUND_DEADLINE_S = 110.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_rounds(workload, inputs, rec, rounds, seconds, scratch, started):
    """Rounds until ``rounds`` ran and ``seconds`` are measured.

    Returns ``(session, seconds of every set-up)``: a round sets up
    ``workload.setups`` times and plays on the last session.  Each
    round's timed calls are in ``rec.rounds``.
    """
    setups: list[float] = []
    session = None
    while len(rec.rounds) < rounds or sum(setups) + measured(rec) < seconds:
        if setups and time.perf_counter() - started > ROUND_DEADLINE_S:
            break
        for _ in range(workload.setups):
            session = None
            gc.collect()
            with rec.untraced():
                begin = time.perf_counter()
                session = workload.setup(inputs)
                setups.append(time.perf_counter() - begin)
        rec.new_round()
        session = workload.round(session, inputs, rec, scratch)
    return session, setups


def measured(rec) -> float:
    """Seconds spent in the recorder's timed calls so far."""
    return sum(seconds for calls in rec.rounds for _, seconds in calls)


def end_to_end(rec, session, setups, rounds, setups_per_round) -> dict[str, tuple]:
    """Every end-to-end metric the run's traffic exercised, as
    ``name -> (value, unit, samples)``; ``value`` is ``None`` for a
    percentile without ten samples beyond it.

    ``setup_s``, ``wall_s`` and ``ingest_ups`` use the first ``rounds``
    rounds only, so the estimate is the same on fast and slow code:
    ``setup_s`` is the fastest of their set-ups, ``wall_s`` and
    ``ingest_ups`` their floor sums (``stats.floor_sum``).  Contention
    from other tenants of the host only ever adds time, so the fastest
    repeat is the least disturbed.  Percentiles use every sample of the
    run.
    """
    samples, quality = rec.samples, rec.quality
    first = rec.rounds[:rounds]
    first_setups = setups[: rounds * setups_per_round]
    tokens_per_round = rec.tokens / len(rec.rounds)

    def ms(kind: str, q: float) -> tuple:
        value = percentile(samples[kind], q)
        return (None if value is None else value * 1e3, "ms", len(samples[kind]))

    metrics = {
        "setup_s": (min(first_setups), "s", len(first_setups)),
        "wall_s": (floor_sum(first), "s", len(first)),
        "ingest_ups": (tokens_per_round / floor_sum(first, {"ingest"}), "1/s", len(first)),
        "ingest_batch_ms_p90": ms("ingest", 0.9),
        "resident_words": (session.space_words(), "words", 1),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "failed_frac": (rec.failed / rec.attempted, "ratio", rec.attempted),
    }
    if samples.get("connected_cold"):
        metrics.update({
            "connected_cold_ms_p50": ms("connected_cold", 0.5),
            "spanner_cold_ms_p50": ms("spanner_cold", 0.5),
            "cut_cold_ms_p50": ms("cut_cold", 0.5),
            "cut_rel_err_p50": (percentile(quality["cut_rel_err"], 0.5), "ratio",
                                len(quality["cut_rel_err"])),
            "stretch_max": (max(quality["stretch"], default=None), "ratio",
                            len(quality["stretch"])),
        })
    if samples.get("checkpoint"):
        metrics.update({
            "checkpoint_ms_p50": ms("checkpoint", 0.5),
            "restore_ms_p50": ms("restore", 0.5),
            "checkpoint_bytes": (quality["checkpoint_bytes"][-1], "B", 1),
        })
    return metrics


def environment() -> dict:
    return {
        "kernel_backend": kernels.active_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _print_table(title: str, rows: dict[str, tuple]) -> None:
    print(title)
    for name, (value, unit, count) in rows.items():
        shown = "omitted (fewer than 10 samples beyond it)" if value is None else f"{value:.6g}"
        extra = f"  n={count}" if count else ""
        print(f"  {name:<30} {shown:>14} {unit:<6}{extra}")


def traced_rounds(workload, inputs, rec, rounds, seconds, scratch, started, untraced_wall):
    """Rounds with the tracer armed and the layer wrappers installed.

    The harness's own checks (``rec.untraced``, the end-of-run
    ``finish``) run with both paused, so they are not charged to the
    program's layers.  Returns the per-layer metrics
    (``name -> (value, unit, None)``), the ``ingest split`` line and the
    tracer.
    """
    tracer = obs.Tracer(sink=MemorySink())
    previous = obs.set_tracer(tracer)
    probe = LayerProbe(tracer).install()
    rec.untraced = probe.paused
    try:
        session, _ = run_rounds(workload, inputs, rec, rounds, seconds, scratch, started)
        with probe.paused():
            workload.finish(session, rec)
    finally:
        probe.uninstall()
        obs.set_tracer(previous)
    metrics = layer_metrics(tracer, probe, len(rec.rounds))
    metrics.update({k: (v, "words") for k, v in resident_words_by_slot(session).items()})
    traced_wall = floor_sum(rec.rounds[:rounds])
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    rows = {name: (value, unit, None) for name, (value, unit) in metrics.items()}
    return rows, ingest_split(tracer.phases), tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"repro imported from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    # The inputs live for the whole run: keep them out of every collection.
    gc.collect()
    gc.freeze()
    env = environment()
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"loop: closed, one caller  sizes {json.dumps(workload.sizes())}")
    print(f"environment {json.dumps(env)}")

    scratch = OUT / f"{workload.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    rec, traced_rec = Recorder(), Recorder()
    traced = None
    # A traced run splits its time and rounds between an untraced and a
    # traced half; their floor sums give trace.overhead_frac.
    rounds = max(1, workload.rounds // 2) if args.trace else workload.rounds
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        session, setups = run_rounds(workload, inputs, rec, rounds, seconds, scratch, started)
        workload.finish(session, rec)
        plain = end_to_end(rec, session, setups, rounds, workload.setups)
        if args.trace:
            session = None
            traced, split, tracer = traced_rounds(
                workload, inputs, traced_rec, rounds, seconds, scratch, started,
                plain["wall_s"][0])
            _write_trace(workload.name, args.seed, env, tracer, traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    raw = {"setup_s": setups, "rounds": rec.rounds, "samples": rec.samples, "quality": rec.quality}
    raw_path = OUT / f"raw-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    raw_path.write_text(json.dumps(raw))

    walls = [sum(t for _, t in calls) for calls in rec.rounds]
    print(f"rounds ({rounds} estimate the times): setup_s {[round(x, 4) for x in setups]}  "
          f"timed calls {[round(x, 4) for x in walls]}")
    _print_table(f"end-to-end ({'untraced half of the' if traced else 'untraced'} run)", plain)
    if traced is not None:
        _print_table("per-layer (traced rounds; self times and counts per round)", traced)
        print(f"ingest split (inclusive of columnar and kernels): {split}")
    failures = rec.failures + traced_rec.failures
    for failure in failures:
        print(f"FAILED: {failure}")

    chosen = spec["per_layer"] if traced is not None else spec["end_to_end"]
    source = traced if traced is not None else plain
    metrics = {}
    for entry in chosen:
        value, unit, _ = source[entry["name"]]
        if value is None or unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: measured {value} {unit}, declared {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": rec.failed + traced_rec.failed == 0,
        "attempted": rec.attempted + traced_rec.attempted,
        "failed": rec.failed + traced_rec.failed,
        "metrics": metrics,
    }))
    return 0


def _write_trace(name: str, seed: int, env: dict, tracer, traced: dict) -> None:
    """The traced run as JSONL: a run header, the spans kept in memory,
    the layer table, then the tracer's own counter and histogram summary."""
    path = OUT / f"trace-{name}-seed{seed}.jsonl"
    sink = obs.JsonlSink(path)
    sink.write({"type": "run", "workload": name, "seed": seed, **env})
    for record in tracer.sink.records:
        sink.write(record)
    for metric, (value, unit, _) in traced.items():
        sink.write({"type": "layer", "name": metric, "value": value, "unit": unit})
    tracer.sink = sink
    tracer.close()
    print(f"trace written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
