#!/usr/bin/env python3
"""Layered benchmark of the ADAPT localization system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload alert-stream --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory):

* ``alert-stream`` -- open-loop Poisson alerts at a fixed 15 req/s.
* ``alert-burst``  -- bursts of 128 alerts all due at once.
* ``campaign-sweep`` -- a Fig.-9 fluence sweep on two workers.

Every run checks its outputs before reporting (a failed check exits 1
with no figures), prints a table of its figures, and prints as its last
line one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; with ``--trace 1`` they are the per-layer ones from a separate
traced pass over the same operations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread per process, set before numpy loads and inherited by
# the campaign's spawned workers: the runs then use at most the two
# cores the workloads are sized for, and threads never wait on each
# other across an oversubscribed core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from layers import LAYERS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("alert-stream", "alert-burst", "campaign-sweep")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Units of the end-to-end figures, in table order.
UNITS = {
    "setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "in_slo_frac": "ratio", "failed_frac": "ratio",
    "unlocalized_frac": "ratio", "median_error_deg": "deg", "miss_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics of the JSON line (all non-zero on every workload).
#: The other rows are printed in the table only, because they can be 0
#: and so cannot carry a relative bound: ``failed_frac`` (the JSON's
#: ``failed / attempted``, 0 by design), ``unlocalized_frac`` (also
#: counted in ``miss_frac``) and ``in_slo_frac`` (alert workloads only;
#: 0 on ``alert-burst``).
END_TO_END = (
    "latency_p50_ms", "latency_tail_ms", "throughput_per_s", "setup_s",
    "median_error_deg", "miss_frac", "peak_rss_mb",
)

_ALERT = "latency_p50_ms on alert-stream, throughput_per_s on alert-burst"
_BURST = "throughput_per_s on alert-burst"
_STREAM = "latency_p50_ms on alert-stream"
_CAMPAIGN = "throughput_per_s on campaign-sweep"
_SIMULATION = "throughput_per_s on campaign-sweep, setup_s on alert-*"
_BEHAVIOUR = "nothing: an exact count, a change is a change of behaviour"

#: Per-layer metrics: ``name -> (unit, end-to-end figure it should move)``.
PER_LAYER = {
    "serve.rounds_per_req": ("count", _BURST),
    "serve.jobs_per_round": ("count", _BURST),
    "serve.rows_per_round": ("count", _BURST),
    "serve.flush_ms_per_req": ("ms", _STREAM),
    "serve.deadline_flush_frac": ("ratio", _STREAM),
    "serve.pending_idle_ms_per_req": ("ms", _STREAM),
    "infer.ms_per_op": ("ms", _BURST + " (small share)"),
    "infer.calls_per_op": ("count", _BURST + " (small share)"),
    "infer.rows_per_call": ("count", _BURST + " (small share)"),
    "pipeline.iterations_mean": ("count", _BEHAVIOUR),
    "pipeline.rings_kept_frac": ("ratio", _BEHAVIOUR),
    "localization.approximate_ms_per_op": ("ms", _ALERT),
    "localization.refine_ms_per_op": ("ms", _ALERT),
    "localization.chi2_ms_per_op": ("ms", _ALERT),
    "localization.chi2_evals_per_op": ("count", _ALERT + " (exact count)"),
    "localization.chi2_evals_per_s": ("1/s", _ALERT),
    "localization.chi2_mb_per_op_computed": ("MB", _ALERT),
    "localization.skymap_ms_per_op": ("ms", _ALERT),
    "localization.skymap_cells_per_op": ("count", _ALERT + " (exact count)"),
    "reconstruction.prepare_ms_per_op": ("ms", _ALERT),
    "reconstruction.rings_per_op": ("count", _BEHAVIOUR),
    "reconstruction.rings_kept_frac": ("ratio", _BEHAVIOUR),
    "detector.digitize_ms_per_trial": ("ms", _CAMPAIGN),
    "detector.events_per_trial": ("count", _BEHAVIOUR),
    "physics.transport_ms_per_trial": ("ms", _SIMULATION),
    "physics.photons_per_trial": ("count", _BEHAVIOUR),
    "physics.photons_per_s": ("1/s", _SIMULATION),
    "sources.generate_ms_per_trial": ("ms", _SIMULATION),
    "parallel.map_ms_per_trial": ("ms", _CAMPAIGN),
    "parallel.efficiency": ("ratio", _CAMPAIGN),
    "parallel.retries": ("count", _CAMPAIGN),
    "loadgen.late_p99_ms": ("ms", "nothing: validity of the open loop"),
    "trace.overhead_frac": ("ratio", "nothing: validity of the trace"),
    "trace.coverage_frac": ("ratio", "nothing: validity of the trace"),
}
PER_LAYER.update({
    f"{layer}.self_ms_per_op": ("ms", "its layer's share of operation time")
    for layer in LAYERS
})

#: The layer expected to dominate traced self time on each workload.
PREDICTED_TOP = {"alert-stream": "localization", "alert-burst": "localization",
                 "campaign-sweep": "physics"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def print_end_to_end(rows: dict) -> None:
    print(f"{'metric':<20} {'value':>14} {'unit':<6} {'samples':>7}  note")
    for name, unit in UNITS.items():
        if name in rows:
            value, samples, note = rows[name]
            print(f"{name:<20} {value:>14.6g} {unit:<6} {samples:>7}  {note}")


def print_per_layer(workload: str, report: dict) -> None:
    rows = report["per_layer"]
    print(f"{'metric':<38} {'value':>14} {'unit':<6}  should move")
    for name, (unit, mover) in PER_LAYER.items():
        value = rows[name]
        print(f"{name:<38} {value:>14.6g} {unit:<6}  {mover}")
    op_s, ops = report["op_s"], report["ops"]
    print(f"\nlayer self time over {ops} operations "
          f"({op_s:.3f} s of traced operation time)")
    print(f"{'layer':<16} {'self ms/op':>11} {'share':>7} {'calls':>9}")
    tracer = report["tracer"]
    self_s = tracer.self_s
    for layer in LAYERS:
        calls = sum(n for key, n in tracer.calls.items()
                    if key.startswith(layer + "."))
        print(f"{layer:<16} {self_s.get(layer, 0.0) * 1e3 / ops:>11.3f} "
              f"{self_s.get(layer, 0.0) / op_s:>7.1%} {calls:>9}")
    top = max(LAYERS, key=lambda layer: self_s.get(layer, 0.0))
    predicted = PREDICTED_TOP[workload]
    verdict = "as predicted" if top == predicted else "NOT as predicted"
    print(f"largest self-time layer: {top} "
          f"({self_s.get(top, 0.0) / op_s:.1%}); predicted {predicted}: "
          f"{verdict}")


def stop_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    Covers executors a failed run did not close, any other child, and
    the resource tracker that the ``spawn`` start method launches: left
    alone, the tracker only notices its parent is gone a moment after
    the run exits.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    executor = sys.modules.get("repro.parallel.executor")
    if executor is not None:
        executor.shutdown_executors()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              f"of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import alert
    import campaign
    from measure import BenchmarkError

    trace = bool(args.trace)
    try:
        if args.workload == "campaign-sweep":
            report = campaign.run(args.seed, args.seconds, trace, SETUP_REPEATS)
        else:
            report = alert.run(args.workload, args.seed, args.seconds, trace,
                               SETUP_REPEATS)
    except BenchmarkError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_processes()

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("correctness checks passed")
    for failure in report["failures"]:
        print(f"failed: {failure}")
    if trace:
        print_per_layer(args.workload, report)
        metrics = {
            name: {"value": report["per_layer"][name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        print_end_to_end(report["end_to_end"])
        metrics = {
            name: {"value": report["end_to_end"][name][0], "unit": UNITS[name]}
            for name in END_TO_END
        }
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
