"""The ``alert-stream`` and ``alert-burst`` workloads.

Set-up trains the networks, compiles the planned float64 engine,
simulates the exposure corpus and localizes every exposure once (first
passes run about three times slower than warm ones).

Before timing, the first requests of the plan are served together and
must equal ``localize_many`` on the same inputs bit for bit (same round
groupings), and per-event ``MLPipeline.localize`` to the last bits of
float64 (see ``measure.BATCHED_RTOL``).  After timing, every answer is
checked for form and scored against its exposure's true direction, and
a spread sample of them is recomputed per event and compared the same
way.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import corpus
import layers
import loadgen
from measure import (
    BenchmarkError,
    accuracy,
    angle_deg,
    check_answer,
    nearest_rank,
    peak_rss_mb,
    same_outcome,
    tail,
)

#: The serve SLO's per-request latency limit (``p99_ms`` of the repo's
#: default spec), applied to every request for ``in_slo_frac``.
SLO_LIMIT_S = 1.0

#: Requests checked against the offline paths before timing.
PARITY_REQUESTS = 6

#: Timed answers recomputed per event after timing.
SPOT_CHECKS = 12


class AlertFixture:
    """Everything set-up builds for the alert workloads."""

    def __init__(self) -> None:
        from repro.infer import build_engine

        geometry, response = corpus.detector()
        self.pipeline = corpus.train_pipeline(geometry, response, skymap=True)
        self.engine = build_engine(self.pipeline, "planned", dtype="float64")
        self.pool = corpus.simulate_pool(geometry, response)
        for k, entry in enumerate(self.pool):
            self.localize(entry, np.random.default_rng([corpus.CORPUS_SEED, k]))

    def localize(self, entry, rng):
        """Per-event reference localization of one pool exposure."""
        return self.pipeline.localize(entry.events, rng, engine=self.engine)


def _rng(request) -> np.random.Generator:
    return np.random.default_rng(request.stream)


def check_parity(fx: AlertFixture, plan) -> None:
    """Served == per-event == ``localize_many`` on the plan's head."""
    from repro.infer import localize_many

    head = [
        loadgen.Request(i, 0, 0.0, r.entry, r.stream)
        for i, r in enumerate(plan[:PARITY_REQUESTS])
    ]
    events = [fx.pool[r.entry].events for r in head]
    solo = [fx.localize(fx.pool[r.entry], _rng(r)) for r in head]
    many = localize_many(
        fx.pipeline, events, [_rng(r) for r in head], engine=fx.engine
    )
    served = loadgen.serve_plan(fx.pipeline, fx.engine, fx.pool, head)
    for r, a, b, c in zip(head, solo, many, served.outcomes):
        if c is None:
            raise BenchmarkError(f"parity request {r.index} failed: "
                                 f"{served.errors[r.index]}")
        if not same_outcome(b, c):
            raise BenchmarkError(f"served outcome differs from localize_many "
                                 f"on request {r.index}")
        if not same_outcome(a, c, exact=False):
            raise BenchmarkError(f"served outcome differs from per-event "
                                 f"localize on request {r.index}")


def check_phase(fx: AlertFixture, plan, phase) -> list[float]:
    """Check every answer; return per-request errors (deg) vs truth."""
    answered = [r for r in plan if phase.outcomes[r.index] is not None]
    for r in answered:
        check_answer(phase.outcomes[r.index])
    step = max(1, len(answered) // SPOT_CHECKS)
    for r in answered[::step]:
        if not same_outcome(phase.outcomes[r.index],
                            fx.localize(fx.pool[r.entry], _rng(r)),
                            exact=False):
            raise BenchmarkError(f"served request {r.index} differs from "
                                 f"per-event localize")
    return [
        angle_deg(
            None if phase.outcomes[r.index] is None
            else phase.outcomes[r.index].direction,
            fx.pool[r.entry].truth,
        )
        for r in plan
    ]


def group_latencies(plan, phase) -> list[list[float]]:
    """Per request group (one per burst), its answered latencies."""
    groups = [[] for _ in phase.group_wall_s]
    for r in plan:
        if phase.latency_s[r.index] is not None:
            groups[r.group].append(phase.latency_s[r.index])
    return groups


def end_to_end(plan, phase, errors, setup_s: list[float]) -> dict:
    """End-to-end rows: ``name -> (value, samples, note)``.

    Throughput and latency are taken per request group and their median
    over the groups is reported, so a few seconds of a slowed host move
    one burst of ``alert-burst`` and not its figures; ``alert-stream``
    is a single group.
    """
    n = len(plan)
    latencies = [s for s in phase.latency_s if s is not None]
    groups = group_latencies(plan, phase)
    answered = [g for g in groups if g]
    over = f", median of {len(groups)} bursts" if len(groups) > 1 else ""
    median_err, miss = accuracy(errors)
    tails = [tail(g) for g in answered]
    tail_pct = tails[0][1] if tails else 100.0
    in_slo = sum(1 for s in latencies if s <= SLO_LIMIT_S)
    unlocalized = sum(
        1 for o in phase.outcomes if o is not None and o.direction is None
    )
    return {
        "setup_s": (float(np.median(setup_s)), len(setup_s),
                    "median of set-ups"),
        "throughput_per_s": (
            float(np.median([len(g) / w for g, w in
                             zip(groups, phase.group_wall_s)])), n,
            f"answered requests per second of wall time{over}"),
        "latency_p50_ms": (
            float(np.median([nearest_rank(g, 0.5) for g in answered])) * 1e3,
            len(latencies), f"from due time{over}"),
        "latency_tail_ms": (
            float(np.median([t for t, _ in tails])) * 1e3, len(latencies),
            f"p{tail_pct:.1f}, from due time{over}"),
        "in_slo_frac": (in_slo / n, n,
                        f"answered within {SLO_LIMIT_S * 1e3:.0f} ms of due"),
        "failed_frac": ((n - len(latencies)) / n, n,
                        "shed, refused or raised"),
        "unlocalized_frac": (unlocalized / n, n, "answered with no direction"),
        "median_error_deg": (median_err, n, "vs true direction"),
        "miss_frac": (miss, n, "error > 10 deg or no direction"),
        "peak_rss_mb": (peak_rss_mb(), 1, "benchmark process"),
    }


def per_layer(timed, traced, tracer, setup_tracer) -> dict:
    """Per-layer figures from the traced pass (``name -> value``)."""
    ops = sum(1 for o in traced.outcomes if o is not None)
    stats = traced.stats
    rounds = stats["rounds"]
    rows = {
        "serve.rounds_per_req": rounds / ops,
        "serve.jobs_per_round": tracer.work["serve.jobs"] / rounds,
        "serve.rows_per_round": stats["rows_flushed"] / rounds,
        "serve.flush_ms_per_req": tracer.incl_s["serve.flush"] * 1e3 / ops,
        "serve.deadline_flush_frac": (
            tracer.work["serve.flush.deadline"] / rounds),
        "serve.pending_idle_ms_per_req": traced.pending_idle_s * 1e3 / ops,
        "parallel.map_ms_per_trial": 0.0,
        "parallel.efficiency": 0.0,
        "parallel.retries": 0.0,
        "loadgen.late_p99_ms": nearest_rank(timed.late_s, 0.99) * 1e3,
        "trace.overhead_frac": traced.busy_s / timed.busy_s - 1.0,
        "trace.coverage_frac": tracer.covered_s() / traced.busy_s,
    }
    rows.update(layers.common_rows(tracer, ops))
    rows.update(layers.simulation_rows(setup_tracer))
    return rows


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int) -> dict:
    """Run one alert workload; return its report rows."""
    setup_s = []
    fx = None
    setup_tracer = layers.Tracer()
    for _ in range(1 if trace else setup_repeats):
        fx = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        with setup_tracer.installed(layers.LAYERS if trace else ()):
            fx = AlertFixture()
        setup_s.append(time.perf_counter() - t0)

    gc.collect()  # drop earlier set-ups now, not in the timed pass
    if workload == "alert-stream":
        plan = loadgen.stream_plan(seed, seconds, len(fx.pool))
    else:
        plan = loadgen.burst_plan(seed, seconds, len(fx.pool))
    check_parity(fx, plan)
    timed = loadgen.serve_plan(fx.pipeline, fx.engine, fx.pool, plan)
    errors = check_phase(fx, plan, timed)
    report = {
        "attempted": len(plan),
        "failed": sum(1 for e in timed.errors if e is not None),
        "failures": sorted({e for e in timed.errors if e is not None}),
        "end_to_end": end_to_end(plan, timed, errors, setup_s),
    }
    if trace:
        tracer = layers.Tracer()
        with tracer.installed():
            traced = loadgen.serve_plan(fx.pipeline, fx.engine, fx.pool, plan)
        for r in plan:
            a, b = timed.outcomes[r.index], traced.outcomes[r.index]
            if a is not None and b is not None and not same_outcome(
                a, b, exact=False
            ):
                raise BenchmarkError(f"traced request {r.index} differs "
                                     f"from the timed pass")
        report["per_layer"] = per_layer(timed, traced, tracer, setup_tracer)
        report["tracer"] = tracer
        report["ops"] = sum(1 for o in traced.outcomes if o is not None)
        report["op_s"] = traced.busy_s
    return report
