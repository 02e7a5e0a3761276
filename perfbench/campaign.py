"""The ``campaign-sweep`` workload: a Fig.-9-shaped fluence sweep.

Each sweep point is one ``run_trials`` call (``cache=None``) on one
persistent two-worker ``CampaignExecutor``, under the ``baseline`` and
the ``ml`` (planned engine) conditions at every fluence.  Simulation
dominates here and the serve layer is not used.  The trial seeds are a
fixed corpus (see ``corpus``); the workload seed orders the points of
each pass.

Before timing, a few trials of each condition must give bitwise the same
errors at two workers and on the serial executor.  The traced run
covers the first pass only: it runs it at two workers, replays every
point in-process on the serial executor, checks its errors against the
two-worker run bit for bit, and serves as the single-process baseline
of ``parallel.efficiency``.  One pass keeps those three runs of it well
inside the time a benchmark run may take.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

import corpus
import layers
from measure import (
    BenchmarkError,
    NO_DIRECTION_DEG,
    accuracy,
    nearest_rank,
    peak_rss_mb,
    tail,
)

SWEEP_FLUENCES = tuple(float(f) for f in np.linspace(0.1, 1.2, 6))
SWEEP_POLAR_DEG = 30.0
CONDITIONS = ("baseline", "ml")
TRIALS_PER_POINT = 8
WORKERS = 2

#: Sizes the number of sweep passes from ``--seconds`` so that the trial
#: set is a function of the arguments alone (never of measured speed).
NOMINAL_TRIALS_PER_S = 10.0

#: Trials per condition compared between two workers and serial.
PARITY_TRIALS = 2


@dataclass(frozen=True)
class Point:
    """One sweep point: a ``run_trials`` call."""

    index: int
    fluence: float
    condition: str
    seed: int


def sweep_plan(seed: int, seconds: float) -> list[Point]:
    """Whole sweep passes, each pass's points in a seed-drawn order."""
    cells = [(f, c) for f in SWEEP_FLUENCES for c in CONDITIONS]
    passes = max(1, round(
        seconds * NOMINAL_TRIALS_PER_S / (len(cells) * TRIALS_PER_POINT)
    ))
    trial_seeds = np.random.SeedSequence(corpus.CORPUS_SEED + 1).generate_state(
        passes * len(cells)
    )
    rng = np.random.default_rng([seed, 3])
    plan = []
    for p in range(passes):
        for j in rng.permutation(len(cells)):
            fluence, condition = cells[j]
            plan.append(Point(len(plan), fluence, condition,
                              int(trial_seeds[p * len(cells) + j])))
    return plan


def trial_config(fluence: float, condition: str):
    """The ``TrialConfig`` of a sweep point."""
    from repro.experiments.trials import TrialConfig

    return TrialConfig(
        fluence_mev_cm2=fluence,
        polar_angle_deg=SWEEP_POLAR_DEG,
        condition=condition,
        infer_backend="planned" if condition == "ml" else "reference",
    )


class CampaignFixture:
    """Detector, trained networks and a warm two-worker executor."""

    def __init__(self) -> None:
        from repro.parallel import CampaignExecutor

        self.geometry, self.response = corpus.detector()
        self.pipeline = corpus.train_pipeline(
            self.geometry, self.response, skymap=False
        )
        self.executor = CampaignExecutor(WORKERS)
        for condition in CONDITIONS:  # spawn imports, first broadcast
            self.trials(
                Point(-1, SWEEP_FLUENCES[-1], condition, corpus.CORPUS_SEED),
                self.executor, WORKERS,
            )

    def trials(self, point: Point, executor, n: int = TRIALS_PER_POINT):
        """Errors (deg) of the point's first ``n`` trials."""
        from repro.experiments.trials import run_trials

        return run_trials(
            self.geometry, self.response, point.seed, n,
            trial_config(point.fluence, point.condition), self.pipeline,
            executor=executor, cache=None,
        )

    def close(self) -> None:
        """Stop and join the worker processes."""
        self.executor.close()


@dataclass
class SweepResult:
    """Per-point errors and latencies of one pass over a plan."""

    errors: list
    latency_s: list
    failures: list
    wall_s: float


def run_sweep(fx: CampaignFixture, plan: list[Point], executor) -> SweepResult:
    """Run every point of ``plan`` on ``executor``; time each."""
    from repro.parallel import CampaignWorkerError

    errors, latency, failures = [], [], []
    start = time.perf_counter()
    for point in plan:
        t0 = time.perf_counter()
        try:
            errs = np.asarray(fx.trials(point, executor), dtype=np.float64)
        except CampaignWorkerError as exc:
            failures.append(f"point {point.index}: {exc}")
            errs = None
        errors.append(errs)
        latency.append(time.perf_counter() - t0)
    return SweepResult(errors, latency, failures, time.perf_counter() - start)


def _same_errors(a: SweepResult, b: SweepResult, what: str) -> None:
    for k, (x, y) in enumerate(zip(a.errors, b.errors)):
        if x is not None and y is not None and not np.array_equal(x, y):
            raise BenchmarkError(f"{what}: errors of point {k} differ")


def check_parity(fx: CampaignFixture, plan: list[Point]) -> None:
    """A few trials per condition: two workers == serial, bitwise."""
    from repro.parallel import CampaignExecutor

    head = [next(p for p in plan if p.condition == c) for c in CONDITIONS]
    serial = CampaignExecutor(1)
    for point in head:
        a = fx.trials(point, fx.executor, PARITY_TRIALS)
        b = fx.trials(point, serial, PARITY_TRIALS)
        if not np.array_equal(a, b):
            raise BenchmarkError(
                f"{point.condition} trials differ between {WORKERS} workers "
                f"and the serial executor: {a} vs {b}"
            )


def trial_errors(sweep: SweepResult) -> list[float]:
    """Every attempted trial's error; a failed point's trials count 180."""
    out = []
    for errs in sweep.errors:
        if errs is None:
            out.extend([NO_DIRECTION_DEG] * TRIALS_PER_POINT)
            continue
        if not (errs.shape == (TRIALS_PER_POINT,)
                and np.all((errs >= 0) & (errs <= NO_DIRECTION_DEG))):
            raise BenchmarkError(f"malformed trial errors: {errs}")
        out.extend(errs.tolist())
    return out


def end_to_end(sweep: SweepResult, errors, setup_s, rss_mb) -> dict:
    """End-to-end rows: ``name -> (value, samples, note)``."""
    n = len(errors)
    # A trial's answer reaches the caller when its point's run_trials
    # returns, so each trial carries its point's latency.
    latencies = [
        s for s, errs in zip(sweep.latency_s, sweep.errors)
        if errs is not None for _ in range(TRIALS_PER_POINT)
    ]
    answered = [
        e for errs in sweep.errors if errs is not None for e in errs
    ]
    median_err, miss = accuracy(errors)
    tail_s, tail_pct = tail(latencies)
    points = len(sweep.latency_s)
    return {
        "setup_s": (float(np.median(setup_s)), len(setup_s),
                    "median of set-ups"),
        "throughput_per_s": (len(latencies) / sweep.wall_s, n,
                             "trials per second of wall time"),
        "latency_p50_ms": (nearest_rank(latencies, 0.5) * 1e3, len(latencies),
                           f"per trial: its point's run_trials time "
                           f"({points} points)"),
        "latency_tail_ms": (tail_s * 1e3, len(latencies),
                            f"p{tail_pct:.1f}, per trial"),
        "failed_frac": ((n - len(latencies)) / n, n,
                        "trials of points that raised"),
        "unlocalized_frac": (
            sum(1 for e in answered if e == NO_DIRECTION_DEG) / n, n,
            "answered with no direction"),
        "median_error_deg": (median_err, n, "vs true direction"),
        "miss_frac": (miss, n, "error > 10 deg or no direction"),
        "peak_rss_mb": (rss_mb, 1 + WORKERS,
                        f"benchmark process + {WORKERS} workers"),
    }


def per_layer(fx, plan, map_tracer, untraced, traced, tracer) -> dict:
    """Per-layer figures from the serial traced replay (``name -> value``)."""
    trials = len(plan) * TRIALS_PER_POINT
    map_s = map_tracer.incl_s["parallel.map"]
    rows = dict.fromkeys(
        ("serve.rounds_per_req", "serve.jobs_per_round",
         "serve.rows_per_round", "serve.flush_ms_per_req",
         "serve.deadline_flush_frac", "serve.pending_idle_ms_per_req",
         "loadgen.late_p99_ms"),
        0.0,
    )
    rows.update({
        "parallel.map_ms_per_trial": map_s * 1e3 / trials,
        "parallel.efficiency": untraced.wall_s / (WORKERS * map_s),
        "parallel.retries": float(sum(fx.executor.stats.values())),
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
        "trace.coverage_frac": tracer.covered_s() / traced.wall_s,
    })
    rows.update(layers.common_rows(tracer, trials))
    rows.update(layers.simulation_rows(tracer))
    return rows


def run(seed: int, seconds: float, trace: bool, setup_repeats: int) -> dict:
    """Run the campaign sweep; return its report rows."""
    from repro.parallel import CampaignExecutor

    setup_s = []
    fx = None
    for _ in range(1 if trace else setup_repeats):
        if fx is not None:
            fx.close()
        t0 = time.perf_counter()
        fx = CampaignFixture()
        setup_s.append(time.perf_counter() - t0)
    gc.collect()  # drop earlier set-ups now, not in the timed sweep
    try:
        plan = sweep_plan(seed, seconds)
        if trace:
            plan = plan[:len(SWEEP_FLUENCES) * len(CONDITIONS)]
        check_parity(fx, plan)
        map_tracer = layers.Tracer()
        with map_tracer.installed(("parallel",) if trace else ()):
            timed = run_sweep(fx, plan, fx.executor)
        errors = trial_errors(timed)
        report = {
            "attempted": len(errors),
            "failed": sum(1 for e in timed.errors if e is None) * TRIALS_PER_POINT,
            "failures": timed.failures,
        }
        if trace:
            serial = CampaignExecutor(1)
            untraced = run_sweep(fx, plan, serial)
            _same_errors(timed, untraced, "serial replay")
            tracer = layers.Tracer()
            with tracer.installed():
                traced = run_sweep(fx, plan, serial)
            _same_errors(timed, traced, "traced serial replay")
            report["per_layer"] = per_layer(fx, plan, map_tracer, untraced,
                                            traced, tracer)
            report["tracer"] = tracer
            report["ops"] = len(plan) * TRIALS_PER_POINT
            report["op_s"] = traced.wall_s
    finally:
        fx.close()
    report["end_to_end"] = end_to_end(
        timed, errors, setup_s, peak_rss_mb(WORKERS)
    )
    return report
