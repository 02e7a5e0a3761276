"""Micro-batch scheduler: coalesce requests across clients, flush in rounds.

Each admitted localization is a :class:`ServeJob` wrapping the event's
``localize_requests`` generator.  Jobs file :class:`InferRequest`\\ s into
a pending set; a *flush* runs the same
:class:`~repro.infer.batch.LocalizationRound` that ``MLPipeline.localize``
and ``localize_many`` drain, keyed by ``job_id`` — FIFO-fair, and
bit-identical to ``localize_many`` when clients submit together.  The
scheduler keeps only the serving bookkeeping: when to flush, per-job
timing and round counts, and error isolation (a failing generator fails
its own job, not the batch).

Flush *triggers* (checked by :meth:`MicroBatchScheduler.due`):

* **size** — pending requests reach ``BatchPolicy.max_requests`` or
  pending feature rows reach ``BatchPolicy.max_rows``; flush now, the
  batch is as big as we allow.
* **deadline** — the oldest pending request has waited
  ``BatchPolicy.deadline_s``; flush what we have.  The default window is
  ``0``: the scheduler is *work-conserving* and flushes whenever it runs
  with anything pending.  Coalescing still happens without a timed
  window — every live job refiles its next request inside the
  synchronous flush, and submissions that arrive while a round computes
  join the next one.  A positive window is an opt-in bet that more
  arrivals land within it, trading single-request latency for bigger
  fused batches.

The scheduler is deliberately synchronous and asyncio-free — the server
owns the event loop and calls :meth:`add`/:meth:`due`/:meth:`flush`; a
fake ``clock`` makes trigger semantics unit-testable without sleeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.infer.batch import LocalizationRound, advance
from repro.infer.engine import InferRequest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@dataclass(frozen=True)
class BatchPolicy:
    """Flush-trigger knobs for the micro-batch scheduler.

    Attributes:
        max_rows: Flush when pending feature rows reach this many.
        max_requests: Flush when this many requests are pending.
        deadline_s: Flush when the oldest pending request has waited
            this long (seconds).  The default ``0`` flushes on every
            scheduler pass that finds work pending (work-conserving); a
            positive value is an opt-in coalescing window.
    """

    max_rows: int = 65536
    max_requests: int = 64
    deadline_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {self.max_rows}")
        if self.max_requests < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {self.max_requests}"
            )
        if self.deadline_s < 0:
            raise ValueError(
                f"deadline_s must be >= 0, got {self.deadline_s}"
            )


class ServeJob:
    """One in-flight localization: a request generator plus bookkeeping.

    Attributes:
        job_id: Monotonic submission id (defines FIFO order in a round).
        gen: The event's ``localize_requests`` generator.
        request: The currently pending :class:`InferRequest` (None while
            being evaluated or after completion).
        outcome: The ``MLPipelineOutcome`` once the generator returns.
        error: The exception if the generator raised instead.
        done: True once ``outcome`` or ``error`` is set.
        t_submit: Clock reading at submission (latency measurement).
        t_enqueue: Clock reading when ``request`` was filed (deadline
            trigger input).
        rounds: Fused rounds this job has participated in.
        future: Slot for the server's completion future (opaque here —
            the scheduler never touches asyncio).
    """

    __slots__ = ("job_id", "gen", "request", "outcome", "error", "done",
                 "t_submit", "t_enqueue", "rounds", "future")

    def __init__(self, job_id: int, gen, t_submit: float) -> None:
        self.job_id = job_id
        self.gen = gen
        self.request: InferRequest | None = None
        self.outcome = None
        self.error: BaseException | None = None
        self.done = False
        self.t_submit = t_submit
        self.t_enqueue = t_submit
        self.rounds = 0
        self.future = None


class MicroBatchScheduler:
    """Lock-step micro-batcher over many clients' request generators.

    Attributes:
        policy: The :class:`BatchPolicy` flush triggers.
        live: Jobs added and not yet completed.
        rounds: Total flush rounds executed.
        flush_reasons: ``reason -> count`` over all flushes.
    """

    def __init__(self, engine, policy: BatchPolicy | None = None,
                 clock=time.monotonic) -> None:
        self.policy = policy if policy is not None else BatchPolicy()
        self.live = 0
        self.rounds = 0
        self.rows_flushed = 0
        self.flush_reasons: dict[str, int] = {}
        self._clock = clock
        self._pending: dict[int, ServeJob] = {}
        self._round = LocalizationRound(engine)

    @property
    def pending_requests(self) -> int:
        """Number of requests currently awaiting a flush."""
        return len(self._pending)

    def pending_rows(self) -> int:
        """Total feature rows across the pending requests."""
        return sum(
            int(job.request.features.shape[0])
            for job in self._pending.values()
        )

    def add(self, job: ServeJob) -> list[ServeJob]:
        """Register a job and advance it to its first request.

        Returns:
            The jobs completed by the add — ``[job]`` when the generator
            finished without ever needing the engine, else ``[]``.
        """
        self.live += 1
        completed: list[ServeJob] = []
        self._advance(job, None, completed)
        return completed

    def due(self, now: float | None = None) -> str | None:
        """The trigger name if a flush should fire now, else None."""
        if not self._pending:
            return None
        if len(self._pending) >= self.policy.max_requests:
            return "size"
        if self.pending_rows() >= self.policy.max_rows:
            return "size"
        if now is None:
            now = self._clock()
        oldest = min(job.t_enqueue for job in self._pending.values())
        if now - oldest >= self.policy.deadline_s:
            return "deadline"
        return None

    def next_deadline(self) -> float | None:
        """Clock time when the deadline trigger fires (None when idle)."""
        if not self._pending:
            return None
        oldest = min(job.t_enqueue for job in self._pending.values())
        return oldest + self.policy.deadline_s

    def flush(self, reason: str = "deadline") -> list[ServeJob]:
        """Run one fused round over every pending request.

        Requests are snapshot at entry; generators advanced by the round
        file their *next* request into a fresh pending set (evaluated by
        a later flush, exactly as ``localize_many`` rounds work).

        Args:
            reason: The trigger that fired (recorded in
                :attr:`flush_reasons` and the flush counters).

        Returns:
            Jobs completed during this round, in FIFO (job id) order.
        """
        ready, self._pending = self._pending, {}
        completed: list[ServeJob] = []

        def step(job_id: int, answer) -> None:
            ready[job_id].rounds += 1
            self._advance(ready[job_id], answer, completed)

        with obs_trace.span("serve.flush"):
            rows = self._round.run(
                {job_id: job.request for job_id, job in ready.items()}, step
            )
        self.rounds += 1
        self.rows_flushed += rows
        self.flush_reasons[reason] = self.flush_reasons.get(reason, 0) + 1
        obs_metrics.inc("serve.rounds")
        obs_metrics.inc(f"serve.flush.{reason}")
        obs_metrics.observe("serve.batch_rows", float(rows))
        return sorted(completed, key=lambda job: job.job_id)

    def _advance(self, job: ServeJob, answer, completed: list[ServeJob]) -> None:
        """Step a job's generator; file its next request or finish it."""
        job.request = None
        try:
            job.request = advance(job.gen, answer)
        except StopIteration as stop:
            job.outcome = stop.value
            if obs_trace.is_enabled():
                obs_metrics.observe(
                    "serve.request_ms", (self._clock() - job.t_submit) * 1e3
                )
        except Exception as exc:  # surface in the job, keep the batch alive
            job.error = exc
            obs_metrics.inc("serve.job_errors")
        else:
            job.t_enqueue = self._clock()
            self._pending[job.job_id] = job
            return
        job.done = True
        self.live -= 1
        completed.append(job)
