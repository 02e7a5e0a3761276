"""Micro-batch scheduler: coalesce requests across clients, flush in rounds.

Each admitted localization is a :class:`ServeJob` wrapping the event's
``localize_requests`` generator.  Jobs file :class:`InferRequest`\\ s into
a pending set; a *flush* runs the same
:class:`~repro.infer.batch.LocalizationRound` that ``MLPipeline.localize``
and ``localize_many`` drain, keyed by ``job_id`` — FIFO-fair, and
bit-identical to ``localize_many`` when clients submit together.  The
scheduler keeps only the serving bookkeeping: per-job timing and round
counts, and error isolation (a failing generator fails
its own job, not the batch; a failing engine fails the jobs it left
unanswered, not the scheduler).

The flush rule is *work-conserving*: whenever the server's scheduler
task runs and anything is pending, it runs one round over all of it.  A
lone request at an idle server goes straight into a round; coalescing
still happens without a timed window — every live job refiles its next
request inside the synchronous flush, and submissions that arrive while
a round computes join the next one.  Admission control
(``ServeConfig.queue_limit``) bounds how much can be pending.

The scheduler is deliberately synchronous and asyncio-free — the server
owns the event loop and calls :meth:`add`/:meth:`flush`; an injected
``clock`` timestamps per-request latency (``serve.request_ms``).
"""

from __future__ import annotations

import time

from repro.infer.batch import LocalizationRound, advance
from repro.infer.engine import InferRequest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


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
        rounds: Fused rounds this job has participated in.
        future: Slot for the server's completion future (opaque here —
            the scheduler never touches asyncio).
    """

    __slots__ = ("job_id", "gen", "request", "outcome", "error", "done",
                 "t_submit", "rounds", "future")

    def __init__(self, job_id: int, gen, t_submit: float) -> None:
        self.job_id = job_id
        self.gen = gen
        self.request: InferRequest | None = None
        self.outcome = None
        self.error: BaseException | None = None
        self.done = False
        self.t_submit = t_submit
        self.rounds = 0
        self.future = None


class MicroBatchScheduler:
    """Lock-step micro-batcher over many clients' request generators.

    Attributes:
        live: Jobs added and not yet completed.
        rounds: Total flush rounds executed.
        rows_flushed: Total feature rows evaluated across all rounds.
    """

    def __init__(self, engine, clock=time.monotonic) -> None:
        self.live = 0
        self.rounds = 0
        self.rows_flushed = 0
        self._clock = clock
        self._pending: dict[int, ServeJob] = {}
        self._round = LocalizationRound(engine)

    @property
    def pending_requests(self) -> int:
        """Number of requests currently awaiting a flush."""
        return len(self._pending)

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

    def flush(self) -> list[ServeJob]:
        """Run one fused round over every pending request.

        Requests are snapshot at entry; generators advanced by the round
        file their *next* request into a fresh pending set (evaluated by
        a later flush, exactly as ``localize_many`` rounds work).  If the
        engine raises, the exception is thrown into every job the round
        had not yet answered, so those jobs fail (or recover) on their
        own and the scheduler keeps serving.

        Returns:
            Jobs completed during this round, in FIFO (job id) order.
        """
        ready, self._pending = self._pending, {}
        unanswered = set(ready)
        completed: list[ServeJob] = []

        def step(job_id: int, answer) -> None:
            unanswered.discard(job_id)
            ready[job_id].rounds += 1
            self._advance(ready[job_id], answer, completed)

        rows = 0
        with obs_trace.span("serve.flush"):
            try:
                rows = self._round.run(
                    {job_id: job.request for job_id, job in ready.items()},
                    step,
                )
            except Exception as exc:  # engine fault: fail the unanswered
                for job_id in sorted(unanswered):
                    step(job_id, exc)
        self.rounds += 1
        self.rows_flushed += rows
        obs_metrics.inc("serve.rounds")
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
            self._pending[job.job_id] = job
            return
        job.done = True
        self.live -= 1
        completed.append(job)
