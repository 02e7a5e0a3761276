"""Asyncio localization service: many clients, one fused engine.

:class:`LocalizationServer` is a long-lived front-end over the
engine-agnostic localization machinery from ``repro.infer``: concurrent
clients :meth:`~LocalizationServer.submit` digitized event sets, a
background scheduler task coalesces their ``InferRequest`` streams into
fused :class:`~repro.infer.engine.PlannedEngine` calls (see
:mod:`repro.serve.scheduler`), and each client awaits its own
``MLPipelineOutcome`` future.  Admission control
(:mod:`repro.serve.admission`) bounds in-flight work: untrusted callers
are shed with :class:`~repro.serve.admission.ServerOverloaded` when the
queue is full, cooperative callers opt into backpressure with
``wait=True``.

Lifecycle: ``await server.start()`` spawns the scheduler task;
``await server.drain()`` refuses new work and waits for in-flight jobs;
``await server.close()`` drains then stops the task.  ``async with
server`` does start/close.  :func:`serve_events` is the synchronous
convenience wrapper (own event loop, all exposures submitted together);
:meth:`~LocalizationServer.localize_stream` is the iterator-of-chunks
streaming shape from SNIPPETS.md snippet 3.

Per-request latency lands in the ``serve.request_ms`` histogram and
batching behavior in the ``serve.*`` counters when ``repro.obs`` is
enabled; the default SLO spec's ``"serve"`` section puts ceilings on the
percentiles (see ``docs/serving.md``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.infer.engine import build_engine
from repro.serve.admission import AdmissionController, ServerClosed
from repro.serve.scheduler import MicroBatchScheduler, ServeJob

@dataclass(frozen=True)
class ServeConfig:
    """Server-level knobs: the admission bound.

    Attributes:
        queue_limit: Maximum concurrently admitted localizations
            (admission control bound; it also bounds a flush round).
    """

    queue_limit: int = 256

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )


class LocalizationServer:
    """Long-lived micro-batching localization service (single loop).

    Attributes:
        pipeline: The trained ``MLPipeline`` whose ``localize_requests``
            generators the scheduler drives.
        engine: The fused inference engine (built from ``pipeline`` when
            not supplied).
        config: The :class:`ServeConfig` in force.
        admission: The :class:`AdmissionController` (live stats).
        scheduler: The :class:`MicroBatchScheduler` (live stats).
    """

    def __init__(self, pipeline, engine=None, config: ServeConfig | None = None,
                 clock=time.monotonic) -> None:
        self.pipeline = pipeline
        self.config = config if config is not None else ServeConfig()
        self.engine = engine if engine is not None else build_engine(
            pipeline, "planned"
        )
        self.admission = AdmissionController(self.config.queue_limit)
        self.scheduler = MicroBatchScheduler(self.engine, clock=clock)
        self._clock = clock
        self._next_job_id = 0
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._task: asyncio.Task | None = None
        self._draining = False
        self._stopped = False

    @property
    def running(self) -> bool:
        """True between :meth:`start` and the scheduler task exiting."""
        return self._task is not None and not self._task.done()

    async def start(self) -> None:
        """Spawn the scheduler task on the running event loop."""
        if self._task is not None:
            raise RuntimeError("server already started")
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-serve-scheduler"
        )

    async def submit(self, events, rng, *, halt_after: int | None = None,
                     wait: bool = False):
        """Localize one exposure; resolves when its fused rounds finish.

        Args:
            events: Digitized ``EventSet`` for the exposure.
            rng: The exposure's own ``numpy.random.Generator`` (never
                shared across submissions).
            halt_after: Anytime knob forwarded to the localization loop.
            wait: False sheds with ``ServerOverloaded`` when the queue is
                full; True waits for a slot (cooperative backpressure).

        Returns:
            The exposure's ``MLPipelineOutcome``.

        Raises:
            ServerOverloaded: Queue full and ``wait=False``.
            ServerClosed: Server draining or stopped.
            RuntimeError: Server never started.
        """
        self._check_open()
        if wait:
            await self.admission.acquire()
            if self._draining or self._stopped:  # drain began while waiting
                self.admission.release()
                raise ServerClosed("server drained while waiting for a slot")
        else:
            self.admission.try_acquire()
        try:
            job = ServeJob(
                self._next_job_id,
                self.pipeline.localize_requests(
                    events, rng, halt_after=halt_after
                ),
                self._clock(),
            )
            self._next_job_id += 1
            job.future = asyncio.get_running_loop().create_future()
            self._idle.clear()
            for done in self.scheduler.add(job):
                self._resolve(done)
            self._wake.set()
            return await job.future
        finally:
            self.admission.release()

    async def localize_stream(self, blocks, *, halt_after: int | None = None):
        """Serve an iterator of event-block chunks, yielding chunk results.

        The streaming shape: each element of ``blocks`` (a sync or async
        iterable) is one chunk — a sequence of ``(events, rng)`` pairs —
        and one list of outcomes is yielded per chunk, in order.  All
        requests within a chunk are submitted concurrently with
        cooperative backpressure (``wait=True``), so a chunk wider than
        ``queue_limit`` throttles instead of shedding.

        Args:
            blocks: Iterable (or async iterable) of chunks of
                ``(events, rng)`` pairs.
            halt_after: Anytime knob forwarded to every localization.

        Yields:
            ``list[MLPipelineOutcome]`` per input chunk, in chunk order.
        """
        async for chunk in _as_async_iter(blocks):
            tasks = [
                asyncio.ensure_future(
                    self.submit(events, rng, halt_after=halt_after, wait=True)
                )
                for events, rng in chunk
            ]
            yield list(await asyncio.gather(*tasks))

    async def drain(self) -> None:
        """Refuse new work and wait until every in-flight job completes."""
        self._draining = True
        self._wake.set()
        await self._idle.wait()

    async def close(self) -> None:
        """Drain, then stop the scheduler task."""
        await self.drain()
        self._stopped = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None

    async def __aenter__(self) -> "LocalizationServer":
        """Start the server on entry."""
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Gracefully drain and stop on exit."""
        await self.close()

    def stats(self) -> dict:
        """Live admission + scheduler counters (for logs and benches)."""
        return {
            "admission": self.admission.stats(),
            "rounds": self.scheduler.rounds,
            "rows_flushed": self.scheduler.rows_flushed,
            "live": self.scheduler.live,
        }

    def _check_open(self) -> None:
        if self._task is None:
            raise RuntimeError("server not started (use 'async with' or start())")
        if self._draining or self._stopped:
            raise ServerClosed("server is draining and accepts no new work")

    def _resolve(self, job: ServeJob) -> None:
        """Complete a job's future from its outcome or error."""
        fut = job.future
        if fut is None or fut.done():
            return
        if job.error is not None:
            fut.set_exception(job.error)
        else:
            fut.set_result(job.outcome)

    async def _run(self) -> None:
        """Scheduler loop: flush while anything is pending, else sleep."""
        while True:
            if self.scheduler.pending_requests:
                for job in self.scheduler.flush():
                    self._resolve(job)
                await asyncio.sleep(0)  # let resolved clients run
                continue
            if self.scheduler.live == 0:
                self._idle.set()
                if self._stopped:
                    return
            self._wake.clear()
            await self._wake.wait()


def serve_events(pipeline, event_sets, rngs, engine=None,
                 config: ServeConfig | None = None,
                 halt_after: int | None = None) -> list:
    """Serve many exposures through a fresh server (sync convenience).

    Spins up a :class:`LocalizationServer` on its own event loop, submits
    every exposure concurrently with cooperative backpressure, drains,
    and returns the outcomes in input order.  The round groupings — and
    therefore the outcomes — are bit-identical to
    :func:`repro.infer.batch.localize_many` on the same inputs: every
    submission files its first request before the scheduler task next
    runs, and every live job refiles inside each synchronous flush, so
    each round holds all unfinished exposures.

    Args:
        pipeline: A trained ``MLPipeline``.
        event_sets: One digitized ``EventSet`` per exposure.
        rngs: One ``numpy.random.Generator`` per exposure.
        engine: Inference engine; None builds the default planned engine.
        config: Server config; None admits every exposure at once
            (``queue_limit=len(event_sets)``).
        halt_after: Anytime knob forwarded to every localization.

    Returns:
        One ``MLPipelineOutcome`` per exposure, in input order.
    """
    event_sets = list(event_sets)
    rngs = list(rngs)
    if len(event_sets) != len(rngs):
        raise ValueError("need exactly one rng per event set")
    if not event_sets:
        return []
    if config is None:
        config = ServeConfig(queue_limit=len(event_sets))

    async def _serve() -> list:
        server = LocalizationServer(pipeline, engine=engine, config=config)
        async with server:
            return list(
                await asyncio.gather(
                    *(
                        server.submit(ev, rng, halt_after=halt_after, wait=True)
                        for ev, rng in zip(event_sets, rngs)
                    )
                )
            )

    return asyncio.run(_serve())


async def _as_async_iter(blocks):
    """Adapt a sync or async iterable of chunks to an async iterator."""
    if hasattr(blocks, "__aiter__"):
        async for chunk in blocks:
            yield chunk
    else:
        for chunk in blocks:
            yield chunk
