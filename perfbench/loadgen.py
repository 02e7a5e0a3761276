"""Request plans and the asyncio driver for the alert workloads.

Both alert workloads send pre-simulated exposures to one
``LocalizationServer`` with the default ``ServeConfig``:

* ``alert-stream`` is an open loop: requests are due at Poisson arrival
  times at the fixed rate :data:`STREAM_RATE_PER_S`, whatever the server
  does, so a stall delays every later request and shows in its latency.
* ``alert-burst`` sends :data:`BURST_SIZE` requests all due at the same
  instant, waits until every one is answered, and repeats.

Latency is measured from the time a request was due, not from when the
generator got round to sending it; how late it sent is recorded apart.
The event loop runs on a selector that times its waits, so the time the
loop sat idle, and the part of it with requests pending in the
scheduler, are known.
"""

from __future__ import annotations

import asyncio
import selectors
import time
from dataclasses import dataclass, field

import numpy as np

from corpus import CORPUS_SEED

#: Offered load of ``alert-stream``: a fixed constant (about a quarter
#: of measured burst capacity), never derived from a calibration run,
#: which would move with the code under test.
STREAM_RATE_PER_S = 15.0

#: Requests per ``alert-burst`` burst: fits the default queue limit, so
#: none is shed by design, and is a whole number of pool cycles.
BURST_SIZE = 128

#: Sizes the number of bursts from ``--seconds`` so that the request set
#: is a function of the arguments alone (never of measured speed).
BURST_NOMINAL_RATE_PER_S = 65.0

#: Pause between server start-up and the start of the plan.
LEAD_S = 0.05


@dataclass(frozen=True)
class Request:
    """One planned request.

    Attributes:
        index: Position in the plan.
        group: Requests of one group are sent together; the next group
            starts when the previous one is answered.
        due_s: Send time relative to the start of its group.
        entry: Index of the pool exposure sent.
        stream: Seed of the request's own random generator.
    """

    index: int
    group: int
    due_s: float
    entry: int
    stream: np.random.SeedSequence


def _requests(rng: np.random.Generator, due, groups, pool_size: int):
    """Requests cycling through the pool, each cycle in a random order.

    The ``c``-th request for an exposure localizes with the corpus's
    ``c``-th stream for that exposure, so the multiset of (exposure,
    stream) pairs, and with it every answer, is the same for every seed;
    the seed only decides when and in which order they are sent.
    """
    requests = []
    for i, (due_s, group) in enumerate(zip(due, groups)):
        cycle, position = divmod(i, pool_size)
        if position == 0:
            order = rng.permutation(pool_size)
        entry = int(order[position])
        stream = np.random.SeedSequence([CORPUS_SEED, entry, cycle])
        requests.append(Request(i, int(group), float(due_s), entry, stream))
    return requests


def stream_plan(seed: int, seconds: float, pool_size: int) -> list[Request]:
    """Open-loop Poisson arrivals at the fixed rate for about ``seconds``.

    The request count is ``rate x seconds`` rounded to whole cycles of
    the pool, so every exposure is sent equally often, and the arrival
    times are sorted uniform draws over ``count / rate`` seconds: a
    Poisson process conditioned on its count, so throughput does not
    swing with a random request count.
    """
    rng = np.random.default_rng([seed, 1])
    n = pool_size * max(1, round(STREAM_RATE_PER_S * seconds / pool_size))
    due = np.sort(rng.uniform(0.0, n / STREAM_RATE_PER_S, n))
    return _requests(rng, due, [0] * n, pool_size)


def burst_plan(seed: int, seconds: float, pool_size: int) -> list[Request]:
    """Back-to-back bursts, every request of a burst due at once."""
    rng = np.random.default_rng([seed, 1])
    bursts = max(1, round(seconds * BURST_NOMINAL_RATE_PER_S / BURST_SIZE))
    n = bursts * BURST_SIZE
    groups = [i // BURST_SIZE for i in range(n)]
    return _requests(rng, [0.0] * n, groups, pool_size)


class TimedSelector(selectors.DefaultSelector):
    """Selector that accumulates the event loop's idle time.

    Attributes:
        idle_s: Seconds spent waiting in ``select``.
        pending_idle_s: The part of ``idle_s`` during which the
            scheduler held at least one pending request (time requests
            waited for a flush with nothing running).
        pending: Callable giving the scheduler's pending request count.
    """

    def __init__(self) -> None:
        super().__init__()
        self.idle_s = 0.0
        self.pending_idle_s = 0.0
        self.pending = None

    def select(self, timeout=None):
        waiting = self.pending is not None and self.pending() > 0
        t0 = time.monotonic()
        try:
            return super().select(timeout)
        finally:
            dt = time.monotonic() - t0
            self.idle_s += dt
            if waiting:
                self.pending_idle_s += dt


# repr=False: when asyncio.Runner restores the SIGINT handler it formats
# the main task, result included; a full repr of every outcome's arrays
# takes seconds.
@dataclass(repr=False)
class PhaseResult:
    """What one pass over a request plan produced.

    Attributes:
        outcomes: Per request, its ``MLPipelineOutcome`` (None if failed).
        errors: Per request, the failure text (None if answered).
        latency_s: Per request, due time to answer (None if failed).
        late_s: Per request, how late the generator sent it.
        wall_s: First due time to last answer.
        group_wall_s: Per group, its first due time to its last answer.
        idle_s: Loop idle time within ``wall_s``.
        pending_idle_s: Idle time with requests pending in the scheduler.
        stats: ``LocalizationServer.stats()`` at the end of the pass.
    """

    outcomes: list
    errors: list
    latency_s: list
    late_s: list
    wall_s: float = 0.0
    group_wall_s: list = field(default_factory=list)
    idle_s: float = 0.0
    pending_idle_s: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        """Wall time the loop spent running code."""
        return self.wall_s - self.idle_s


def serve_plan(pipeline, engine, pool, plan: list[Request]) -> PhaseResult:
    """Serve ``plan`` through a fresh default-config server; time it."""
    selector = TimedSelector()
    with asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(selector)
    ) as runner:
        return runner.run(_drive(pipeline, engine, pool, plan, selector))


async def _drive(pipeline, engine, pool, plan, selector) -> PhaseResult:
    from repro.serve import LocalizationServer, ServeConfig

    n = len(plan)
    result = PhaseResult([None] * n, [None] * n, [None] * n, [0.0] * n)
    server = LocalizationServer(pipeline, engine=engine, config=ServeConfig())
    async with server:
        selector.pending = lambda: server.scheduler.pending_requests
        await asyncio.sleep(LEAD_S)
        idle0, pending0 = selector.idle_s, selector.pending_idle_s
        start = base = time.monotonic()
        groups = sorted({r.group for r in plan})
        for group in groups:
            tasks = []
            for request in (r for r in plan if r.group == group):
                due = base + request.due_s
                delay = due - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(
                    asyncio.create_task(
                        _send(server, pool, request, due, result)
                    )
                )
            await asyncio.gather(*tasks)
            result.group_wall_s.append(time.monotonic() - base)
            base = time.monotonic()
        result.wall_s = time.monotonic() - start
        result.idle_s = selector.idle_s - idle0
        result.pending_idle_s = selector.pending_idle_s - pending0
        result.stats = server.stats()
        selector.pending = None
    return result


async def _send(server, pool, request: Request, due: float,
                result: PhaseResult) -> None:
    """Submit one request; record its lateness, latency and answer."""
    result.late_s[request.index] = time.monotonic() - due
    rng = np.random.default_rng(request.stream)
    try:
        outcome = await server.submit(pool[request.entry].events, rng)
    except Exception as exc:  # shed, refused or raised: counted as failed
        result.errors[request.index] = f"{type(exc).__name__}: {exc}"
        return
    result.latency_s[request.index] = time.monotonic() - due
    result.outcomes[request.index] = outcome
