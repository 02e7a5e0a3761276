"""The localization round: one gather→evaluate→scatter driver.

:class:`LocalizationRound` answers the ``InferRequest``\\ s that
``MLPipeline.localize_requests`` generators yield: per request kind, one
gathered block, one engine call, and row slices handed to a step that
advances each generator.  ``MLPipeline.localize``, :func:`localize_many`
and ``serve.MicroBatchScheduler.flush`` are its three callers.

**Determinism.**  Each event keeps its own ``Generator`` and its own
request stream, and requests within one event are answered strictly in
order, so every event consumes exactly the RNG draws and control flow it
would alone — batched outcomes are reproducible and independent of which
events share a group.  Per-row network outputs under cross-event
concatenation match per-event evaluation to the ulp but not always
bit-for-bit (BLAS kernels are shape-dependent), which is why campaign
batching is opt-in (``TrialConfig.event_batch > 1``) while the default
per-event planned path stays bit-identical to eager.  See
``docs/inference.md``.
"""

from __future__ import annotations

import numpy as np

from repro.infer.engine import REQUEST_METHODS, InferRequest, build_engine
from repro.infer.engine import evaluate_request
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


class GatherScratch:
    """Reusable gather buffer for one request kind.

    Keeps one growable ``(capacity, width)`` array and copies a round's
    feature blocks into its head instead of ``np.concatenate``-ing a
    fresh array every round; the array only grows (geometrically), so a
    steady-state campaign allocates nothing after warm-up.

    The returned view is consumed synchronously — the engine's scaler
    ``transform`` produces a fresh array before any plan touches it — so
    handing out a view of the scratch across rounds is safe.
    """

    def __init__(self) -> None:
        self._buf: np.ndarray | None = None
        self.grows = 0

    def gather(self, blocks: list[np.ndarray]) -> np.ndarray:
        """Concatenate ``blocks`` row-wise into the reusable buffer.

        A single block is returned as-is (no copy); multiple blocks are
        copied into the scratch and a head view is returned.

        Raises:
            ValueError: Empty ``blocks``, a non-2D block, or blocks with
                mismatched widths or dtypes (a silent mismatch would
                scatter garbage rows back to the wrong events).
        """
        if not blocks:
            raise ValueError("gather() needs at least one feature block")
        width = _checked_width(blocks)
        if len(blocks) == 1:
            return blocks[0]
        rows = sum(int(b.shape[0]) for b in blocks)
        dtype = blocks[0].dtype
        buf = self._buf
        if (
            buf is None
            or buf.shape[0] < rows
            or buf.shape[1] != width
            or buf.dtype != dtype
        ):
            capacity = rows if buf is None else max(rows, 2 * buf.shape[0])
            self._buf = buf = np.empty((capacity, width), dtype=dtype)
            self.grows += 1
        offset = 0
        for block in blocks:
            n = int(block.shape[0])
            buf[offset : offset + n] = block
            offset += n
        return buf[:rows]


def _checked_width(blocks: list[np.ndarray]) -> int:
    """Common feature width of ``blocks`` (all 2D, one width, one dtype)."""
    first = blocks[0]
    if first.ndim != 2:
        raise ValueError(f"feature blocks must be 2D, got ndim={first.ndim}")
    width = int(first.shape[1])
    for block in blocks[1:]:
        if block.ndim != 2:
            raise ValueError(
                f"feature blocks must be 2D, got ndim={block.ndim}"
            )
        if int(block.shape[1]) != width:
            raise ValueError(
                f"mixed feature widths in gather: {width} vs {block.shape[1]}"
            )
        if block.dtype != first.dtype:
            raise ValueError(
                f"mixed dtypes in gather: {first.dtype} vs {block.dtype}"
            )
    return width


def advance(gen, answer=None):
    """Resume ``gen``: start it (None), send it rows, or throw an error in."""
    if answer is None:
        return next(gen)
    if isinstance(answer, BaseException):
        return gen.throw(answer)
    return gen.send(answer)


class LocalizationRound:
    """One gather→evaluate→scatter round over pending requests.

    Attributes:
        engine: The inference engine answering the gathered requests.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self._scratch = {kind: GatherScratch() for kind in REQUEST_METHODS}

    def run(self, pending: dict, step) -> int:
        """Answer ``pending`` (``key -> InferRequest``), one call per kind.

        Kinds run in :data:`REQUEST_METHODS` order, keys ascending; each
        ``step(key, rows)`` runs before the next kind is evaluated, and an
        unknown kind gets ``step(key, ValueError)``.  Returns rows evaluated.
        """
        keys = sorted(pending)
        rows = 0
        for kind, scratch in self._scratch.items():
            owners = [k for k in keys if pending[k].kind == kind]
            if not owners:
                continue
            blocks = [pending[k].features for k in owners]
            merged = evaluate_request(
                self.engine, InferRequest(kind, scratch.gather(blocks))
            )
            offset = 0
            for key, block in zip(owners, blocks):
                n = int(block.shape[0])
                step(key, merged[offset : offset + n])
                offset += n
            rows += offset
        for key in keys:
            kind = pending[key].kind
            if kind not in self._scratch:
                step(key, ValueError(f"unknown request kind {kind!r}"))
        return rows

    def drain(self, gens: list) -> tuple[list, int]:
        """Run fresh generators to completion: ``(outcomes, rounds)``."""
        outcomes: list = [None] * len(gens)
        pending: dict[int, InferRequest] = {}

        def step(i: int, answer) -> None:
            try:
                pending[i] = advance(gens[i], answer)
            except StopIteration as stop:
                outcomes[i] = stop.value

        for i in range(len(gens)):
            step(i, None)
        rounds = 0
        while pending:
            ready, pending = pending, {}
            self.run(ready, step)
            rounds += 1
        return outcomes, rounds


def localize_many(
    pipeline,
    event_sets,
    rngs,
    engine=None,
    halt_after: int | None = None,
) -> list:
    """Localize many exposures with lock-step batched inference.

    Args:
        pipeline: A trained ``MLPipeline``.
        event_sets: One digitized ``EventSet`` per exposure.
        rngs: One ``numpy.random.Generator`` per exposure (never shared —
            sharing would interleave draw order across events).
        engine: Inference engine answering the gathered requests; None
            builds the default planned engine for ``pipeline``.
        halt_after: Anytime knob forwarded to every event's loop.

    Returns:
        One ``MLPipelineOutcome`` per exposure, in input order.

    Raises:
        ValueError: Mismatched ``rngs``, or an unknown request kind.
    """
    event_sets = list(event_sets)
    rngs = list(rngs)
    if len(event_sets) != len(rngs):
        raise ValueError("need exactly one rng per event set")
    if engine is None:
        engine = build_engine(pipeline, "planned")
    gens = [
        pipeline.localize_requests(events, rng, halt_after=halt_after)
        for events, rng in zip(event_sets, rngs)
    ]
    with obs_trace.span("infer.localize_many"):
        outcomes, rounds = LocalizationRound(engine).drain(gens)
        obs_metrics.inc("infer.gather_rounds", rounds)
    return outcomes
