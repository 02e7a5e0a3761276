"""Layer tracer for the traced benchmark run.

The benchmark measures the system from outside: it never edits ``src/``.
For the traced run it replaces the public functions of each layer, for
the duration of a ``with Tracer().installed():`` block, by wrappers that
time every call and count its work.  A wrapped function is replaced in
every ``repro`` module that holds a reference to it (``from x import f``
copies the binding), so each call site is seen.

Self time is a wrapper's wall time minus the wall time of the wrappers
nested inside it, so the self times of all layers partition the time
spent inside the outermost wrappers.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: Layers in report order (a layer is a package of ``repro``).
LAYERS = (
    "serve", "pipeline", "infer", "localization", "reconstruction",
    "detector", "physics", "sources", "parallel",
)

_BYTES = 8  # float64


def chi2_bytes_computed(m: int, d: int) -> int:
    """Bytes ``capped_chi_square`` touches for ``m`` rings x ``d`` directions.

    Computed from array shapes, not measured: the ring arrays (axis,
    eta, deta: 5 floats per ring) and the directions (3 per direction)
    are read once, and five ``(m, d)`` float64 temporaries are written
    (product, residual, scaled residual, square, capped copy).
    """
    return _BYTES * (5 * m + 3 * d + 5 * m * d)


class Tracer:
    """Self time, call counts and work counters per wrapped function.

    Attributes:
        self_s: ``layer -> self seconds``.
        incl_s: ``function key -> inclusive seconds``.
        calls: ``function key -> call count``.
        work: Named work counters (rows, evaluations, photons, ...).
        outcomes: ``MLPipelineOutcome`` objects returned by the pipeline.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.outcomes: list = []
        self._stack: list[float] = []

    def call(self, layer: str, key: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` as one span of ``layer``."""
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            self.self_s[layer] += dt - child
            self.incl_s[key] += dt
            self.calls[key] += 1
            if stack:
                stack[-1] += dt

    def covered_s(self) -> float:
        """Total self time over all layers (= time inside outer wrappers)."""
        return sum(self.self_s.values())

    # -- wrapper factories -------------------------------------------------

    def _function(self, layer: str, key: str, fn, count=None, pre=None):
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(self.work, args)
            result = self.call(layer, key, fn, args, kwargs)
            if count is not None:
                count(self.work, args, result)
            return result

        return wrapper

    def _generator(self, layer: str, key: str, fn):
        """Wrap a generator function: each resumption is one span.

        The localization loop is a request generator driven by
        ``next``/``send``; the time between resumptions belongs to
        whoever drives it, so only the steps are attributed here.
        """
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            payload = None
            while True:
                try:
                    request = self.call(layer, key, gen.send, (payload,), {})
                except StopIteration as stop:
                    self.outcomes.append(stop.value)
                    return stop.value
                payload = yield request

        return wrapper

    @contextmanager
    def installed(self, layers: tuple[str, ...] = LAYERS):
        """Wrap the listed layers' public functions for the block's duration."""
        patches = []
        try:
            for layer, owner, name, kind, count in _targets():
                if layer not in layers:
                    continue
                original = owner.__dict__[name]
                key = f"{layer}.{name}"
                if kind == "gen":
                    wrapped = self._generator(layer, key, original)
                elif kind == "pre":
                    wrapped = self._function(layer, key, original, pre=count)
                else:
                    wrapped = self._function(layer, key, original, count)
                for holder in _holders(owner, name, original):
                    patches.append((holder, name, original))
                    setattr(holder, name, wrapped)
            yield self
        finally:
            for holder, name, original in reversed(patches):
                setattr(holder, name, original)


def _holders(owner, name: str, original) -> list:
    """``owner`` plus every loaded ``repro`` module bound to ``original``."""
    holders = [owner]
    if isinstance(owner, type):
        return holders
    for mod_name, module in list(sys.modules.items()):
        if (
            module is not owner
            and mod_name.startswith("repro")
            and getattr(module, name, None) is original
        ):
            holders.append(module)
    return holders


# -- work counters ---------------------------------------------------------


def _flush(work, args) -> None:
    """Jobs and trigger of a flush, read before the round consumes them."""
    scheduler, reason = args[0], (args[1] if len(args) > 1 else "deadline")
    work["serve.jobs"] += scheduler.pending_requests
    work[f"serve.flush.{reason}"] += 1


def _rows(work, args, result) -> None:
    work["infer.rows"] += int(args[1].shape[0])


def _chi2(work, args, result) -> None:
    m = args[0].num_rings
    d = int(np.atleast_2d(args[1]).shape[0])
    work["chi2.evals"] += m * d
    work["chi2.bytes"] += chi2_bytes_computed(m, d)


def _skymap(work, args, result) -> None:
    work["skymap.cells"] += int(result.cells_evaluated)


def _built(work, args, result) -> None:
    work["rings.built"] += result.num_rings


def _prepared(work, args, result) -> None:
    work["rings.kept"] += result.num_rings


def _digitized(work, args, result) -> None:
    work["detector.events"] += result.num_events


def _transported(work, args, result) -> None:
    work["physics.photons"] += int(np.atleast_2d(args[1]).shape[0])
    work["physics.exposures"] += 1


def _mapped(work, args, result) -> None:
    work["parallel.tasks"] += len(result)


def _targets() -> list[tuple]:
    """``(layer, owner, attribute, kind, counter)`` for every wrapped function.

    ``kind`` is ``"fn"`` (counter sees the result), ``"pre"`` (counter
    runs before the call) or ``"gen"`` (a request generator).

    Imported lazily: the benchmark puts the checkout's ``src`` on the
    path before any ``repro`` import.
    """
    from repro.detector.response import DetectorResponse
    from repro.infer import engine as infer_engine
    from repro.infer.engine import EagerEngine, PlannedEngine
    from repro.localization import approximation, hierarchy, likelihood
    from repro.localization import pipeline as loc_pipeline
    from repro.localization import refinement
    from repro.parallel.executor import CampaignExecutor
    from repro.physics import transport
    from repro.pipeline.ml_pipeline import MLPipeline
    from repro.reconstruction import rings
    from repro.serve.scheduler import MicroBatchScheduler
    from repro.sources import exposure
    from repro.sources.background import BackgroundModel
    from repro.sources.grb import GRBSource

    targets = [
        ("serve", MicroBatchScheduler, "add", "fn", None),
        ("serve", MicroBatchScheduler, "flush", "pre", _flush),
        ("pipeline", MLPipeline, "localize_requests", "gen", None),
        ("localization", loc_pipeline, "localize_rings", "fn", None),
        ("localization", approximation, "approximate_source", "fn", None),
        ("localization", refinement, "refine_source", "fn", None),
        ("localization", likelihood, "capped_chi_square", "fn", _chi2),
        ("localization", hierarchy, "hierarchical_skymap", "fn", _skymap),
        ("reconstruction", loc_pipeline, "prepare_rings", "fn", _prepared),
        ("reconstruction", rings, "build_rings", "fn", _built),
        ("detector", DetectorResponse, "digitize", "fn", _digitized),
        ("physics", transport, "transport_photons", "fn", _transported),
        ("sources", exposure, "simulate_exposure", "fn", None),
        ("sources", GRBSource, "generate", "fn", None),
        ("sources", BackgroundModel, "generate", "fn", None),
        ("parallel", CampaignExecutor, "map", "fn", _mapped),
        ("infer", infer_engine, "build_engine", "fn", None),
    ]
    for engine in (PlannedEngine, EagerEngine):
        targets.append(("infer", engine, "background_proba", "fn", _rows))
        targets.append(("infer", engine, "deta", "fn", _rows))
    return targets


# -- per-layer rows --------------------------------------------------------


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def common_rows(tracer: Tracer, ops: int) -> dict:
    """Localization-side figures per operation (``name -> value``)."""
    incl, calls, work = tracer.incl_s, tracer.calls, tracer.work
    infer_keys = ("infer.background_proba", "infer.deta")
    infer_calls = sum(calls[k] for k in infer_keys)
    outcomes = tracer.outcomes
    chi2_s = incl["localization.capped_chi_square"]
    rows = {
        "infer.ms_per_op": _per(sum(incl[k] for k in infer_keys) * 1e3, ops),
        "infer.calls_per_op": _per(infer_calls, ops),
        "infer.rows_per_call": _per(work["infer.rows"], infer_calls),
        "pipeline.iterations_mean": _per(
            sum(o.iterations for o in outcomes), len(outcomes)),
        "pipeline.rings_kept_frac": _per(
            sum(o.rings_kept for o in outcomes),
            sum(o.rings_in for o in outcomes)),
        "localization.approximate_ms_per_op": _per(
            incl["localization.approximate_source"] * 1e3, ops),
        "localization.refine_ms_per_op": _per(
            incl["localization.refine_source"] * 1e3, ops),
        "localization.chi2_ms_per_op": _per(chi2_s * 1e3, ops),
        "localization.chi2_evals_per_op": _per(work["chi2.evals"], ops),
        "localization.chi2_evals_per_s": _per(work["chi2.evals"], chi2_s),
        "localization.chi2_mb_per_op_computed": _per(
            work["chi2.bytes"] / 1e6, ops),
        "localization.skymap_ms_per_op": _per(
            incl["localization.hierarchical_skymap"] * 1e3, ops),
        "localization.skymap_cells_per_op": _per(work["skymap.cells"], ops),
        "reconstruction.prepare_ms_per_op": _per(
            incl["reconstruction.prepare_rings"] * 1e3, ops),
        "reconstruction.rings_per_op": _per(work["rings.built"], ops),
        "reconstruction.rings_kept_frac": _per(
            work["rings.kept"], work["rings.built"]),
    }
    for layer in LAYERS:
        rows[f"{layer}.self_ms_per_op"] = _per(tracer.self_s[layer] * 1e3, ops)
    return rows


def simulation_rows(tracer: Tracer) -> dict:
    """Simulation figures per simulated exposure (``name -> value``)."""
    incl, work = tracer.incl_s, tracer.work
    trials = work["physics.exposures"]
    transport_s = incl["physics.transport_photons"]
    return {
        "detector.digitize_ms_per_trial": _per(
            incl["detector.digitize"] * 1e3, trials),
        "detector.events_per_trial": _per(work["detector.events"], trials),
        "physics.transport_ms_per_trial": _per(transport_s * 1e3, trials),
        "physics.photons_per_trial": _per(work["physics.photons"], trials),
        "physics.photons_per_s": _per(work["physics.photons"], transport_s),
        "sources.generate_ms_per_trial": _per(
            incl["sources.generate"] * 1e3, trials),
    }
