"""Per-stage rollup of a trace: the ``repro trace-summary`` backend.

Takes a flat event list (in-memory buffer or a JSONL file) and aggregates
span events by name: count, total/mean/p95 milliseconds, and percentage of
the parent stage's total — the table the paper's host-timing sections
(Tables I/II) report per pipeline stage, generalized to the whole campaign
tree.  Metric events (counters/gauges/histograms) are rendered in a second
section, which is where ``cache.hit`` / ``cache.corrupt`` and the executor
utilization histograms surface.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field

from repro.obs.slo import exact_percentile


@dataclass
class StageStats:
    """Aggregated statistics of one span name.

    Attributes:
        name: Span name.
        count: Completed spans.
        total_ms: Summed duration.
        durations: Individual samples (for percentiles).
        parent: Dominant parent span name (``""`` for roots).
        pct_of_parent: ``total_ms`` as a percentage of the dominant
            parent's total (100 for roots).
        errors: Spans that exited via an exception.
    """

    name: str
    count: int = 0
    total_ms: float = 0.0
    durations: list[float] = field(default_factory=list)
    parent: str = ""
    pct_of_parent: float = 100.0
    errors: int = 0

    @property
    def mean_ms(self) -> float:
        """Mean span duration, ms."""
        return self.total_ms / self.count if self.count else 0.0

    @property
    def p95_ms(self) -> float:
        """95th-percentile span duration, ms (nearest-rank)."""
        return exact_percentile(self.durations, 0.95)


def summarize(events: list[dict]) -> list[StageStats]:
    """Aggregate span events into per-name statistics.

    Args:
        events: Mixed event dicts; non-span events are ignored.

    Returns:
        Stats sorted by total duration, descending.  ``pct_of_parent`` is
        computed against each name's *dominant* parent (the parent name
        under which most of its spans ran).
    """
    spans = [ev for ev in events if ev.get("type") == "span"]
    id_to_name = {ev["span_id"]: ev["name"] for ev in spans}
    stats: dict[str, StageStats] = {}
    parent_votes: dict[str, Counter] = {}
    for ev in spans:
        st = stats.setdefault(ev["name"], StageStats(name=ev["name"]))
        st.count += 1
        st.total_ms += ev["dur_ms"]
        st.durations.append(ev["dur_ms"])
        if ev.get("status") == "error":
            st.errors += 1
        parent_name = id_to_name.get(ev.get("parent_id"), "")
        parent_votes.setdefault(ev["name"], Counter())[parent_name] += 1
    for name, st in stats.items():
        parent = parent_votes[name].most_common(1)[0][0]
        st.parent = parent
        parent_total = stats[parent].total_ms if parent in stats else 0.0
        if parent and parent_total > 0:
            st.pct_of_parent = 100.0 * st.total_ms / parent_total
        else:
            st.pct_of_parent = 100.0
    return sorted(stats.values(), key=lambda s: -s.total_ms)


def coverage(events: list[dict]) -> float:
    """Fraction of root wall-clock accounted for by child spans.

    For each root span (no parent in the event set), sums the durations of
    its direct children; returns child-time / root-time over all roots.
    An instrumentation-health number: low coverage means untraced gaps.
    """
    spans = [ev for ev in events if ev.get("type") == "span"]
    ids = {ev["span_id"] for ev in spans}
    roots = [ev for ev in spans if ev.get("parent_id") not in ids]
    root_ids = {ev["span_id"] for ev in roots}
    root_total = sum(ev["dur_ms"] for ev in roots)
    if root_total <= 0:
        return 0.0
    child_total = sum(
        ev["dur_ms"] for ev in spans if ev.get("parent_id") in root_ids
    )
    return min(1.0, child_total / root_total)


def render_table(events: list[dict]) -> str:
    """Render the per-stage table plus a metrics section as text."""
    rows = summarize(events)
    lines = [
        f"{'stage':40s} {'count':>7s} {'total ms':>12s} "
        f"{'mean ms':>10s} {'p95 ms':>10s} {'% parent':>9s}  parent"
    ]
    for st in rows:
        lines.append(
            f"{st.name:40s} {st.count:7d} {st.total_ms:12.1f} "
            f"{st.mean_ms:10.2f} {st.p95_ms:10.2f} {st.pct_of_parent:8.1f}%  "
            f"{st.parent or '-'}"
            + (f"  [{st.errors} errors]" if st.errors else "")
        )
    counters = [ev for ev in events if ev.get("type") == "counter"]
    gauges = [ev for ev in events if ev.get("type") == "gauge"]
    hists = [ev for ev in events if ev.get("type") == "histogram"]
    if counters or gauges or hists:
        lines.append("")
        lines.append("metrics:")
        for ev in counters:
            lines.append(f"  {ev['name']:42s} {ev['value']:>12d}  (counter)")
        for ev in gauges:
            lines.append(f"  {ev['name']:42s} {ev['value']:>12.4g}  (gauge)")
        for ev in hists:
            mean = ev["total"] / ev["count"] if ev["count"] else 0.0
            lines.append(
                f"  {ev['name']:42s} {ev['count']:>12d}  "
                f"(histogram, mean {mean:.2f})"
            )
    cov = coverage(events)
    if cov > 0:
        lines.append("")
        lines.append(f"coverage: {100.0 * cov:.1f}% of root wall-clock in "
                     f"direct child spans")
    return "\n".join(lines)


def summary_dict(events: list[dict]) -> dict:
    """JSON-safe form of the per-stage summary (for bench reports and
    ``repro trace-summary --json``): stages, coverage, and every metric
    family the trace carries.  The layout is a documented contract
    (docs/observability.md); ``schema_version`` bumps only on breaking
    changes, additive keys keep it."""
    return {
        "schema_version": 1,
        "stages": {
            st.name: {
                "count": st.count,
                "total_ms": round(st.total_ms, 3),
                "mean_ms": round(st.mean_ms, 4),
                "p95_ms": round(st.p95_ms, 4),
                "pct_of_parent": round(st.pct_of_parent, 2),
                "parent": st.parent,
                "errors": st.errors,
            }
            for st in summarize(events)
        },
        "coverage": round(coverage(events), 4),
        "counters": {
            ev["name"]: ev["value"]
            for ev in events if ev.get("type") == "counter"
        },
        "gauges": {
            ev["name"]: ev["value"]
            for ev in events if ev.get("type") == "gauge"
        },
        "histograms": {
            ev["name"]: {
                "count": ev["count"],
                "total": round(ev["total"], 3),
                "buckets": ev["buckets"],
                "counts": ev["counts"],
            }
            for ev in events if ev.get("type") == "histogram"
        },
    }


def render_file(path: str | os.PathLike) -> str:
    """Load a JSONL trace and render its summary table."""
    from repro.obs.trace import load_jsonl

    return render_table(load_jsonl(path))
