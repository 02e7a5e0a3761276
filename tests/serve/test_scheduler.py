"""Micro-batch scheduler semantics: triggers, FIFO order, lock-step rounds.

These tests drive :class:`MicroBatchScheduler` synchronously with a fake
clock, a fake engine, and hand-written request generators, so flush
semantics are pinned without any asyncio or trained models involved.
"""

import numpy as np
import pytest

from repro.infer.engine import InferRequest
from repro.serve.scheduler import BatchPolicy, MicroBatchScheduler, ServeJob


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class EchoEngine:
    """Engine double: answers row ``x`` with ``x + tag`` per kind."""

    def background_proba(self, features):
        return features[:, 0] + 1000.0

    def deta(self, features):
        return features[:, 0] + 2000.0


def request_gen(job_tag, n_rounds, received, kind="background"):
    """A generator filing ``n_rounds`` single-row requests, tagged by job.

    Every answer payload is appended to ``received`` as
    ``(job_tag, round, payload_row)``; the generator returns the string
    ``done-<tag>`` as its outcome.
    """
    for r in range(n_rounds):
        features = np.array([[job_tag * 10.0 + r]])
        payload = yield InferRequest(kind, features)
        received.append((job_tag, r, float(payload[0])))
    return f"done-{job_tag}"


def make_scheduler(clock=None, **policy_kwargs):
    policy = BatchPolicy(**policy_kwargs) if policy_kwargs else BatchPolicy()
    return MicroBatchScheduler(
        EchoEngine(), policy, clock=clock or FakeClock()
    )


def add_job(sched, job_id, gen):
    job = ServeJob(job_id, gen, sched._clock())
    completed = sched.add(job)
    return job, completed


class TestPolicy:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="max_rows"):
            BatchPolicy(max_rows=0)
        with pytest.raises(ValueError, match="max_requests"):
            BatchPolicy(max_requests=0)
        with pytest.raises(ValueError, match="deadline_s"):
            BatchPolicy(deadline_s=-0.1)


class TestTriggers:
    def test_idle_scheduler_is_never_due(self):
        sched = make_scheduler()
        assert sched.due() is None
        assert sched.next_deadline() is None

    def test_size_trigger_on_request_count(self):
        received = []
        sched = make_scheduler(max_requests=2, deadline_s=60.0)
        add_job(sched, 0, request_gen(0, 1, received))
        assert sched.due() is None  # one pending, deadline far away
        add_job(sched, 1, request_gen(1, 1, received))
        assert sched.due() == "size"

    def test_size_trigger_on_row_count(self):
        sched = make_scheduler(max_rows=3, max_requests=100, deadline_s=60.0)

        def wide_gen(rows):
            yield InferRequest("background", np.zeros((rows, 1)))
            return "done"

        add_job(sched, 0, wide_gen(2))
        assert sched.due() is None
        add_job(sched, 1, wide_gen(2))
        assert sched.pending_rows() == 4
        assert sched.due() == "size"

    def test_deadline_trigger_fires_after_oldest_request_ages(self):
        clock = FakeClock()
        received = []
        sched = make_scheduler(clock, max_requests=100, deadline_s=0.5)
        add_job(sched, 0, request_gen(0, 1, received))
        assert sched.due() is None
        assert sched.next_deadline() == pytest.approx(0.5)
        clock.advance(0.3)
        assert sched.due() is None
        clock.advance(0.25)
        assert sched.due() == "deadline"

    def test_deadline_anchored_to_oldest_pending(self):
        clock = FakeClock()
        received = []
        sched = make_scheduler(clock, max_requests=100, deadline_s=0.5)
        add_job(sched, 0, request_gen(0, 1, received))
        clock.advance(0.4)
        add_job(sched, 1, request_gen(1, 1, received))
        # The newer request does not push the deadline out.
        assert sched.next_deadline() == pytest.approx(0.5)
        clock.advance(0.15)
        assert sched.due() == "deadline"

    def test_default_policy_is_work_conserving(self):
        """A clock that never advances: the default policy must still
        report a flush due right after add and after every flush — no
        timed coalescing window by default."""
        received = []
        sched = make_scheduler(FakeClock())
        add_job(sched, 0, request_gen(0, 3, received))
        assert sched.due() == "deadline"
        for _ in range(2):
            assert sched.flush(sched.due()) == []
            assert sched.due() == "deadline"
        (job,) = sched.flush(sched.due())
        assert job.outcome == "done-0"
        assert sched.due() is None

    def test_zero_deadline_is_always_due(self):
        received = []
        sched = make_scheduler(deadline_s=0.0)
        add_job(sched, 0, request_gen(0, 1, received))
        assert sched.due() == "deadline"


class TestFlush:
    def test_single_round_scatters_rows_to_owners(self):
        received = []
        sched = make_scheduler()
        jobs = [
            add_job(sched, i, request_gen(i, 1, received))[0]
            for i in range(3)
        ]
        completed = sched.flush("size")
        assert [j.job_id for j in completed] == [0, 1, 2]
        assert all(j.done for j in jobs)
        assert [j.outcome for j in jobs] == ["done-0", "done-1", "done-2"]
        # Row i*10 came back as i*10 + 1000: each job got its own slice.
        assert received == [(0, 0, 1000.0), (1, 0, 1010.0), (2, 0, 1020.0)]
        assert sched.live == 0
        assert sched.rounds == 1
        assert sched.rows_flushed == 3
        assert sched.flush_reasons == {"size": 1}

    def test_mixed_kinds_processed_in_fixed_order(self):
        received = []
        sched = make_scheduler()
        add_job(sched, 0, request_gen(0, 1, received, kind="deta"))
        add_job(sched, 1, request_gen(1, 1, received, kind="background"))
        sched.flush()
        # Background (job 1) is evaluated before deta (job 0), matching
        # localize_many's fixed kind order; both scatter correctly.
        assert received == [(1, 0, 1010.0), (0, 0, 2000.0)]

    def test_multi_round_jobs_refile_into_next_flush(self):
        received = []
        sched = make_scheduler()
        job, _ = add_job(sched, 0, request_gen(0, 3, received))
        for expected_pending in (1, 1, 1):
            assert sched.pending_requests == expected_pending
            sched.flush()
        assert job.done and job.outcome == "done-0"
        assert job.rounds == 3
        assert sched.rounds == 3

    def test_fifo_fairness_across_unbalanced_clients(self):
        # Job 1 subscribes later but needs fewer rounds; completion order
        # within a round is still ascending job id, and no job is starved.
        received = []
        sched = make_scheduler()
        long_job, _ = add_job(sched, 0, request_gen(0, 3, received))
        short_job, _ = add_job(sched, 1, request_gen(1, 1, received))
        first = sched.flush()
        assert [j.job_id for j in first] == [1]
        assert short_job.done
        sched.flush()
        third = sched.flush()
        assert [j.job_id for j in third] == [0]
        assert long_job.done

    def test_completion_without_engine_need(self):
        def instant():
            return "immediate"
            yield  # pragma: no cover

        sched = make_scheduler()
        job = ServeJob(0, instant(), 0.0)
        completed = sched.add(job)
        assert completed == [job]
        assert job.outcome == "immediate"
        assert sched.live == 0

    def test_generator_error_lands_on_job_not_batch(self):
        received = []

        def broken():
            yield InferRequest("background", np.array([[5.0]]))
            raise RuntimeError("boom")

        sched = make_scheduler()
        bad, _ = add_job(sched, 0, broken())
        good, _ = add_job(sched, 1, request_gen(1, 1, received))
        completed = sched.flush()
        assert {j.job_id for j in completed} == {0, 1}
        assert isinstance(bad.error, RuntimeError)
        assert good.outcome == "done-1"
        assert sched.live == 0

    def test_unknown_request_kind_fails_fast(self):
        def weird():
            yield InferRequest("mystery", np.array([[1.0]]))
            return "unreachable"

        sched = make_scheduler()
        job, _ = add_job(sched, 0, weird())
        (completed,) = sched.flush()
        assert completed is job
        assert isinstance(job.error, ValueError)
        assert "unknown request kind" in str(job.error)
        assert sched.live == 0
