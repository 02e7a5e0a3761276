"""Micro-batch scheduler semantics: flush rule, FIFO order, lock-step rounds.

These tests drive :class:`MicroBatchScheduler` synchronously with a fake
clock, a fake engine, and hand-written request generators, so flush
semantics are pinned without any asyncio or trained models involved.
"""

import numpy as np
import pytest

from repro.infer.engine import InferRequest
from repro.serve.scheduler import MicroBatchScheduler, ServeJob


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


def make_scheduler(clock=None, engine=None):
    return MicroBatchScheduler(
        engine or EchoEngine(), clock=clock or FakeClock()
    )


def add_job(sched, job_id, gen):
    job = ServeJob(job_id, gen, sched._clock())
    completed = sched.add(job)
    return job, completed


class TestTriggers:
    """The one flush rule: a round runs while anything is pending."""

    def test_idle_scheduler_is_never_due(self):
        sched = make_scheduler()
        assert sched.pending_requests == 0
        assert sched.live == 0

    def test_default_policy_is_work_conserving(self):
        """A clock that never advances: a request is pending right after
        add and after every flush until its job completes — no timed
        coalescing window gates a round."""
        received = []
        sched = make_scheduler(FakeClock())
        add_job(sched, 0, request_gen(0, 3, received))
        assert sched.pending_requests == 1
        for _ in range(2):
            assert sched.flush() == []
            assert sched.pending_requests == 1
        (job,) = sched.flush()
        assert job.outcome == "done-0"
        assert sched.pending_requests == 0

    def test_zero_deadline_is_always_due(self):
        """With no time elapsed at all, a freshly filed request is already
        pending and the very next flush answers it."""
        received = []
        sched = make_scheduler(FakeClock())
        add_job(sched, 0, request_gen(0, 1, received))
        assert sched.pending_requests == 1
        (job,) = sched.flush()
        assert job.outcome == "done-0"
        assert received == [(0, 0, 1000.0)]


class TestFlush:
    def test_single_round_scatters_rows_to_owners(self):
        received = []
        sched = make_scheduler()
        jobs = [
            add_job(sched, i, request_gen(i, 1, received))[0]
            for i in range(3)
        ]
        completed = sched.flush()
        assert [j.job_id for j in completed] == [0, 1, 2]
        assert all(j.done for j in jobs)
        assert [j.outcome for j in jobs] == ["done-0", "done-1", "done-2"]
        # Row i*10 came back as i*10 + 1000: each job got its own slice.
        assert received == [(0, 0, 1000.0), (1, 0, 1010.0), (2, 0, 1020.0)]
        assert sched.live == 0
        assert sched.rounds == 1
        assert sched.rows_flushed == 3

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

    def test_engine_error_fails_unanswered_jobs_and_scheduler_survives(self):
        class FlakyEngine(EchoEngine):
            def __init__(self):
                self.failures = 1

            def deta(self, features):
                if self.failures:
                    self.failures -= 1
                    raise RuntimeError("engine down")
                return super().deta(features)

        received = []
        sched = make_scheduler(engine=FlakyEngine())
        deta, _ = add_job(sched, 0, request_gen(0, 1, received, kind="deta"))
        bkg, _ = add_job(sched, 1, request_gen(1, 1, received))
        completed = sched.flush()
        # Background was answered before the deta call raised: only the
        # unanswered deta job fails, with the engine's own exception.
        assert [j.job_id for j in completed] == [0, 1]
        assert isinstance(deta.error, RuntimeError)
        assert bkg.outcome == "done-1"
        assert sched.live == 0
        assert sched.pending_requests == 0
        # The next round is served normally.
        job, _ = add_job(sched, 2, request_gen(2, 1, received, kind="deta"))
        (done,) = sched.flush()
        assert done is job and job.outcome == "done-2"
