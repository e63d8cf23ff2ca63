"""Regression lockdown for the ISSUE-6 serving-layer bug sweep.

Three latent bugs that only bite under real clocks and sustained load:

- **clock mixing** — an injected scheduling clock (``submit(now=...)``
  or ``EmbeddingService(clock=...)``) used to drive only the age-based
  flush decision while ``wait_seconds`` was measured against a separate
  always-real ``time.monotonic()`` stamp, so injected-time tests and
  trace replays reported waits of ~0 (silently clamped) instead of the
  simulated wait;
- **response-buffer aliasing** — anything short of a guaranteed copy on
  egress can hand callers views into the resident
  :class:`InferencePlan`'s output buffer, which the *next* replay
  silently overwrites;
- **unbounded observability state** — ``flush_log`` grew one entry per
  flush forever, and per-bucket stats grew per distinct bucket id.
"""

import numpy as np
import pytest

from repro.core import HAFusionConfig
from repro.serving import (
    AdmissionError,
    EmbedRequest,
    EmbeddingService,
    FlushPolicy,
)
from serving_utils import TINY, make_views


@pytest.fixture()
def service():
    policy = FlushPolicy(max_batch=3, max_wait=5.0, bucket_edges=(4, 8, 16))
    return EmbeddingService.build([make_views(16)], HAFusionConfig(**TINY),
                                  seed=5, policy=policy)


class TestOneClock:
    """The clock-mixing fix: ticket creation, poll and the flush all
    read one injectable clock, so ``wait_seconds`` is measured on the
    same timeline that decides max-wait flushes."""

    def test_injected_now_drives_wait_seconds(self, service):
        """Pre-fix this reported ~0.0 (real monotonic elapsed between
        two immediate calls), not the 7 simulated seconds."""
        ticket = service.submit(EmbedRequest(make_views(6)), now=100.0)
        assert not ticket.done
        [response] = service.poll(now=107.0)
        assert response.wait_seconds == pytest.approx(7.0)

    def test_injected_service_clock(self):
        """A service built with ``clock=`` never touches the real clock
        for scheduling or wait provenance."""
        fake = iter([10.0, 25.0]).__next__
        clock_calls = []

        def clock():
            t = fake()
            clock_calls.append(t)
            return t

        policy = FlushPolicy(max_batch=8, max_wait=5.0,
                             bucket_edges=(4, 8, 16))
        service = EmbeddingService.build(
            [make_views(16)], HAFusionConfig(**TINY), seed=5,
            policy=policy, clock=clock)
        ticket = service.submit(EmbedRequest(make_views(6)))
        assert ticket.submitted_at == 10.0
        [response] = service.poll()
        assert response.wait_seconds == pytest.approx(15.0)
        assert clock_calls   # the injected clock was really consulted

    def test_full_bucket_flush_waits_are_consistent(self, service):
        """A size-triggered flush stamps every co-batched response's
        wait against the flush's ``now``, on the submission clock."""
        tickets = [
            service.submit(EmbedRequest(make_views(6, seed=1)), now=50.0),
            service.submit(EmbedRequest(make_views(6, seed=2)), now=51.0),
            service.submit(EmbedRequest(make_views(6, seed=3)), now=53.0),
        ]
        assert all(t.done for t in tickets)   # max_batch=3 → third flushes
        assert tickets[0].response.batch_size == 3
        waits = [t.response.wait_seconds for t in tickets]
        assert waits == [pytest.approx(3.0), pytest.approx(2.0),
                         pytest.approx(0.0)]

    def test_flush_accepts_injected_now(self, service):
        ticket = service.submit(EmbedRequest(make_views(6)), now=200.0)
        [response] = service.flush(now=209.0)
        assert ticket.done
        assert response.wait_seconds == pytest.approx(9.0)


class TestEgressCopies:
    """The aliasing fix: every array leaving the service owns its data —
    never a view into the resident plan's output buffer."""

    def _plan_output(self, service, views):
        """Output buffer of the plan a one-request flush of ``views``
        ran: padded to the flush width, not to ``n_max``."""
        from repro.core.engine import make_batch
        batch = make_batch([views],
                           n_max=service._flush_width([views.n_regions]),
                           view_dims=service.view_dims)
        before = service.plan_cache.stats()["misses"]
        output = service.plan_for(batch)._output
        assert service.plan_cache.stats()["misses"] == before
        return output

    def test_replay_does_not_corrupt_prior_response(self, service):
        """The ISSUE-6 scenario: serve, checksum, serve different data
        through the same resident plan, re-checksum the *first*
        response.  An egress view would have been silently overwritten
        by the second replay."""
        first_views = make_views(6, seed=1)
        [first] = service.run([EmbedRequest(first_views)])
        checksum = np.float64(first.embeddings).sum()
        snapshot = first.embeddings.copy()
        # Same bucket, same resident plan, different input values.
        [second] = service.run([EmbedRequest(make_views(6, seed=2))])
        assert not np.array_equal(second.embeddings, snapshot)
        assert np.float64(first.embeddings).sum() == checksum
        assert (first.embeddings == snapshot).all()

    @pytest.mark.parametrize("kwargs", [
        {},                                    # the no-dtype path
        {"dtype": np.float64},                 # astype to the model dtype
        {"dtype": np.float32},                 # converting astype
        {"region_subset": [3, 0]},             # fancy-indexed egress
        {"region_subset": [1], "dtype": np.float64},
    ])
    def test_responses_never_alias_the_plan_buffer(self, service, kwargs):
        """``astype(..., copy=False)`` on a cropped view of the plan
        output was the trap: the same-dtype request would alias."""
        views = make_views(6, seed=3)
        [response] = service.run([EmbedRequest(views, **kwargs)])
        plan_output = self._plan_output(service, views)
        assert not np.shares_memory(response.embeddings, plan_output)
        # Owning its buffer outright is the stronger invariant.
        assert response.embeddings.base is None

    def test_embed_batch_outputs_own_their_data(self, service):
        from repro.core.engine import make_batch
        batch = make_batch([make_views(6, seed=4)], n_max=service.n_max,
                           view_dims=service.view_dims)
        [h] = service.embed_batch(batch)
        assert not np.shares_memory(h, service.plan_for(batch)._output)
        before = h.copy()
        service.embed_batch(make_batch([make_views(6, seed=5)],
                                       n_max=service.n_max,
                                       view_dims=service.view_dims))
        assert (h == before).all()


class TestBoundedObservability:
    """``flush_log`` and the per-bucket stats map stay bounded under
    sustained traffic, with drops/overflow counted in ``stats()``."""

    def make_service(self, **kwargs):
        policy = FlushPolicy(max_batch=1, max_wait=60.0,
                             bucket_edges=(4, 8, 16))
        return EmbeddingService.build([make_views(16)],
                                      HAFusionConfig(**TINY), seed=5,
                                      policy=policy, **kwargs)

    def test_flush_log_is_bounded_and_counts_drops(self):
        service = self.make_service(flush_log_cap=4)
        for i in range(10):
            service.run([EmbedRequest(make_views(6, seed=i))])
        assert len(service.flush_log) == 4
        assert service.flush_seq == 10
        stats = service.stats()
        assert stats["flushes"] == 10
        assert stats["flush_log_dropped"] == 6
        # The survivors are the newest flushes, seq-stamped.
        assert [f["seq"] for f in service.flush_log] == [7, 8, 9, 10]

    def test_bucket_stats_overflow_rollup(self):
        service = self.make_service(max_tracked_buckets=2)
        # Three distinct buckets: n4, n8, n16 (max_batch=1 → one flush
        # each); the third must roll into "(overflow)".
        for n in (3, 6, 12):
            service.run([EmbedRequest(make_views(n, seed=n))])
        stats = service.stats()
        assert len(service._bucket_stats) == 3   # 2 tracked + overflow
        assert EmbeddingService.OVERFLOW_BUCKET in stats["buckets"]
        assert stats["bucket_stats_overflow_flushes"] == 1
        # Aggregate accounting still covers every region served.
        assert stats["regions"] == 3 + 6 + 12

    def test_caps_validated(self):
        with pytest.raises(ValueError, match="flush_log_cap"):
            self.make_service(flush_log_cap=0)
        with pytest.raises(ValueError, match="max_tracked_buckets"):
            self.make_service(max_tracked_buckets=0)

    def test_default_log_keeps_responses_flowing(self):
        service = self.make_service(flush_log_cap=2)
        responses = [service.run([EmbedRequest(make_views(6, seed=i))])[0]
                     for i in range(5)]
        assert all(r.embeddings.shape == (6, TINY["d"]) for r in responses)


class TestTypedAdmission:
    """Oversize/mismatch rejections are typed AdmissionErrors raised at
    submit time, with the queues left clean; a failed flush requeues
    FIFO and a retry succeeds."""

    def test_oversize_is_a_typed_submit_time_rejection(self, service):
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(EmbedRequest(make_views(17)))
        assert excinfo.value.reason == "oversize"
        assert service.pending() == 0          # nothing was queued

    def test_scheduler_oversize_is_typed_too(self, service):
        scheduler = service._require_scheduler()
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.bucket_edge(99)
        assert excinfo.value.reason == "oversize"
        with pytest.raises(AdmissionError):
            scheduler.bucket_edge(0)

    def test_view_mismatch_reason(self, service):
        from repro.data.features import ViewSet
        wide = ViewSet(names=("mobility", "poi"),
                       matrices=[np.zeros((4, 20)), np.zeros((4, 6))])
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(EmbedRequest(wide))
        assert excinfo.value.reason == "view_mismatch"

    def test_failed_flush_requeues_then_retry_succeeds(self, service,
                                                       monkeypatch):
        tickets = [service.submit(EmbedRequest(make_views(6, seed=i)),
                                  now=float(i))
                   for i in range(2)]
        assert service.pending() == 2

        real_run_batch = EmbeddingService._run_batch
        calls = {"n": 0}

        def failing_run_batch(self, batch, compiled, tag="batched_embed"):
            calls["n"] += 1
            raise RuntimeError("transient compute failure")

        monkeypatch.setattr(EmbeddingService, "_run_batch",
                            failing_run_batch)
        with pytest.raises(RuntimeError, match="transient"):
            service.flush(now=10.0)
        # The popped tickets went back, FIFO order intact.
        assert service.pending() == 2
        assert not any(t.done for t in tickets)

        monkeypatch.setattr(EmbeddingService, "_run_batch", real_run_batch)
        responses = service.flush(now=12.0)
        assert [r.request_id for r in responses] \
            == [t.request.request_id for t in tickets]
        assert all(t.done for t in tickets)
        # Waits span the failure: measured from original submission.
        assert responses[0].wait_seconds == pytest.approx(12.0)
        assert responses[1].wait_seconds == pytest.approx(11.0)
