"""Shape-bucket scheduler edge cases.

Pure scheduler mechanics (bucket-edge arithmetic, FIFO queues, flush
triggers) plus the service-level behaviours that depend on them: an
empty-queue flush is a no-op, a single ragged request serves correctly,
dtype-mixed queues are never co-batched, a request exactly at a bucket
edge stays in that bucket, and responses come back in submission order
no matter which buckets served them.
"""

import numpy as np
import pytest

from repro.core import HAFusionConfig
from repro.data.features import ViewSet
from repro.serving import (
    EmbedRequest,
    EmbeddingService,
    FlushPolicy,
    ShapeBucketScheduler,
    default_bucket_edges,
)
from repro.serving.api import EmbedTicket
from serving_utils import TINY, make_views


@pytest.fixture(scope="module")
def service():
    """n_max=16 service with explicit edges (4, 8, 16) and manual flushes
    (max_wait high enough that only size/flush() trigger)."""
    policy = FlushPolicy(max_batch=3, max_wait=60.0, bucket_edges=(4, 8, 16))
    return EmbeddingService.build([make_views(16)], HAFusionConfig(**TINY),
                                  seed=5, policy=policy)


def ticket(n_regions: int, dtype=None, seed: int = 0) -> EmbedTicket:
    return EmbedTicket(EmbedRequest(make_views(n_regions, seed=seed),
                                    dtype=dtype), "", 0.0)


class TestBucketEdges:
    def test_default_edges_are_a_halving_grid(self):
        assert default_bucket_edges(64) == (8, 16, 32, 64)
        assert default_bucket_edges(360) == (5, 11, 22, 45, 90, 180, 360)
        assert default_bucket_edges(6) == (6,)

    def test_exact_edge_is_not_promoted(self):
        sched = ShapeBucketScheduler(16, FlushPolicy(bucket_edges=(4, 8, 16)))
        # The off-by-one trap: n exactly at an edge belongs to that edge.
        assert sched.bucket_edge(4) == 4
        assert sched.bucket_edge(8) == 8
        assert sched.bucket_edge(16) == 16
        assert sched.bucket_edge(5) == 8
        assert sched.bucket_edge(9) == 16
        assert sched.bucket_edge(1) == 4

    def test_out_of_range_rejected(self):
        sched = ShapeBucketScheduler(16, FlushPolicy(bucket_edges=(4, 8, 16)))
        with pytest.raises(ValueError):
            sched.bucket_edge(17)
        with pytest.raises(ValueError):
            sched.bucket_edge(0)

    def test_edges_must_cover_n_max(self):
        with pytest.raises(ValueError):
            ShapeBucketScheduler(32, FlushPolicy(bucket_edges=(4, 8, 16)))


class TestQueues:
    def make_scheduler(self):
        return ShapeBucketScheduler(
            16, FlushPolicy(max_batch=3, max_wait=10.0,
                            bucket_edges=(4, 8, 16)))

    def test_same_shape_requests_share_a_bucket(self):
        sched = self.make_scheduler()
        k1 = sched.enqueue(ticket(7))
        k2 = sched.enqueue(ticket(8))
        assert k1 == k2
        assert sched.pending == 2

    def test_dtype_mixed_requests_never_share_a_bucket(self):
        sched = self.make_scheduler()
        k64 = sched.enqueue(ticket(8, dtype=np.float64))
        k32 = sched.enqueue(ticket(8, dtype=np.float32))
        kdefault = sched.enqueue(ticket(8))
        assert len({k64, k32, kdefault}) == 3

    def test_view_dims_separate_buckets(self):
        sched = self.make_scheduler()
        a = EmbedTicket(EmbedRequest(make_views(8, dims=(12, 6))), "", 0.0)
        b = EmbedTicket(EmbedRequest(make_views(8, dims=(10, 6))), "", 0.0)
        assert sched.enqueue(a) != sched.enqueue(b)

    def test_take_is_fifo_and_caps_at_max_batch(self):
        sched = self.make_scheduler()
        tickets = [ticket(8, seed=i) for i in range(5)]
        key = None
        for t in tickets:
            key = sched.enqueue(t)
        first = sched.take(key)
        assert first == tickets[:3]          # max_batch
        assert sched.take(key, limit=10) == tickets[3:]
        assert sched.take(key) == []         # emptied queue is dropped

    def test_full_and_overdue_buckets(self):
        sched = self.make_scheduler()
        key = sched.enqueue(EmbedTicket(EmbedRequest(make_views(8)), "", 100.0))
        assert sched.full_buckets() == []
        assert sched.overdue_buckets(now=105.0) == []
        assert sched.overdue_buckets(now=110.0) == [key]
        for i in range(2):
            sched.enqueue(EmbedTicket(EmbedRequest(make_views(8)), "", 101.0))
        assert sched.full_buckets() == [key]


class TestServiceScheduling:
    def test_empty_queue_flush_is_a_noop(self, service):
        assert service.flush() == []
        assert service.poll() == []
        assert service.pending() == 0

    def test_single_ragged_request(self, service):
        views = make_views(5, seed=3)
        [response] = service.run([EmbedRequest(views, name="solo")])
        assert response.name == "solo"
        assert response.embeddings.shape == (5, 16)
        assert response.batch_size == 1
        assert response.padded
        # 5 real regions served at width min(n_max, 5 + 1) = 6.
        assert response.padding_waste == pytest.approx(1 - 5 / 6)
        # Parity against a direct eager pass on the same model padded to
        # the full n_max.
        from repro.core import make_batch
        batch = make_batch([views], n_max=service.n_max,
                           view_dims=service.view_dims)
        [direct] = service.embed_batch(batch, compiled=False)
        assert np.abs(response.embeddings - direct).max() <= 1e-8

    def test_dtype_mixed_queue_never_co_batched(self, service):
        views = make_views(8, seed=4)
        responses = service.run([
            EmbedRequest(views, dtype=np.float32, name="f32"),
            EmbedRequest(views, dtype=np.float64, name="f64"),
            EmbedRequest(views, name="default"),
        ])
        f32, f64, default = responses
        assert f32.embeddings.dtype == np.float32
        assert f64.embeddings.dtype == np.float64
        assert f32.bucket_id != f64.bucket_id
        assert f32.batch_size == 1          # nothing co-batched with it
        # An explicit request for the model dtype co-batches with the
        # default bucket (float64 model).
        assert f64.bucket_id == default.bucket_id
        assert f64.batch_size == 2

    def test_bucket_edge_request_stays_in_its_bucket(self, service):
        for n, expected in ((4, "n4/"), (8, "n8/"), (9, "n16/"), (16, "n16/")):
            [r] = service.run([EmbedRequest(make_views(n, seed=n))])
            assert r.bucket_id.startswith(expected), (n, r.bucket_id)

    def test_full_size_flush_is_unpadded(self, service):
        responses = service.run(
            [EmbedRequest(make_views(16, seed=i)) for i in range(3)])
        assert all(not r.padded for r in responses)
        assert all(r.padding_waste == 0.0 for r in responses)
        assert all(r.batch_size == 3 for r in responses)

    def test_responses_in_submission_order(self, service):
        # Interleave three buckets; every flush is out of submission
        # order internally, but run() must hand responses back aligned.
        requests = [EmbedRequest(make_views(n, seed=i), name=f"r{i}")
                    for i, n in enumerate([3, 16, 7, 16, 3, 7, 16, 3])]
        responses = service.run(requests)
        assert [r.request_id for r in responses] \
            == [q.request_id for q in requests]
        assert [r.name for r in responses] == [q.name for q in requests]
        buckets = {r.bucket_id for r in responses}
        assert len(buckets) == 3

    def test_max_batch_triggers_flush_on_submit(self, service):
        tickets = [service.submit(EmbedRequest(make_views(6, seed=i)))
                   for i in range(3)]   # max_batch = 3
        assert all(t.done for t in tickets)
        assert tickets[0].response.batch_size == 3

    def test_max_wait_flush_via_poll(self):
        policy = FlushPolicy(max_batch=8, max_wait=0.0,
                             bucket_edges=(4, 8, 16))
        service = EmbeddingService.build([make_views(16)],
                                         HAFusionConfig(**TINY), seed=5,
                                         policy=policy)
        # max_wait=0: the submit itself polls the just-queued request out.
        ticket = service.submit(EmbedRequest(make_views(6)))
        assert ticket.done
        assert ticket.response.batch_size == 1

    def test_oversized_request_rejected(self, service):
        with pytest.raises(ValueError, match="n_max"):
            service.submit(EmbedRequest(make_views(17)))

    def test_wrong_views_rejected(self, service):
        wide = ViewSet(names=("mobility", "poi"),
                       matrices=[np.zeros((4, 20)), np.zeros((4, 6))])
        with pytest.raises(ValueError, match="view widths"):
            service.submit(EmbedRequest(wide))

    def test_view_names_become_sticky_on_first_request(self):
        """A service built straight from a model learns its view names
        from the first request; a later request with different names is
        rejected at submit instead of poisoning a co-batch flush."""
        built = EmbeddingService.build([make_views(8)],
                                       HAFusionConfig(**TINY), seed=5)
        bare = EmbeddingService(built.model,
                                policy=FlushPolicy(max_batch=4,
                                                   max_wait=60.0))
        assert bare.view_names is None
        bare.submit(EmbedRequest(make_views(8, seed=1)))
        assert bare.view_names == ("mobility", "poi")
        renamed = ViewSet(names=("foo", "bar"),
                          matrices=[np.zeros((8, 12)), np.zeros((8, 6))])
        with pytest.raises(ValueError, match="service views"):
            bare.submit(EmbedRequest(renamed))
        assert len(bare.flush()) == 1   # the first request still serves
