"""Property tests (hypothesis) for the co-batch width rule.

A scheduler flush pads its requests to ``w = min(n_max, max n_i + 1)``
regions, not to the model's ``n_max``.  For any burst of ragged
requests, every answer must equal the same request padded alone to
``n_max`` up to summation order, every flush must report the padding
of the batch it really ran, and no flush may mix dtypes or bucket edges.

Only the tier-1 suite collects this module; the smoke jobs run without
hypothesis.
"""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import HAFusionConfig, make_batch
from repro.nn import PlanCache
from repro.serving import EmbedRequest, EmbeddingService, FlushPolicy
from serving_utils import TINY, make_views


@st.composite
def _bursts(draw):
    """(n_max, max_batch, [(n_regions, dtype), ...]) — 1 to 6 requests,
    each asking for the model dtype (``None``) or float32."""
    n_max = draw(st.integers(6, 16))
    max_batch = draw(st.integers(1, 4))
    requests = draw(st.lists(
        st.tuples(st.integers(1, n_max), st.sampled_from([None, "float32"])),
        min_size=1, max_size=6))
    return n_max, max_batch, requests


def _service(n_max: int, max_batch: int) -> EmbeddingService:
    return EmbeddingService.build(
        [make_views(n_max)], HAFusionConfig(**TINY), seed=3,
        policy=FlushPolicy(max_batch=max_batch, max_wait=60.0),
        plan_cache=PlanCache())


def _serve(service, requests):
    """Run the burst; returns (responses, the batches the flushes ran)."""
    batches = []
    run_batch = service._run_batch

    def spy(batch, compiled, tag="batched_embed"):
        batches.append(batch)
        return run_batch(batch, compiled, tag)

    service._run_batch = spy
    try:
        return service.run(requests), batches
    finally:
        del service._run_batch


@given(_bursts())
# n_i at a bucket edge (8 and 16 for n_max=16), with and without float32.
@example((16, 4, [(8, None), (16, None), (8, "float32"), (5, None)]))
# n_i = n_max next to narrower rows in the top bucket: w = n_max.
@example((12, 3, [(12, None), (7, None), (11, None), (12, "float32")]))
# max n_i = n_max − 1: the + 1 reaches n_max exactly.
@example((9, 2, [(8, None), (5, None), (1, None)]))
def test_flush_width_rule(burst):
    n_max, max_batch, specs = burst
    service = _service(n_max, max_batch)
    requests = [EmbedRequest(make_views(n, seed=i), dtype=dtype,
                             name=str(i))
                for i, (n, dtype) in enumerate(specs)]
    responses, batches = _serve(service, requests)
    by_views = {id(q.views): (q, r) for q, r in zip(requests, responses)}
    scheduler = service._require_scheduler()

    assert sum(b.batch_size for b in batches) == len(requests)
    for batch in batches:
        served = [by_views[id(vs)] for vs in batch.view_sets]
        counts = [q.n_regions for q, _ in served]
        width = min(n_max, max(counts) + 1)
        assert batch.n_max == width
        waste = 1.0 - sum(counts) / (len(counts) * width)
        assert len({q.dtype for q, _ in served}) == 1
        assert len({scheduler.bucket_edge(n) for n in counts}) == 1
        for _, response in served:
            assert response.batch_size == len(counts)
            assert response.padding_waste == waste

    for request, response in zip(requests, responses):
        padded = make_batch([request.views], n_max=service.n_max,
                            view_dims=service.view_dims)
        [reference] = service.embed_batch(padded)
        if request.dtype is None:
            assert response.embeddings.dtype == np.float64
            assert np.abs(response.embeddings - reference).max() <= 1e-8
        else:
            np.testing.assert_array_max_ulp(
                response.embeddings, reference.astype(np.float32), maxulp=1)
