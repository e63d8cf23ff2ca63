"""Lockdown for the compiled serving path: forward-only inference plans,
the plan cache (memory LRU + on-disk specs), and the buffer-liveness
pool.

Contracts under test:

- ``EmbeddingService.embed_batch`` / ``embed_each`` replay flat kernels
  and match the eager engine to ≤1e-8 (float64) / ≈1e-4 (float32, with
  no dtype leaks);
- the cache keys on (config digest, shapes, dtype, mask signature):
  same-key requests replay a live plan, parameter swaps relower the
  cached spec (no record epoch), key changes record exactly once;
- a warm on-disk cache performs **zero** record epochs (asserted through
  the :data:`repro.nn.RECORD_STATS` counter) and round-trips to
  bit-identical replay output;
- corrupted / stale / wrong-architecture on-disk entries fall back to a
  fresh record;
- the activation liveness pool is arithmetic-neutral and strictly
  smaller than the one-buffer-per-slot layout.
"""

import pickle

import numpy as np
import pytest

from repro.core import HAFusionConfig, build_batched_model, make_batch
from repro.data import CityConfig, generate_city
from repro.nn import (
    RECORD_STATS,
    PlanCache,
    Tensor,
    inference_plan_key,
    no_grad,
    record_forward,
    use_dtype,
)
from repro.nn.compile import InferencePlan
from repro.serving import EmbeddingService

ATOL64 = 1e-8
ATOL32 = 1e-4


@pytest.fixture(scope="module")
def tiny_config():
    return HAFusionConfig(d=16, d_prime=8, conv_channels=4, memory_size=6,
                          num_heads=2, intra_layers=1, inter_layers=1,
                          fusion_layers=1, epochs=4, dropout=0.1, lr=5e-4)


@pytest.fixture(scope="module")
def ragged_cities():
    return [
        generate_city(CityConfig(name=f"serve{n}", n_regions=n,
                                 total_trips=5000, poi_total=1200), seed=seed)
        for n, seed in ((12, 0), (9, 1), (14, 2))
    ]


@pytest.fixture(scope="module")
def same_cities():
    return [
        generate_city(CityConfig(name=f"even{s}", n_regions=10,
                                 total_trips=5000, poi_total=1200), seed=s)
        for s in range(3)
    ]


def _assert_embed_parity(batch, model, cache, atol=ATOL64):
    service = EmbeddingService(model, plan_cache=cache)
    eager = service.embed_batch(batch, compiled=False)
    compiled = service.embed_batch(batch)
    for e, c in zip(eager, compiled):
        np.testing.assert_allclose(c, e, rtol=0.0, atol=atol)
    return eager, compiled


class TestServingParity:
    def test_embed_batch_unpadded(self, same_cities, tiny_config):
        batch = make_batch(same_cities)
        model = build_batched_model(batch, tiny_config, seed=0)
        _assert_embed_parity(batch, model, PlanCache())

    def test_embed_batch_ragged_masked(self, ragged_cities, tiny_config):
        batch = make_batch(ragged_cities)
        model = build_batched_model(batch, tiny_config, seed=0)
        cache = PlanCache()
        _assert_embed_parity(batch, model, cache)
        # The masked gate chain fuses in the inference plan too.
        plan = EmbeddingService(model, plan_cache=cache).plan_for(batch)
        assert plan.num_fused_chains == tiny_config.intra_layers * 3

    def test_wide_conv_channels(self, ragged_cities, tiny_config):
        """conv_channels=32 (more channels than the nine pooled taps of
        the RegionSA kernel) on a ragged, masked batch."""
        config = tiny_config.with_overrides(conv_channels=32)
        batch = make_batch(ragged_cities)
        model = build_batched_model(batch, config, seed=0)
        _assert_embed_parity(batch, model, PlanCache())

    def test_embed_each_compiled(self, ragged_cities, tiny_config):
        batch = make_batch(ragged_cities)
        model = build_batched_model(batch, tiny_config, seed=0)
        cache = PlanCache()
        service = EmbeddingService(model, plan_cache=cache)
        eager = service.embed_each(batch, compiled=False)
        compiled = service.embed_each(batch)
        for e, c in zip(eager, compiled):
            np.testing.assert_allclose(c, e, rtol=0.0, atol=ATOL64)
        # One plan per distinct mask pattern — three ragged cities.
        assert cache.misses == 3

    def test_replay_is_deterministic(self, same_cities, tiny_config):
        batch = make_batch(same_cities)
        model = build_batched_model(batch, tiny_config, seed=0)
        cache = PlanCache()
        service = EmbeddingService(model, plan_cache=cache)
        first = service.embed_batch(batch)
        second = service.embed_batch(batch)
        assert cache.hits >= 1
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_float32_serving(self, ragged_cities, tiny_config):
        """float32 parity ≈1e-4 with no float64 leak into the output."""
        with use_dtype(np.float32):
            batch = make_batch(ragged_cities)
            model = build_batched_model(batch, tiny_config, seed=0)
            eager, compiled = _assert_embed_parity(batch, model, PlanCache(),
                                                   atol=ATOL32)
        for e, c in zip(eager, compiled):
            assert e.dtype == np.float32
            assert c.dtype == np.float32

    def test_inputs_not_mutated(self, ragged_cities, tiny_config):
        """run() must never write through to the caller's batch arrays."""
        batch = make_batch(ragged_cities)
        before = [m.copy() for m in batch.matrices]
        model = build_batched_model(batch, tiny_config, seed=0)
        EmbeddingService(model, plan_cache=PlanCache()).embed_batch(batch)
        for m, ref in zip(batch.matrices, before):
            np.testing.assert_array_equal(m, ref)


class TestPlanCacheKeys:
    def test_key_sensitivity(self, tiny_config):
        shapes = [(3, 10, 20), (3, 10, 8)]
        mask = np.ones((3, 10))
        base = inference_plan_key(tiny_config, shapes, np.float64, mask)
        assert base == inference_plan_key(tiny_config, shapes, np.float64,
                                          mask.copy())
        # shape change
        assert base != inference_plan_key(tiny_config, [(3, 11, 20), (3, 11, 8)],
                                          np.float64, mask)
        # dtype change
        assert base != inference_plan_key(tiny_config, shapes, np.float32, mask)
        # config-digest change
        other = tiny_config.with_overrides(conv_channels=8)
        assert base != inference_plan_key(other, shapes, np.float64, mask)
        # mask-signature change (same shape, different pattern) and no mask
        padded = mask.copy()
        padded[2, 8:] = 0.0
        assert base != inference_plan_key(tiny_config, shapes, np.float64, padded)
        assert base != inference_plan_key(tiny_config, shapes, np.float64, None)

    def test_miss_on_shape_and_mask_change(self, ragged_cities, same_cities,
                                           tiny_config):
        cache = PlanCache()
        ragged = make_batch(ragged_cities)       # masked, n_max=14
        even = make_batch(same_cities)           # unpadded, n_max=10
        service_r = EmbeddingService(
            build_batched_model(ragged, tiny_config, seed=0), plan_cache=cache)
        service_e = EmbeddingService(
            build_batched_model(even, tiny_config, seed=0), plan_cache=cache)
        service_r.embed_batch(ragged)
        service_e.embed_batch(even)
        assert cache.misses == 2                 # different shapes+mask
        service_r.embed_batch(ragged)
        service_e.embed_batch(even)
        assert cache.misses == 2 and cache.hits == 2
        # Same layout, different padding pattern -> different mask
        # signature -> third record.
        service_r.embed_batch(ragged.select([2, 0, 1]))
        assert cache.misses == 3

    def test_cross_model_spec_reuse(self, same_cities, tiny_config):
        """A second model of the same architecture relowers the cached
        spec — correct new outputs, zero record epochs."""
        batch = make_batch(same_cities)
        cache = PlanCache()
        model_a = build_batched_model(batch, tiny_config, seed=0)
        EmbeddingService(model_a, plan_cache=cache).embed_batch(batch)
        service_b = EmbeddingService(
            build_batched_model(batch, tiny_config, seed=99), plan_cache=cache)
        RECORD_STATS.reset()
        eager_b = service_b.embed_batch(batch, compiled=False)
        compiled_b = service_b.embed_batch(batch)
        assert RECORD_STATS.total == 0
        assert cache.spec_hits == 1
        for e, c in zip(eager_b, compiled_b):
            np.testing.assert_allclose(c, e, rtol=0.0, atol=ATOL64)

    def test_param_swap_invalidation(self, same_cities, tiny_config):
        """load_state_dict replaces parameter arrays: the bound plan is
        stale, the spec relowers against the new arrays (no record), and
        the output tracks the new weights."""
        batch = make_batch(same_cities)
        cache = PlanCache()
        model = build_batched_model(batch, tiny_config, seed=0)
        service = EmbeddingService(model, plan_cache=cache)
        service.embed_batch(batch)
        model.load_state_dict({k: v * 0.5 for k, v in model.state_dict().items()})
        RECORD_STATS.reset()
        eager = service.embed_batch(batch, compiled=False)
        compiled = service.embed_batch(batch)
        assert RECORD_STATS.total == 0 and cache.spec_hits == 1
        for e, c in zip(eager, compiled):
            np.testing.assert_allclose(c, e, rtol=0.0, atol=ATOL64)

    def test_lru_eviction(self, ragged_cities, same_cities, tiny_config):
        """A capacity-1 memory-only cache re-records evicted keys."""
        cache = PlanCache(capacity=1)
        ragged = make_batch(ragged_cities)
        even = make_batch(same_cities)
        service_r = EmbeddingService(
            build_batched_model(ragged, tiny_config, seed=0), plan_cache=cache)
        service_e = EmbeddingService(
            build_batched_model(even, tiny_config, seed=0), plan_cache=cache)
        service_r.embed_batch(ragged)
        service_e.embed_batch(even)
        service_r.embed_batch(ragged)
        assert cache.misses == 3
        assert cache.stats()["cached_specs"] == 1
        # Eviction drops the evicted key's live plan with its spec.
        (row,) = cache.resident_report()
        assert row.keys() == {"key", "shapes", "replays", "forward_ops",
                              "slot_bytes"}


class TestDiskCache:
    def test_warm_cache_zero_records_bit_identical(self, ragged_cities,
                                                   tiny_config, tmp_path):
        batch = make_batch(ragged_cities)
        cold = PlanCache(directory=tmp_path)
        model = build_batched_model(batch, tiny_config, seed=0)
        first = EmbeddingService(model, plan_cache=cold).embed_batch(batch)
        assert cold.misses == 1

        # A fresh cache over the same directory simulates a new process:
        # the spec loads from disk, relowers, and replays bit-identically
        # with zero record epochs.
        warm = PlanCache(directory=tmp_path)
        model2 = build_batched_model(batch, tiny_config, seed=0)
        RECORD_STATS.reset()
        second = EmbeddingService(model2, plan_cache=warm).embed_batch(batch)
        assert RECORD_STATS.total == 0
        assert warm.disk_hits == 1 and warm.misses == 0
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def _cache_files(self, directory):
        return sorted(directory.glob("*.plan"))

    def test_corrupted_file_falls_back_to_record(self, same_cities,
                                                 tiny_config, tmp_path):
        batch = make_batch(same_cities)
        model = build_batched_model(batch, tiny_config, seed=0)
        cold = PlanCache(directory=tmp_path)
        reference = EmbeddingService(model, plan_cache=cold).embed_batch(batch)
        (path,) = self._cache_files(tmp_path)
        path.write_bytes(b"\x00not a pickle")

        warm = PlanCache(directory=tmp_path)
        RECORD_STATS.reset()
        recovered = EmbeddingService(model, plan_cache=warm).embed_batch(batch)
        assert warm.disk_errors == 1 and warm.misses == 1
        assert RECORD_STATS.total == 1          # fell back to a record
        for a, b in zip(reference, recovered):
            np.testing.assert_array_equal(a, b)
        # The re-record rewrote a good entry.
        fresh = PlanCache(directory=tmp_path)
        RECORD_STATS.reset()
        EmbeddingService(model, plan_cache=fresh).embed_batch(batch)
        assert RECORD_STATS.total == 0 and fresh.disk_hits == 1

    def test_stale_key_falls_back_to_record(self, same_cities, tiny_config,
                                            tmp_path):
        """An entry whose stored key disagrees with its filename (e.g. a
        hash collision or a hand-copied file) is discarded."""
        batch = make_batch(same_cities)
        model = build_batched_model(batch, tiny_config, seed=0)
        cold = PlanCache(directory=tmp_path)
        EmbeddingService(model, plan_cache=cold).embed_batch(batch)
        (path,) = self._cache_files(tmp_path)
        spec = pickle.loads(path.read_bytes())
        spec.key = ("infer", "tampered")
        path.write_bytes(pickle.dumps(spec))

        warm = PlanCache(directory=tmp_path)
        RECORD_STATS.reset()
        EmbeddingService(model, plan_cache=warm).embed_batch(batch)
        assert warm.disk_errors == 1 and warm.misses == 1
        assert RECORD_STATS.total == 1

    def test_wrong_architecture_spec_invalidates(self, same_cities,
                                                 tiny_config, tmp_path):
        """A stored spec whose parameter layout no longer matches the
        model (same filename, different architecture) re-records instead
        of binding garbage."""
        batch = make_batch(same_cities)
        model = build_batched_model(batch, tiny_config, seed=0)
        cache = PlanCache(directory=tmp_path)
        EmbeddingService(model, plan_cache=cache).embed_batch(batch)
        (path,) = self._cache_files(tmp_path)
        spec = pickle.loads(path.read_bytes())
        spec.param_count += 1                   # architecture drift
        path.write_bytes(pickle.dumps(spec))

        warm = PlanCache(directory=tmp_path)
        RECORD_STATS.reset()
        service = EmbeddingService(model, plan_cache=warm)
        recovered = service.embed_batch(batch)
        assert warm.invalidations == 1 and warm.misses == 1
        assert RECORD_STATS.total == 1
        eager = service.embed_batch(batch, compiled=False)
        for e, c in zip(eager, recovered):
            np.testing.assert_allclose(c, e, rtol=0.0, atol=ATOL64)


class TestInferencePlanInternals:
    def _record_plan(self, batch, model, pool_buffers=True):
        mask = batch.forward_mask()
        model.eval()
        slots = [Tensor(np.array(m)) for m in batch.matrices]
        with no_grad():
            output, nodes = record_forward(
                lambda: model.forward(slots, mask=mask))
        model.train()
        return InferencePlan(output, nodes, slots,
                             params=model.parameters(),
                             pool_buffers=pool_buffers)

    def test_liveness_pool_is_arithmetic_neutral(self, ragged_cities,
                                                 tiny_config):
        batch = make_batch(ragged_cities)
        model = build_batched_model(batch, tiny_config, seed=0)
        pooled = self._record_plan(batch, model, pool_buffers=True)
        flat = self._record_plan(batch, model, pool_buffers=False)
        out_pooled = pooled.run(batch.matrices).copy()
        out_flat = flat.run(batch.matrices)
        np.testing.assert_array_equal(out_pooled, out_flat)

        report = pooled.buffer_report()
        assert report["pooled"]
        assert report["slot_bytes"] < report["slot_bytes_unpooled"]
        assert report["slot_reduction"] >= 0.4
        flat_report = flat.buffer_report()
        assert flat_report["slot_bytes"] == flat_report["slot_bytes_unpooled"]

    def test_run_validates_inputs(self, same_cities, tiny_config):
        batch = make_batch(same_cities)
        model = build_batched_model(batch, tiny_config, seed=0)
        plan = self._record_plan(batch, model)
        with pytest.raises(ValueError, match="inputs"):
            plan.run(batch.matrices[:-1])
        bad = [np.zeros((1, 2, 3))] + list(batch.matrices[1:])
        with pytest.raises(ValueError, match="shape"):
            plan.run(bad)

    def test_rejects_train_mode_dropout(self, same_cities, tiny_config):
        """Recording an inference plan with active dropout (model left in
        train mode) fails loudly instead of freezing one mask."""
        batch = make_batch(same_cities)
        model = build_batched_model(batch, tiny_config, seed=0)
        inputs = [Tensor(m) for m in batch.matrices]
        with no_grad():
            with pytest.raises(RuntimeError, match="eval"):
                record_forward(lambda: model.forward(inputs))

    def test_rejects_graph_built_outside_recording(self, same_cities,
                                                   tiny_config):
        batch = make_batch(same_cities)
        model = build_batched_model(batch, tiny_config, seed=0)
        model.eval()
        inputs = [Tensor(m) for m in batch.matrices]
        stale = model.forward(inputs)       # grad-enabled: carries a graph
        with no_grad():
            output, nodes = record_forward(lambda: stale * 2.0)
        model.train()
        with pytest.raises(RuntimeError, match="outside the recorded"):
            InferencePlan(output, nodes, inputs)
