"""Lockdown for the PR 7 replay machinery: the folded optimizer (clip +
Adam/SGD update as plan kernels) and the threaded batch-parallel replay
backend.

The contract under test is *bitwise*: folding the optimizer into the
plan and partitioning batch-parallel-safe kernels across a worker pool
must not change a single ULP relative to the serial unfused compiled
path — the threaded slices compute the same elements with the same
reduction orders, and the update kernels replicate
:mod:`repro.nn.optim` expression for expression.  Every comparison here
asserts exact array equality, not a tolerance.

The partition builders skip kernels below
``compile._PARTITION_MIN_ELEMENTS`` (splitting tiny arrays buys
nothing); tests that need partitions on toy shapes lower the threshold
via monkeypatch, while the shard tests run at batch shapes large enough
to partition naturally.
"""

import numpy as np
import pytest

import repro.nn.compile as compile_mod
from repro.core import (
    BatchedTrainer,
    HAFusionConfig,
    make_batch,
    shard_viewset,
)
from repro.data import CityConfig, generate_city, load_city
from repro.nn import Adam, CompiledStep, SGD, Tensor, clip_grad_norm
from repro.nn.compile import (
    RECORD_STATS,
    resolve_backend,
    resolve_lowering,
    resolve_workers,
)
from repro.nn.optim import Optimizer


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(name="backends", n_regions=16,
                                    total_trips=4000, poi_total=900), seed=11)


@pytest.fixture(scope="module")
def tiny_config():
    return HAFusionConfig(d=16, d_prime=8, conv_channels=4, memory_size=6,
                          num_heads=2, intra_layers=1, inter_layers=1,
                          fusion_layers=1, epochs=5, dropout=0.1, lr=5e-4)


def _build_model(city, config, seed=7):
    from repro.core.model import HAFusion
    views = city.views()
    mobility = (views.names.index("mobility")
                if "mobility" in views.names else None)
    return HAFusion(views.dims(), views.n_regions, config,
                    mobility_view=mobility,
                    rng=np.random.default_rng(seed)), views


def _assert_params_bitwise(model_a, model_b):
    for pa, pb in zip(model_a.parameters(), model_b.parameters()):
        assert (pa.data == pb.data).all(), (
            f"parameter drifted: shape {pa.data.shape}, max diff "
            f"{np.abs(pa.data - pb.data).max():.3e}")


# ----------------------------------------------------------------------
# Folded optimizer: clip + update as plan kernels
# ----------------------------------------------------------------------

class TestFoldedOptimizer:
    def _train_unfused(self, city, config, optimizer_cls, epochs, **opt_kw):
        from repro.core.trainer import compiled_optimizer_step
        model, views = _build_model(city, config)
        params = model.parameters()
        opt = optimizer_cls(params, **opt_kw)
        step = CompiledStep(lambda: model.loss(views))
        losses = [compiled_optimizer_step(opt, step, params,
                                          config.grad_clip)
                  for _ in range(epochs)]
        return model, opt, losses

    def _train_folded(self, city, config, optimizer_cls, epochs, **opt_kw):
        model, views = _build_model(city, config)
        opt = optimizer_cls(model.parameters(), **opt_kw)
        step = CompiledStep(lambda: model.loss(views), optimizer=opt,
                            grad_clip=config.grad_clip)
        losses = [step.run() for _ in range(epochs)]
        return model, opt, losses, step

    def test_folded_adam_bitwise_vs_unfused(self, city, tiny_config):
        epochs = 5
        m_u, opt_u, losses_u = self._train_unfused(
            city, tiny_config, Adam, epochs, lr=tiny_config.lr)
        m_f, opt_f, losses_f, step = self._train_folded(
            city, tiny_config, Adam, epochs, lr=tiny_config.lr)
        assert losses_f == losses_u          # exact float equality
        _assert_params_bitwise(m_f, m_u)
        assert opt_f._step_count == opt_u._step_count == epochs
        assert step.plan.num_update_ops > 0
        assert step.compile_count == 1       # no re-records across epochs

    def test_folded_adam_with_weight_decay(self, city, tiny_config):
        m_u, _, losses_u = self._train_unfused(
            city, tiny_config, Adam, 4, lr=tiny_config.lr, weight_decay=0.01)
        m_f, _, losses_f, _ = self._train_folded(
            city, tiny_config, Adam, 4, lr=tiny_config.lr, weight_decay=0.01)
        assert losses_f == losses_u
        _assert_params_bitwise(m_f, m_u)

    def test_folded_sgd_momentum_bitwise(self, city, tiny_config):
        kw = dict(lr=0.01, momentum=0.9, weight_decay=0.005)
        m_u, _, losses_u = self._train_unfused(city, tiny_config, SGD, 4, **kw)
        m_f, _, losses_f, _ = self._train_folded(city, tiny_config, SGD, 4,
                                                 **kw)
        assert losses_f == losses_u
        _assert_params_bitwise(m_f, m_u)

    def test_last_grad_norm_matches_eager_clip(self, city, tiny_config):
        # Twin steps: the folded clip kernel must report exactly the norm
        # the eager clip_grad_norm computes on identical gradients.
        model_a, views = _build_model(city, tiny_config)
        opt_a = Adam(model_a.parameters(), lr=tiny_config.lr)
        step_a = CompiledStep(lambda: model_a.loss(views), optimizer=opt_a,
                              grad_clip=tiny_config.grad_clip)
        step_a.run()

        model_b, views_b = _build_model(city, tiny_config)
        step_b = CompiledStep(lambda: model_b.loss(views_b))
        step_b.run()
        eager_norm = clip_grad_norm(model_b.parameters(),
                                    tiny_config.grad_clip)
        assert step_a.plan.last_grad_norm == eager_norm

    def test_unsupported_optimizer_rejected(self, city, tiny_config):
        class Adagrad(Optimizer):
            def step(self):
                pass

        model, views = _build_model(city, tiny_config)
        step = CompiledStep(lambda: model.loss(views),
                            optimizer=Adagrad(model.parameters()),
                            grad_clip=0.0)
        with pytest.raises(ValueError, match="cannot fold optimizer"):
            step.run()

    def test_update_without_fuse_raises(self, city, tiny_config):
        model, views = _build_model(city, tiny_config)
        step = CompiledStep(lambda: model.loss(views))
        step.run()
        with pytest.raises(RuntimeError, match="no optimizer"):
            step.plan.update()

    def test_profile_includes_update_kernels(self, city, tiny_config):
        _, _, _, step = self._train_folded(city, tiny_config, Adam, 2,
                                           lr=tiny_config.lr)
        prof = step.plan.profile(replays=1, include_update=True)
        assert any(tag.startswith("U:") for tag in prof["ops"])
        assert len(prof["top_kernels"]) == 5
        assert prof["seconds_per_replay"] > 0.0
        # Without include_update the U: kernels must not be timed (and
        # crucially, not applied).
        prof_fb = step.plan.profile(replays=1)
        assert not any(tag.startswith("U:") for tag in prof_fb["ops"])


# ----------------------------------------------------------------------
# Threaded batch-parallel replay backend
# ----------------------------------------------------------------------

class TestThreadedBackend:
    def test_resolvers(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_PLAN_WORKERS", raising=False)
        assert resolve_backend() == "serial"
        assert resolve_backend("threaded") == "threaded"
        monkeypatch.setenv("REPRO_PLAN_BACKEND", "threaded")
        assert resolve_backend() == "threaded"
        monkeypatch.setenv("REPRO_PLAN_WORKERS", "6")
        assert resolve_workers() == 6
        assert resolve_workers(2) == 2
        with pytest.raises(ValueError, match="unknown plan backend"):
            resolve_backend("fibers")
        with pytest.raises(ValueError, match="unknown plan lowering"):
            resolve_lowering("v3")

    def test_threaded_training_bitwise(self, city, tiny_config, monkeypatch):
        # Toy shapes partition only with the size floor lowered; the
        # nyc_360 shard test below exercises the natural threshold.
        monkeypatch.setattr(compile_mod, "_PARTITION_MIN_ELEMENTS", 64)
        epochs = 4

        def train(backend, workers):
            model, views = _build_model(city, tiny_config)
            opt = Adam(model.parameters(), lr=tiny_config.lr)
            step = CompiledStep(lambda: model.loss(views), optimizer=opt,
                                grad_clip=tiny_config.grad_clip,
                                backend=backend, num_workers=workers)
            losses = [step.run() for _ in range(epochs)]
            return model, losses, step.plan

        m_s, losses_s, plan_s = train("serial", None)
        m_t, losses_t, plan_t = train("threaded", 4)
        assert plan_s.num_threaded_ops == 0
        assert plan_t.num_threaded_ops > 0
        assert plan_t.backend == "threaded" and plan_t.num_workers == 4
        assert losses_t == losses_s
        _assert_params_bitwise(m_t, m_s)

    def test_threaded_gradients_bitwise(self, city, tiny_config, monkeypatch):
        # Leaf gradients after a replay — not just the loss — must match
        # the serial backend exactly (store/accumulate slice protocol).
        monkeypatch.setattr(compile_mod, "_PARTITION_MIN_ELEMENTS", 64)

        def grads(backend, workers):
            model, views = _build_model(city, tiny_config)
            step = CompiledStep(lambda: model.loss(views),
                                backend=backend, num_workers=workers)
            step.run()
            step.run()   # replay: the partitioned kernels, not the tape
            return {id_: g.copy() for id_, g in
                    ((i, t.grad) for i, t in
                     enumerate(model.parameters()) if t.grad is not None)}

        serial = grads("serial", None)
        threaded = grads("threaded", 4)
        assert serial.keys() == threaded.keys()
        for key in serial:
            assert (serial[key] == threaded[key]).all()

    def test_profile_times_threaded_slices(self, city, tiny_config,
                                           monkeypatch):
        """profile() times what a threaded replay executes: every
        partitioned kernel runs as pool.run(slices), on the training
        plan and the inference plan alike."""
        from repro.nn import no_grad, record_forward
        from repro.nn.compile import InferencePlan

        monkeypatch.setattr(compile_mod, "_PARTITION_MIN_ELEMENTS", 64)
        model, views = _build_model(city, tiny_config)
        step = CompiledStep(lambda: model.loss(views), backend="threaded",
                            num_workers=4)
        step.run()
        model.eval()
        slots = [Tensor(np.array(m)) for m in views.matrices]
        with no_grad():
            output, nodes = record_forward(lambda: model.forward(slots))
        model.train()
        infer = InferencePlan(output, nodes, slots,
                              params=model.parameters(),
                              backend="threaded", num_workers=4)

        calls = []

        class SpyPool:
            def __init__(self, pool):
                self._pool = pool

            def run(self, thunks):
                calls.append(len(thunks))
                self._pool.run(thunks)

        for plan, replay in ((step.plan, step.plan.replay),
                             (infer, lambda: infer.run(views.matrices))):
            assert plan.num_threaded_ops > 0
            monkeypatch.setattr(plan, "_worker_pool",
                                SpyPool(plan._worker_pool))
            calls.clear()
            replay()
            assert len(calls) == plan.num_threaded_ops
            calls.clear()
            plan.profile(replays=2)
            assert len(calls) == 2 * plan.num_threaded_ops

    def test_both_lowerings_threaded_bitwise(self, city, tiny_config,
                                             monkeypatch):
        # The v1 kernels must partition (or serialize) just as exactly:
        # flattened-GEMM splits are v2-only, elementwise splits are not.
        monkeypatch.setattr(compile_mod, "_PARTITION_MIN_ELEMENTS", 64)
        for lowering in ("v1", "v2"):
            model_s, views_s = _build_model(city, tiny_config)
            step_s = CompiledStep(lambda: model_s.loss(views_s),
                                  lowering=lowering)
            model_t, views_t = _build_model(city, tiny_config)
            step_t = CompiledStep(lambda: model_t.loss(views_t),
                                  lowering=lowering, backend="threaded",
                                  num_workers=4)
            for _ in range(3):
                assert step_t.run() == step_s.run()


class TestThreadedNycShards:
    """Golden/parity lockdown at real batch shapes: nyc_360 region shards
    through the batched trainer and the serving facade, threaded vs
    serial, partitioned at the natural size threshold."""

    @pytest.fixture(scope="class")
    def shard_batch(self):
        city = load_city("nyc_360", seed=7)
        return make_batch(shard_viewset(city.views(), 4))

    @pytest.fixture(scope="class")
    def shard_config(self):
        return HAFusionConfig(d=16, d_prime=8, conv_channels=4,
                              memory_size=6, num_heads=2, intra_layers=1,
                              inter_layers=1, fusion_layers=1, epochs=3,
                              dropout=0.1, lr=5e-4)

    def test_trainer_golden_bitwise(self, shard_batch, shard_config,
                                    monkeypatch):
        def train(backend):
            if backend is not None:
                monkeypatch.setenv("REPRO_PLAN_BACKEND", backend)
                monkeypatch.setenv("REPRO_PLAN_WORKERS", "4")
            else:
                monkeypatch.delenv("REPRO_PLAN_BACKEND", raising=False)
                monkeypatch.delenv("REPRO_PLAN_WORKERS", raising=False)
            trainer = BatchedTrainer(shard_batch, shard_config, seed=7,
                                     compiled=True)
            history = trainer.train(epochs=3)
            return trainer, history

        trainer_s, hist_s = train(None)
        trainer_t, hist_t = train("threaded")
        plan = trainer_t._compiled_step.plan
        assert plan.backend == "threaded"
        assert plan.num_threaded_ops > 0, (
            "no kernels partitioned at nyc_360 shard shapes")
        assert hist_t.losses == hist_s.losses
        _assert_params_bitwise(trainer_t.model, trainer_s.model)
        for e_s, e_t in zip(trainer_s.embed(), trainer_t.embed()):
            assert (e_s == e_t).all()

    def test_serving_parity(self, shard_batch, shard_config):
        from repro.core.engine import build_batched_model
        from repro.nn.plancache import PlanCache
        from repro.serving import EmbeddingService

        model = build_batched_model(shard_batch, shard_config, seed=7)
        cache = PlanCache()
        serial = EmbeddingService(
            model, n_max=shard_batch.n_max,
            view_dims=shard_batch.view_dims,
            view_names=shard_batch.view_names, plan_cache=cache)
        threaded = EmbeddingService(
            model, n_max=shard_batch.n_max,
            view_dims=shard_batch.view_dims,
            view_names=shard_batch.view_names, plan_cache=cache,
            backend="threaded", num_workers=4)
        out_s = serial.embed_batch(shard_batch)
        out_t = threaded.embed_batch(shard_batch)
        plan = threaded.plan_for(shard_batch)
        assert plan.backend == "threaded" and plan.num_threaded_ops > 0
        for a, b in zip(out_s, out_t):
            # The acceptance bound is ≤1e-8; the implementation actually
            # delivers bitwise identity.
            assert (a == b).all()

    def test_threaded_plan_from_cached_spec_zero_records(
            self, shard_batch, shard_config, tmp_path):
        """A threaded plan warm-starts from a *serially* recorded spec:
        one record epoch total, never one per backend."""
        from repro.core.engine import build_batched_model
        from repro.nn.plancache import PlanCache
        from repro.serving import EmbeddingService

        model = build_batched_model(shard_batch, shard_config, seed=7)
        common = dict(n_max=shard_batch.n_max,
                      view_dims=shard_batch.view_dims,
                      view_names=shard_batch.view_names)
        cache_a = PlanCache(directory=tmp_path)
        out_s = EmbeddingService(model, plan_cache=cache_a,
                                 **common).embed_batch(shard_batch)
        assert cache_a.stats()["misses"] == 1

        # "Restarted process": a fresh cache sees only the disk spec.
        cache_b = PlanCache(directory=tmp_path)
        threaded = EmbeddingService(model, plan_cache=cache_b,
                                    backend="threaded", num_workers=4,
                                    **common)
        before = RECORD_STATS.inference_records
        out_t = threaded.embed_batch(shard_batch)
        assert RECORD_STATS.inference_records == before
        stats = cache_b.stats()
        assert stats["misses"] == 0
        assert stats["disk_hits"] == 1 and stats["spec_hits"] == 1
        for a, b in zip(out_s, out_t):
            assert (a == b).all()
        report = cache_b.resident_report()
        assert report[0]["backend"] == "threaded"
        assert report[0]["workers"] == 4
