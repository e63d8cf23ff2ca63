"""Parity lockdown for the compiled training-step executor.

The record-once/replay-many executor (:mod:`repro.nn.compile`) is only
safe if a replayed step reproduces the eager tape: same losses, same
gradients, same final embeddings.  Every test here trains twin models
from identical seeds — one eager, one compiled — and compares
trajectories at ≤1e-8 in float64 (replay kernels are
operation-for-operation identical to the eager ops; only fan-out
gradient accumulation *order* may differ) and ≈1e-4 in float32 (the
relaxed serving/training dtype of the ROADMAP float32 item).
"""

import numpy as np
import pytest

from repro.core import BatchedTrainer, HAFusionConfig, train_hafusion
from repro.data import CityConfig, generate_city
from repro.nn import CompiledStep, Linear, Tensor, use_dtype

ATOL64 = 1e-8
ATOL32 = 1e-4


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(name="compiled", n_regions=18,
                                    total_trips=5000, poi_total=1200), seed=3)


@pytest.fixture(scope="module")
def tiny_config():
    return HAFusionConfig(d=16, d_prime=8, conv_channels=4, memory_size=6,
                          num_heads=2, intra_layers=1, inter_layers=1,
                          fusion_layers=1, epochs=6, dropout=0.1, lr=5e-4)


@pytest.fixture(scope="module")
def ragged_cities():
    return [
        generate_city(CityConfig(name=f"compiled{n}", n_regions=n,
                                 total_trips=5000, poi_total=1200), seed=seed)
        for n, seed in ((12, 0), (9, 1), (14, 2))
    ]


def _twin_train(city, config, **kwargs):
    """Train eager and compiled twins from the same seed; return both
    (model, history) pairs."""
    eager = train_hafusion(city, config, seed=7, **kwargs)
    compiled = train_hafusion(city, config, seed=7, compiled=True, **kwargs)
    return eager, compiled


def _assert_twin_parity(city, config, atol, view_names=None):
    (m_e, h_e), (m_c, h_c) = _twin_train(city, config, view_names=view_names)
    np.testing.assert_allclose(h_c.losses, h_e.losses, rtol=0.0,
                               atol=atol * max(1.0, abs(h_e.losses[0])))
    views = city.views()
    if view_names is not None:
        views = views.subset(view_names)
    np.testing.assert_allclose(m_c.embed(views), m_e.embed(views),
                               rtol=0.0, atol=atol)


class TestCompiledVsEagerFloat64:
    def test_full_model_trajectory(self, city, tiny_config):
        """Losses and final embeddings match the eager run, with dropout
        active (the replay redraws masks from the same rng stream)."""
        _assert_twin_parity(city, tiny_config, ATOL64)

    @pytest.mark.parametrize("overrides", [
        dict(intra_attention="vanilla"),
        dict(inter_attention="vanilla"),
        dict(fusion="sum"),
        dict(fusion="concat"),
        dict(dropout=0.0),
    ], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
    def test_ablation_variants(self, city, tiny_config, overrides):
        """Every architecture variant replays exactly, including the
        paths without the RegionSA gate-fusion pattern."""
        _assert_twin_parity(city, tiny_config.with_overrides(**overrides),
                            ATOL64)

    def test_without_mobility_view(self, city, tiny_config):
        """The w/o-M ablation drops the KL heads from the graph; unused
        parameters keep grad=None in both modes."""
        _assert_twin_parity(city, tiny_config, ATOL64,
                            view_names=["poi", "landuse"])

    def test_gate_chain_fusion_active(self, city, tiny_config):
        """The RegionSA correlation chain compiles to fused kernels (one
        per RegionSA block); the vanilla ablation has none to fuse."""
        views = city.views()
        from repro.core.model import HAFusion

        def plan_for(config):
            model = HAFusion(views.dims(), views.n_regions, config,
                             mobility_view=0, rng=np.random.default_rng(0))
            step = CompiledStep(lambda: model.loss(views))
            step.run()
            return step.plan

        assert plan_for(tiny_config).num_fused_chains == tiny_config.intra_layers * 3
        vanilla = tiny_config.with_overrides(intra_attention="vanilla")
        assert plan_for(vanilla).num_fused_chains == 0

    def test_parameter_gradients_match(self, city, tiny_config):
        """Per-parameter gradient parity after several replay steps."""
        views = city.views()
        from repro.core.model import HAFusion
        from repro.nn import Adam
        from repro.core.trainer import compiled_optimizer_step, optimizer_step

        def build():
            return HAFusion(views.dims(), views.n_regions, tiny_config,
                            mobility_view=0, rng=np.random.default_rng(5))

        m_e = build()
        opt_e = Adam(m_e.parameters(), lr=tiny_config.lr)
        m_c = build()
        opt_c = Adam(m_c.parameters(), lr=tiny_config.lr)
        step = CompiledStep(lambda: m_c.loss(views))
        for _ in range(3):
            optimizer_step(opt_e, lambda: m_e.loss(views), m_e.parameters(),
                           tiny_config.grad_clip)
            compiled_optimizer_step(opt_c, step, m_c.parameters(),
                                    tiny_config.grad_clip)
        for (name, p_e), (_, p_c) in zip(m_e.named_parameters(),
                                         m_c.named_parameters()):
            assert (p_e.grad is None) == (p_c.grad is None), name
            if p_e.grad is not None:
                np.testing.assert_allclose(p_c.grad, p_e.grad, rtol=0.0,
                                           atol=ATOL64, err_msg=name)


class TestWideConvChannels:
    """conv_channels=32, the paper's value: more channels than the nine
    pooled taps the RegionSA kernels work in (every other config here
    uses c ≤ 8)."""

    @pytest.fixture(scope="class")
    def wide_config(self, tiny_config):
        return tiny_config.with_overrides(conv_channels=32)

    def test_compiled_vs_eager(self, city, wide_config):
        _assert_twin_parity(city, wide_config, ATOL64)

    def test_record_step_gradients(self, city, wide_config):
        """The record step's backward runs on the eager forward's values
        (the pooled taps are seeded at plan build), before any lowered
        forward has run; its gradients must match eager's."""
        views = city.views()
        from repro.core.model import HAFusion

        def build():
            return HAFusion(views.dims(), views.n_regions, wide_config,
                            mobility_view=0, rng=np.random.default_rng(5))

        m_e, m_c = build(), build()
        m_e.loss(views).backward()
        step = CompiledStep(lambda: m_c.loss(views))
        step.run()
        assert step.compile_count == 1 and step.plan.num_fused_chains == 3
        for (name, p_e), (_, p_c) in zip(m_e.named_parameters(),
                                         m_c.named_parameters()):
            assert (p_e.grad is None) == (p_c.grad is None), name
            if p_e.grad is not None:
                np.testing.assert_allclose(p_c.grad, p_e.grad, rtol=0.0,
                                           atol=ATOL64, err_msg=name)


class TestBatchedTrainerCompiled:
    def test_ragged_batch_trajectory(self, ragged_cities, tiny_config):
        eager = BatchedTrainer(ragged_cities, tiny_config, seed=0)
        compiled = BatchedTrainer(ragged_cities, tiny_config, seed=0,
                                  compiled=True)
        h_e = eager.train(epochs=5)
        h_c = compiled.train(epochs=5)
        # The *masked* RegionSA gate chain (softmax(A' + mask)) fuses
        # too, so padded batches no longer replay un-fused.
        plan = compiled._compiled_step.plan
        assert plan.num_fused_chains == tiny_config.intra_layers * 3
        np.testing.assert_allclose(h_c.losses, h_e.losses, rtol=0.0,
                                   atol=ATOL64 * abs(h_e.losses[0]))
        for b, s in zip(compiled.embed(), eager.embed()):
            np.testing.assert_allclose(b, s, rtol=0.0, atol=ATOL64)

    def test_gradient_pool_shrinks_buffers(self, ragged_cities, tiny_config):
        """The liveness pool allocates far less than one gradient buffer
        per slot, and disabling it reproduces the PR 2 layout."""
        from repro.nn.compile import Plan
        from repro.nn.tensor import record_tape

        trainer = BatchedTrainer(ragged_cities, tiny_config, seed=0)
        with record_tape() as nodes:
            loss = trainer.loss()
        pooled = Plan(loss, nodes)
        report = pooled.buffer_report()
        assert report["pooled"]
        assert report["grad_buffer_bytes"] < report["grad_buffer_bytes_unpooled"]
        assert report["grad_buffer_reduction"] >= 0.4

        trainer2 = BatchedTrainer(ragged_cities, tiny_config, seed=0)
        with record_tape() as nodes2:
            loss2 = trainer2.loss()
        flat = Plan(loss2, nodes2, pool_gradients=False)
        flat_report = flat.buffer_report()
        assert not flat_report["pooled"]
        assert (flat_report["grad_buffer_bytes"]
                == flat_report["grad_buffer_bytes_unpooled"]
                == report["grad_buffer_bytes_unpooled"])

    def test_gradient_pool_replay_parity(self, ragged_cities, tiny_config):
        """Pooled and unpooled plans replay identical gradients (buffer
        recycling must be arithmetic-neutral)."""
        from repro.nn.compile import Plan
        from repro.nn.tensor import record_tape

        plans = []
        for pool_gradients in (True, False):
            trainer = BatchedTrainer(ragged_cities, tiny_config, seed=0)
            with record_tape() as nodes:
                loss = trainer.loss()
            plan = Plan(loss, nodes, pool_gradients=pool_gradients)
            for _ in range(2):
                plan.replay()
            grads = {id(t): g.copy() for t, g in plan.leaves}
            plans.append((plan, grads))
        (p_pool, g_pool), (p_flat, g_flat) = plans
        assert len(p_pool.leaves) == len(p_flat.leaves)
        for (t_a, _), (t_b, _) in zip(p_pool.leaves, p_flat.leaves):
            np.testing.assert_array_equal(g_pool[id(t_a)], g_flat[id(t_b)])

    def test_unpadded_batch_uses_fusion(self, tiny_config):
        """Same-size cities skip masking, so the RegionSA gate chain is
        fused with a leading batch axis — and must still match eager."""
        cities = [generate_city(CityConfig(name=f"same{s}", n_regions=10,
                                           total_trips=5000, poi_total=1200),
                                seed=s) for s in range(3)]
        eager = BatchedTrainer(cities, tiny_config, seed=0)
        compiled = BatchedTrainer(cities, tiny_config, seed=0, compiled=True)
        h_e = eager.train(epochs=4)
        h_c = compiled.train(epochs=4)
        plan = compiled._compiled_step.plan
        assert plan.num_fused_chains == tiny_config.intra_layers * 3
        np.testing.assert_allclose(h_c.losses, h_e.losses, rtol=0.0,
                                   atol=ATOL64 * abs(h_e.losses[0]))
        for b, s in zip(compiled.embed(), eager.embed()):
            np.testing.assert_allclose(b, s, rtol=0.0, atol=ATOL64)

    def test_sharded_batch_without_kl(self, ragged_cities, tiny_config):
        from repro.core import shard_viewset
        shards = shard_viewset(ragged_cities[0].views(), 2)
        eager = BatchedTrainer(shards, tiny_config, seed=0)
        compiled = BatchedTrainer(shards, tiny_config, seed=0, compiled=True)
        assert not compiled._use_kl
        h_e = eager.train(epochs=4)
        h_c = compiled.train(epochs=4)
        np.testing.assert_allclose(h_c.losses, h_e.losses, rtol=0.0,
                                   atol=ATOL64 * abs(h_e.losses[0]))


class TestFallback:
    def test_shape_change_re_records(self):
        """Changing input shapes drops the stale plan: the step falls
        back to one eager (re-recording) execution and stays correct."""
        rng = np.random.default_rng(0)
        lin = Linear(4, 3, rng=rng)
        holder = {"x": rng.standard_normal((5, 4))}

        def loss_fn():
            out = lin(Tensor(holder["x"]))
            return (out * out).mean()

        step = CompiledStep(loss_fn,
                            signature_fn=lambda: holder["x"].shape)
        first = step.run()
        assert step.compile_count == 1
        assert step.run() == pytest.approx(first)      # replay, same input
        assert step.compile_count == 1

        holder["x"] = rng.standard_normal((8, 4))      # new shape
        changed = step.run()
        assert step.compile_count == 2

        lin.zero_grad()
        reference = loss_fn()
        reference.backward()
        assert changed == pytest.approx(reference.item())
        grads = [p.grad.copy() for p in lin.parameters()]
        lin.zero_grad()
        assert step.run() == pytest.approx(reference.item())  # replay again
        assert step.compile_count == 2
        for replayed, eager in zip([p.grad for p in lin.parameters()], grads):
            np.testing.assert_allclose(replayed, eager, rtol=0.0, atol=ATOL64)

    def test_parameter_swap_re_records(self):
        """load_state_dict replaces parameter arrays; the plan detects
        the stale buffers and re-records instead of training a ghost."""
        rng = np.random.default_rng(1)
        lin = Linear(3, 3, rng=rng)
        x = rng.standard_normal((4, 3))
        step = CompiledStep(lambda: (lin(Tensor(x)) ** 2.0).sum())
        step.run()
        assert step.compile_count == 1
        state = {k: v * 2.0 for k, v in lin.state_dict().items()}
        lin.load_state_dict(state)
        value = step.run()
        assert step.compile_count == 2
        reference = (lin(Tensor(x)) ** 2.0).sum().item()
        assert value == pytest.approx(reference)

    def test_rejects_off_tape_dropout(self):
        """Dropout on a constant input never reaches the tape, so its
        mask would freeze and the rng stream desync on replay — the
        recorder refuses it instead of training wrong."""
        from repro.nn import functional as F
        rng = np.random.default_rng(4)
        lin = Linear(3, 3, rng=rng)
        x = Tensor(rng.standard_normal((4, 3)))
        drop_rng = np.random.default_rng(5)

        def loss_fn():
            dropped = F.dropout(x, 0.5, training=True, rng=drop_rng)
            return (lin(dropped) ** 2.0).sum()

        step = CompiledStep(loss_fn)
        with pytest.raises(RuntimeError, match="cannot be compiled"):
            step.run()

    def test_rejects_loss_built_outside_recording(self):
        """Differentiable state created outside the recorded step (a
        pre-built graph fragment) cannot be replayed; fail loudly."""
        rng = np.random.default_rng(2)
        lin = Linear(3, 3, rng=rng)
        stale = lin(Tensor(rng.standard_normal((2, 3))))
        step = CompiledStep(lambda: (stale * stale).sum())
        with pytest.raises(RuntimeError, match="outside the recorded step"):
            step.run()


class TestFloat32:
    """The ROADMAP float32 item: PR-1 parity twins and the compiled
    executor under ``use_dtype(np.float32)`` with relaxed tolerances,
    plus dtype assertions that catch float64 upcast leaks."""

    def test_compiled_vs_eager_float32(self, city, tiny_config):
        with use_dtype(np.float32):
            (m_e, h_e), (m_c, h_c) = _twin_train(city, tiny_config)
            emb_e = m_e.embed(city.views())
            emb_c = m_c.embed(city.views())
        assert emb_e.dtype == np.float32 and emb_c.dtype == np.float32
        np.testing.assert_allclose(h_c.losses, h_e.losses, rtol=0.0,
                                   atol=ATOL32 * abs(h_e.losses[0]))
        np.testing.assert_allclose(emb_c, emb_e, rtol=0.0, atol=ATOL32)

    def test_no_float64_leaks_in_training(self, city, tiny_config):
        """Every parameter, gradient and Adam moment stays float32 —
        the leaky_relu scale upcast regression stays fixed."""
        with use_dtype(np.float32):
            model, _ = train_hafusion(city, tiny_config, seed=7)
        for name, param in model.named_parameters():
            assert param.dtype == np.float32, name
            if param.grad is not None:
                assert param.grad.dtype == np.float32, f"grad of {name}"

    def test_batched_engine_parity_float32(self, ragged_cities, tiny_config):
        """The PR-1 parity twins under float32: one shared model, fused
        (b, n, d) pass vs per-city loop, ≈1e-4."""
        from repro.core import make_batch
        from repro.serving import EmbeddingService
        with use_dtype(np.float32):
            service = EmbeddingService.build(ragged_cities, tiny_config,
                                             seed=0, compiled=False)
            batch = make_batch(ragged_cities)
            batched = service.embed_batch(batch)
            sequential = service.embed_each(batch)
        for b, s in zip(batched, sequential):
            assert b.dtype == np.float32
            np.testing.assert_allclose(b, s, rtol=0.0, atol=ATOL32)

    def test_batched_trainer_compiled_float32(self, ragged_cities, tiny_config):
        with use_dtype(np.float32):
            eager = BatchedTrainer(ragged_cities, tiny_config, seed=0)
            compiled = BatchedTrainer(ragged_cities, tiny_config, seed=0,
                                      compiled=True)
            h_e = eager.train(epochs=4)
            h_c = compiled.train(epochs=4)
            embeddings = compiled.embed()
        assert all(e.dtype == np.float32 for e in embeddings)
        np.testing.assert_allclose(h_c.losses, h_e.losses, rtol=0.0,
                                   atol=ATOL32 * abs(h_e.losses[0]))
