"""Lockdown for the replay machinery: the folded optimizer (clip +
Adam/SGD update as plan kernels) and serial replay on the caller's
thread.

The folded-optimizer contract is *bitwise*: folding the optimizer into
the plan must not change a single ULP relative to the unfused compiled
path — the update kernels replicate :mod:`repro.nn.optim` expression for
expression.  Every comparison here asserts exact array equality, not a
tolerance.  Plans replay one kernel after another on the caller's thread
(BLAS owns all parallelism), whatever the environment says.
"""

import threading

import numpy as np
import pytest

from repro.core import HAFusionConfig, make_batch
from repro.data import CityConfig, generate_city
from repro.nn import (
    Adam,
    CompiledStep,
    InferencePlan,
    Plan,
    SGD,
    PlanCache,
    Tensor,
    clip_grad_norm,
    compile_step,
    no_grad,
    record_forward,
)
from repro.nn.compile import resolve_backend, resolve_lowering, resolve_workers
from repro.nn.optim import Optimizer
from repro.nn.plancache import build_inference_plan
from repro.serving import EmbeddingService


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
# One replay: serial, on the caller's thread
# ----------------------------------------------------------------------

def test_resolvers(monkeypatch):
    # The retired backend variables are ignored, not honoured.
    monkeypatch.setenv("REPRO_PLAN_BACKEND", "threaded")
    monkeypatch.setenv("REPRO_PLAN_WORKERS", "6")
    assert resolve_backend() == "serial"
    assert resolve_workers() == 1
    with pytest.raises(ValueError, match="unknown plan backend"):
        resolve_backend("threaded")
    assert resolve_lowering() == "v2"
    with pytest.raises(ValueError, match="unknown plan lowering"):
        resolve_lowering("v1")


def test_plans_replay_on_the_callers_thread(city, tiny_config, monkeypatch):
    """Training and inference plans start no thread, even with the retired
    backend variables set."""
    from repro.core.engine import build_batched_model

    monkeypatch.setenv("REPRO_PLAN_BACKEND", "threaded")
    monkeypatch.setenv("REPRO_PLAN_WORKERS", "4")
    before = set(threading.enumerate())

    model, views = _build_model(city, tiny_config)
    opt = Adam(model.parameters(), lr=tiny_config.lr)
    step = CompiledStep(lambda: model.loss(views), optimizer=opt,
                        grad_clip=tiny_config.grad_clip)
    for _ in range(3):
        step.run()
    batch = make_batch([views])
    service = EmbeddingService(build_batched_model(batch, tiny_config, seed=7),
                               plan_cache=PlanCache())
    service.embed_batch(batch)

    after = set(threading.enumerate())
    assert after - before == set()
    assert not [t.name for t in after
                if t.name.startswith("repro-plan-worker")]
    assert step.plan.num_threaded_ops == 0


#: Every entry point that used to take ``backend=``/``num_workers=``,
#: called with placeholder arguments: binding the retired keyword fails
#: before any argument is looked at.
_FORMER_BACKEND_ENTRY_POINTS = {
    "Plan": lambda **kw: Plan(None, [], **kw),
    "InferencePlan": lambda **kw: InferencePlan(None, [], [], **kw),
    "CompiledStep": lambda **kw: CompiledStep(lambda: None, **kw),
    "compile_step": lambda **kw: compile_step(lambda: None, **kw),
    "build_inference_plan": lambda **kw: build_inference_plan(None, [], **kw),
    "PlanCache.get": lambda **kw: PlanCache().get(None, [], None, **kw),
    "EmbeddingService": lambda **kw: EmbeddingService(None, **kw),
}


@pytest.mark.parametrize("name", sorted(_FORMER_BACKEND_ENTRY_POINTS))
def test_backend_parameters_are_rejected(name):
    """A caller still asking for a threaded replay gets a TypeError, not
    a silent serial replay."""
    entry_point = _FORMER_BACKEND_ENTRY_POINTS[name]
    with pytest.raises(TypeError, match="'backend'"):
        entry_point(backend="threaded")
    with pytest.raises(TypeError, match="'num_workers'"):
        entry_point(num_workers=4)


@pytest.mark.parametrize("kind", ["training", "inference"])
def test_kernel_error_surfaces_from_the_replay_that_raised(city, tiny_config,
                                                           kind):
    """A kernel that raises fails the replay that ran it, with nothing
    left running behind it, and the plan's next replay is bitwise the
    same as before the failure."""
    config = HAFusionConfig(**{**tiny_config.__dict__, "dropout": 0.0})
    model, views = _build_model(city, config)
    if kind == "training":
        step = CompiledStep(lambda: model.loss(views))
        step.run()
        plan, ops = step.plan, step.plan._backward_ops

        def replay():
            loss = plan.replay()
            return [loss] + [p.grad.copy() for p in model.parameters()
                             if p.grad is not None]
    else:
        model.eval()
        slots = [Tensor(np.array(m)) for m in views.matrices]
        with no_grad():
            output, nodes = record_forward(lambda: model.forward(slots))
        plan = InferencePlan(output, nodes, slots,
                             params=model.parameters())
        ops = plan._forward_ops

        def replay():
            return [plan.run(views.matrices).copy()]

    reference = replay()
    before = set(threading.enumerate())
    k = len(ops) // 2
    kernel = ops[k]

    def failing():
        raise RuntimeError("kernel fault")

    ops[k] = failing
    with pytest.raises(RuntimeError, match="kernel fault"):
        replay()
    assert set(threading.enumerate()) - before == set()
    ops[k] = kernel
    again = replay()
    assert len(again) == len(reference)
    for a, b in zip(again, reference):
        assert np.array_equal(a, b)
