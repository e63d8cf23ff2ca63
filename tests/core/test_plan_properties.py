"""Property tests (hypothesis) for compiled plans of whole models.

For a random tiny HAFusion (d=16, 1–6 conv channels, no dropout) on one
city of 3–12 regions, or a ragged batch of two or three such cities
through :class:`BatchedTrainer`, in float64:

- three compiled training steps with the folded Adam update match three
  eager steps: losses and parameters within 1e-8;
- an :class:`InferencePlan` forward matches the eager forward within
  1e-8;
- a plan relowered from its :class:`PlanSpec`, after the pickle round
  trip of the on-disk format, replays bitwise equal to the recorded plan.

Only the tier-1 suite collects this module; the smoke jobs run without
hypothesis.
"""

import pickle

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core import BatchedTrainer, HAFusionConfig
from repro.core.model import HAFusion
from repro.core.trainer import optimizer_step
from repro.data.features import ViewSet
from repro.nn import (
    Adam,
    CompiledStep,
    InferencePlan,
    Tensor,
    no_grad,
    record_forward,
)
from repro.nn.plancache import (
    build_inference_plan,
    build_inference_spec,
    inference_plan_key,
)

ATOL = 1e-8
STEPS = 3


def _views(n: int, seed: int) -> ViewSet:
    """A city of ``n`` regions: a square OD count matrix (the mobility
    view and its KL target) and a POI count view."""
    rng = np.random.default_rng(seed)
    od = rng.poisson(2.0, (n, n)).astype(float)
    poi = rng.poisson(3.0, (n, 5)).astype(float)
    return ViewSet(names=("mobility", "poi"),
                   matrices=[od / max(od.max(), 1.0),
                             (poi - poi.mean(axis=0)) / (poi.std(axis=0) + 1.0)],
                   raw=[od, poi])


@st.composite
def _cases(draw):
    """(conv_channels, region counts, seed): one count is one city, two
    or three counts are a ragged batch."""
    channels = draw(st.integers(1, 6))
    sizes = draw(st.one_of(
        st.lists(st.integers(3, 12), min_size=1, max_size=1),
        st.lists(st.integers(3, 12), min_size=2, max_size=3)
        .filter(lambda s: len(set(s)) > 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    return channels, sizes, seed


def _config(channels: int) -> HAFusionConfig:
    return HAFusionConfig(d=16, d_prime=8, conv_channels=channels,
                          memory_size=4, num_heads=2, intra_layers=1,
                          inter_layers=1, fusion_layers=1, dropout=0.0)


def _train(cities, config, seed, compiled):
    """(model, per-step losses, plan, forward inputs, mask) after STEPS
    training steps — through the single-city loss for one city, through
    BatchedTrainer for a batch."""
    if len(cities) > 1:
        trainer = BatchedTrainer(cities, config, seed=seed, compiled=compiled)
        losses = [trainer.step() for _ in range(STEPS)]
        plan = trainer._compiled_step.plan if compiled else None
        batch = trainer.batch
        return (trainer.model, losses, plan, batch.matrices,
                batch.forward_mask())
    views = cities[0]
    model = HAFusion(views.dims(), views.n_regions, config, mobility_view=0,
                     rng=np.random.default_rng(seed))
    params = model.parameters()
    optimizer = Adam(params, lr=config.lr)

    def loss_fn():
        return model.loss(views)

    if compiled:
        step = CompiledStep(loss_fn, optimizer=optimizer,
                            grad_clip=config.grad_clip)
        losses = [step.run() for _ in range(STEPS)]
        return model, losses, step.plan, views.matrices, None
    losses = [optimizer_step(optimizer, loss_fn, params, config.grad_clip)
              for _ in range(STEPS)]
    return model, losses, None, views.matrices, None


def _eager_forward(model, matrices, mask) -> np.ndarray:
    model.eval()
    with no_grad():
        out = model.forward([Tensor(m) for m in matrices], mask=mask)
    model.train()
    return out.data.copy()


def _record(model, matrices, mask):
    model.eval()
    slots = [Tensor(np.array(m)) for m in matrices]
    with no_grad():
        output, nodes = record_forward(lambda: model.forward(slots, mask=mask))
    model.train()
    return output, nodes, slots


@given(_cases())
def test_compiled_model_matches_eager(case):
    channels, sizes, seed = case
    config = _config(channels)
    cities = [_views(n, seed + i) for i, n in enumerate(sizes)]

    eager, eager_losses, _, matrices, mask = _train(cities, config, seed,
                                                    compiled=False)
    model, losses, plan, _, _ = _train(cities, config, seed, compiled=True)
    assert plan.num_fused_chains == len(cities[0].names)
    assert plan.num_update_ops > 0
    np.testing.assert_allclose(losses, eager_losses, rtol=0.0,
                               atol=ATOL * max(1.0, abs(eager_losses[0])))
    for p, q in zip(model.parameters(), eager.parameters()):
        np.testing.assert_allclose(p.data, q.data, rtol=0.0, atol=ATOL)

    params = model.parameters()
    output, nodes, slots = _record(model, matrices, mask)
    key = inference_plan_key(config, [m.shape for m in matrices],
                             np.float64, mask)
    spec = build_inference_spec(key, output, nodes, slots, params)
    infer = InferencePlan(output, nodes, slots, params=params)
    assert infer.num_fused_chains == len(cities[0].names)
    served = infer.run(matrices).copy()
    np.testing.assert_allclose(served, _eager_forward(model, matrices, mask),
                               rtol=0.0, atol=ATOL)

    rebuilt = build_inference_plan(pickle.loads(pickle.dumps(spec)), params)
    again = rebuilt.run(matrices)
    assert again.dtype == served.dtype and again.shape == served.shape
    assert again.tobytes() == served.tobytes()
