"""Shared pytest fixtures and the hypothesis settings profile."""

import os

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:     # jobs that run no property test need not install it
    settings = None

if settings is not None:
    # Property tests draw a bounded number of examples.  CI sets
    # DERANDOMIZE_CI=1 so every run draws the same ones; a failure found
    # there reproduces locally with the same variable.
    settings.register_profile(
        "repro", max_examples=25, deadline=None,
        derandomize=os.environ.get("DERANDOMIZE_CI", "0") not in ("", "0"))
    settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for tests."""
    return np.random.default_rng(12345)
