"""Self-tests of the open-loop schedule, lateness accounting, backlog
detection and the highest-rate search."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import openloop  # noqa: E402


class TestPoissonSchedule:
    def test_same_seed_same_schedule(self):
        a = openloop.poisson_schedule(np.random.default_rng(5), 4.0, 50)
        b = openloop.poisson_schedule(np.random.default_rng(5), 4.0, 50)
        assert np.array_equal(a, b)

    def test_other_seed_other_schedule(self):
        a = openloop.poisson_schedule(np.random.default_rng(5), 4.0, 50)
        b = openloop.poisson_schedule(np.random.default_rng(6), 4.0, 50)
        assert not np.array_equal(a, b)

    def test_count_window_and_order(self):
        offsets = openloop.poisson_schedule(np.random.default_rng(0), 2.0, 30)
        assert len(offsets) == 30
        assert np.all(np.diff(offsets) >= 0)
        assert offsets[0] >= 0.0 and offsets[-1] <= 15.0

    def test_gaps_are_exponential_at_the_rate(self):
        offsets = openloop.poisson_schedule(np.random.default_rng(1), 5.0,
                                            20000)
        gaps = np.diff(offsets)
        assert gaps.mean() == pytest.approx(0.2, rel=0.03)
        # Exponential: standard deviation equals the mean.
        assert gaps.std() == pytest.approx(0.2, rel=0.05)

    @pytest.mark.parametrize("rate,count", [(0.0, 5), (-1.0, 5), (1.0, 0)])
    def test_rejects_bad_arguments(self, rate, count):
        with pytest.raises(ValueError):
            openloop.poisson_schedule(np.random.default_rng(0), rate, count)


class TestLateness:
    def test_late_and_on_time(self):
        assert openloop.lateness([1.0, 2.0, 3.0], [1.0, 2.5, 3.0]) == \
            [0.0, 0.5, 0.0]

    def test_never_negative(self):
        assert openloop.lateness([1.0], [0.999]) == [0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            openloop.lateness([1.0, 2.0], [1.0])


class TestBacklog:
    def test_flat_latency_has_no_backlog(self):
        assert not openloop.has_backlog([0.2] * 60)

    def test_growing_latency_is_a_backlog(self):
        assert openloop.has_backlog([0.1 + 0.02 * i for i in range(60)])

    def test_small_absolute_growth_is_not_a_backlog(self):
        # Triples, but by only 20 ms.
        assert not openloop.has_backlog([0.01] * 30 + [0.03] * 30)

    def test_too_few_samples(self):
        assert not openloop.has_backlog([0.1, 5.0])


class TestMaxPassingRate:
    LIMIT_MS = 500.0

    @staticmethod
    def flat(seconds, n=60):
        return ([seconds] * n, 0)

    def test_all_rates_pass(self):
        results = {1.0: self.flat(0.1), 2.0: self.flat(0.2),
                   4.0: self.flat(0.3)}
        assert openloop.max_passing_rate(results, self.LIMIT_MS) == 4.0

    def test_tail_over_limit_fails_the_rate(self):
        results = {1.0: self.flat(0.1), 2.0: self.flat(0.2),
                   4.0: self.flat(0.6)}
        assert openloop.max_passing_rate(results, self.LIMIT_MS) == 2.0

    def test_limit_is_inclusive(self):
        assert openloop.max_passing_rate({3.0: self.flat(0.5)},
                                         self.LIMIT_MS) == 3.0

    def test_backlog_fails_the_rate(self):
        growing = ([0.05 + 0.004 * i for i in range(60)], 0)   # tail < limit
        results = {1.0: self.flat(0.1), 2.0: growing}
        assert openloop.max_passing_rate(results, self.LIMIT_MS) == 1.0

    def test_failures_fail_the_rate(self):
        results = {1.0: self.flat(0.1), 2.0: ([0.1] * 60, 1)}
        assert openloop.max_passing_rate(results, self.LIMIT_MS) == 1.0

    def test_higher_rate_after_a_failure_does_not_count(self):
        results = {1.0: self.flat(0.1), 2.0: self.flat(0.9),
                   4.0: self.flat(0.1)}
        assert openloop.max_passing_rate(results, self.LIMIT_MS) == 1.0

    def test_nothing_passes(self):
        assert openloop.max_passing_rate({1.0: self.flat(0.9)},
                                         self.LIMIT_MS) == 0.0
