"""Self-tests of the benchmark's measurement primitives."""

import os
import sys
import threading
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import catalog  # noqa: E402
from measure import (MIN_BEYOND, TAIL_LADDER, Tracer,  # noqa: E402
                     latency_summary, percentile, rank, tail_percentile)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 11))
        assert percentile(values, 50) == 5
        assert percentile(values, 90) == 9
        assert percentile(values, 100) == 10
        assert percentile(values, 1) == 1
        assert percentile(values, 55) == 6

    def test_order_does_not_matter(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_returns_a_sample(self):
        values = [0.5, 1.5, 4.0, 9.0]
        assert all(percentile(values, p) in values for p in (10, 50, 75, 99))

    @pytest.mark.parametrize("pct", [0, -1, 100.5])
    def test_rejects_bad_percentile(self, pct):
        with pytest.raises(ValueError):
            percentile([1.0], pct)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestTailPercentile:
    @pytest.mark.parametrize("n,expected", [
        (5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0),
        (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
        (10000, 99.9)])
    def test_known_sizes(self, n, expected):
        assert tail_percentile(n) == expected

    @pytest.mark.parametrize("n", range(20, 2001, 7))
    def test_highest_with_enough_samples_beyond(self, n):
        pct = tail_percentile(n)
        assert n - rank(pct, n) >= MIN_BEYOND
        higher = [p for p in TAIL_LADDER if p > pct]
        assert all(n - rank(p, n) < MIN_BEYOND for p in higher)

    def test_rank_is_exact_on_round_products(self):
        assert rank(99.9, 10000) == 9990
        assert rank(90, 100) == 90
        assert rank(50, 1) == 1

    def test_summary_in_milliseconds(self):
        seconds = [i / 1000 for i in range(1, 101)]
        summary = latency_summary(seconds)
        assert summary["p50_ms"] == pytest.approx(50.0)
        assert summary["tail_pct"] == 90.0
        assert summary["tail_ms"] == pytest.approx(90.0)


class TestMetricNames:
    def test_catalogue_names_follow_the_rule(self):
        names = [n for n, *_ in catalog.END_TO_END + catalog.PER_LAYER]
        assert all(catalog.NAME_RE.match(n) for n in names)
        assert all(catalog.NAME_RE.match(n) for n in catalog.WORKLOADS)
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("name", [
        "", "_leading", ".leading", "has space", "slash/name", "a" * 65,
        "colon:name", "ünicode"])
    def test_bad_names_rejected(self, name):
        assert not catalog.NAME_RE.match(name)

    @pytest.mark.parametrize("name", ["a", "0x", "compile.share.fwd.fused_gate",
                                      "serve-open", "a" * 64])
    def test_good_names_accepted(self, name):
        assert catalog.NAME_RE.match(name)


class _Thing:
    def work(self, x):
        return x * 2


class TestTracer:
    def test_nested_spans_record_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]

    def test_threads_have_their_own_parents(self):
        tracer = Tracer()
        seen = {}

        def worker():
            with tracer.span("other") as span:
                seen["span"] = span

        with tracer.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen["span"]["parent"] is None

    def test_wrap_class_and_restore(self):
        tracer = Tracer()
        original = _Thing.__dict__["work"]
        results = []
        tracer.wrap(_Thing, "work", "thing.work",
                    on_return=lambda a, r, s: results.append(r))
        assert _Thing().work(3) == 6
        tracer.restore()
        assert _Thing.__dict__["work"] is original
        assert results == [6]
        assert len(tracer.durations("thing.work")) == 1

    def test_wrap_instance_and_restore(self):
        tracer = Tracer()
        thing = _Thing()
        tracer.wrap(thing, "work", "thing.work")
        thing.work(1)
        _Thing().work(1)          # other instances are untouched
        tracer.restore()
        assert "work" not in vars(thing)
        assert len(tracer.durations("thing.work")) == 1

    def test_wrap_module_attribute_and_restore(self):
        module = types.ModuleType("fake")
        module.fn = lambda: 7
        original = module.fn
        tracer = Tracer()
        tracer.wrap(module, "fn", "fake.fn")
        assert module.fn() == 7
        tracer.restore()
        assert module.fn is original

    def test_span_closes_on_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert len(tracer.durations("boom")) == 1

    def test_dump_is_relative(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        path = tmp_path / "spans.json"
        tracer.dump(str(path))
        import json
        rows = json.loads(path.read_text())
        assert rows[0]["start"] == 0.0 and rows[0]["end"] >= 0.0
