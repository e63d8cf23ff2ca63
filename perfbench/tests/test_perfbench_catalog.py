"""``BENCHMARK.json`` must mirror the metric catalogue and stay within
the benchmark file format's limits."""

import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import catalog  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PATH = os.path.join(ROOT, "BENCHMARK.json")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    with open(PATH, encoding="utf-8") as f:
        return json.load(f)


def test_matches_catalogue():
    assert load() == catalog.benchmark_spec()


def test_top_level_shape():
    spec = load()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert os.path.getsize(PATH) <= 64 * 1024
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(a) <= 200 and not a.startswith("/") and ".." not in a
               for a in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert re.match(r"^[A-Za-z0-9_./-]{1,200}$", path)
        assert os.path.isdir(os.path.join(ROOT, path))


def test_workloads():
    workloads = load()["workloads"]
    assert 2 <= len(workloads) <= 8
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert catalog.NAME_RE.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metrics():
    spec = load()
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers + spec["workloads"]]
    assert len(names) == len(set(names))
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert catalog.NAME_RE.match(m["name"])
        assert UNIT_RE.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_every_layer_metric_names_its_target():
    assert set(catalog.LAYER_TARGETS) == {m["name"] for m in load()["per_layer"]}
    assert all(target for _, target in catalog.LAYER_TARGETS.values())


def test_probes_cover_other_workloads():
    for workload, probes in catalog.PROBES.items():
        assert workload in catalog.WORKLOADS
        assert workload not in probes
        assert set(probes) <= set(catalog.WORKLOADS)
