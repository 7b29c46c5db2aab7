"""Tests of the benchmark's own code: probes, span arithmetic, inputs, names."""

from __future__ import annotations

import gc
import json
import re
from pathlib import Path

import numpy as np
import pytest

import measure
import probes as probes_mod
import workloads as wl
from probes import Probes, Tracer
from repro.data.columns import CheckInColumns, PopulationColumns
from repro.datagen.population import iter_population_spawned
from repro.serve.events import ServeWorkloadConfig, build_schedule

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _targets(p: Probes):
    return [t for name in wl.WORKLOADS for t in wl.always_on(p, name) + wl.traced(p, name)]


def _current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_remove_restores_every_patched_attribute():
    p = Probes()
    targets = _targets(p)
    before = {(id(o), a): _current(o, a) for o, a, _ in targets}
    with p:
        for name in wl.WORKLOADS:
            p.install(wl.always_on(p, name))
            p.install(wl.traced(p, name))
        assert all(_current(o, a) is not before[(id(o), a)] for o, a, _ in targets)
        assert p.gc in gc.callbacks
    assert all(_current(o, a) is before[(id(o), a)] for o, a, _ in targets)
    assert p.gc not in gc.callbacks
    assert probes_mod._ACTIVE is None


def test_inherited_class_attribute_is_refused():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    p = Probes()
    with p, pytest.raises(ValueError):
        p.install([(Child, "f", p.count("x"))])
    assert "f" not in vars(Child)


def _small_serve(churn: bool) -> wl.ServeInputs:
    workload = ServeWorkloadConfig(n_users=40 if churn else 10, n_events=400, days=720.0, seed=5)
    scenario = None
    if churn:
        from repro.fleet.scenario import churn_scenario
        from repro.serve.events import workload_user_ids

        scenario = churn_scenario(400, workload_user_ids(40), n_devices=4, churn=0.5,
                                  persist_fraction=0.5, seed=5)
    return wl.ServeInputs(workload, scenario, use_processes=False)


@pytest.mark.parametrize("churn", [False, True])
def test_traced_serve_replay_keeps_the_digest(tmp_path, churn):
    inputs = _small_serve(churn)
    digests = []
    for traced in (False, True):
        p = Probes(str(tmp_path))
        with p:
            p.install(wl.always_on(p, "serve-churn"))
            if traced:
                p.tracer = Tracer()
                p.install(wl.traced(p, "serve-churn"))
            unit = wl.serve_replay(inputs, p, False, None)
        assert unit.problems == []
        digests.append(unit.digest)
        if traced:
            times = p.tracer.self_times()
            assert times["actor.handle"][2] == unit.items
    assert digests[0] == digests[1]


def _small_population() -> CheckInColumns:
    config = wl.rebuild_config(3)
    users = iter_population_spawned(config, 0, 60)
    return PopulationColumns.from_users(users).checkins


def test_traced_rebuild_keeps_the_digest():
    ck = _small_population()
    plain, _ = wl.rebuild_digests(ck, 3, None)
    p = Probes()
    with p:
        p.install(wl.always_on(p, "rebuild-metro"))
        p.tracer = Tracer()
        p.install(wl.traced(p, "rebuild-metro"))
        traced, problems = wl.rebuild_digests(ck, 3, plain)
    assert problems == []
    assert traced == plain
    assert p.tracer.self_times()["kernels.pin"][2] > 0


def test_self_times_of_nested_spans(monkeypatch):
    # root [0, 10] > a [1, 4] > aa [2, 3]; root > b [5, 9]
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    monkeypatch.setattr(probes_mod, "perf_counter", lambda: next(clock))
    t = Tracer()
    root = t.begin(t.name_id("root"))
    a = t.begin(t.name_id("a"))
    t.current_request = 7
    aa = t.begin(t.name_id("aa"))
    t.finish(aa)
    t.finish(a)
    b = t.begin(t.name_id("a"))
    t.finish(b)
    t.finish(root)
    times = t.self_times()
    assert times["root"] == (3.0, 10.0, 1)
    assert times["a"] == (2.0 + 4.0, 3.0 + 4.0, 2)
    assert times["aa"] == (1.0, 1.0, 1)
    assert sum(v[0] for v in times.values()) == t.root_seconds() == 10.0
    assert list(t.parent) == [-1, 0, 1, 0]
    assert list(t.request) == [-1, -1, 7, 7]


def test_spans_closed_out_of_order_are_an_error():
    t = Tracer()
    outer = t.begin(t.name_id("outer"))
    t.begin(t.name_id("inner"))
    with pytest.raises(RuntimeError):
        t.finish(outer)


def test_reconcile_reports_unattributed_remainder():
    t = Tracer()
    root = t.begin(t.name_id("bench.pass"))
    inner = t.begin(t.name_id("kernels.pin"))
    t.finish(inner)
    t.finish(root)
    times, wall, unattributed, problems = measure._reconcile(t)
    assert problems == []
    assert times["kernels.pin"][0] + unattributed == pytest.approx(wall, abs=1e-12)


def test_metric_names_and_units_match_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == measure.END_TO_END
    assert layers == measure.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    for name in list(e2e) + list(layers):
        assert pattern.fullmatch(name) and len(name) <= 64
    assert set(measure.SELF_TIME) <= set(layers)


def test_serve_inputs_are_a_function_of_the_seed():
    name = "serve-churn"
    assert wl.serve_inputs(name, 4) == wl.serve_inputs(name, 4)
    assert wl.serve_inputs(name, 4) != wl.serve_inputs(name, 5)
    small = lambda seed: ServeWorkloadConfig(  # noqa: E731
        n_users=5, n_events=50, days=wl.serve_inputs(name, seed).workload.days, seed=seed
    )
    one, two, other = build_schedule(small(4)), build_schedule(small(4)), build_schedule(small(5))
    for column in ("user_index", "timestamps", "xs", "ys"):
        assert np.array_equal(getattr(one, column), getattr(two, column))
    assert not np.array_equal(one.xs, other.xs)


def test_rebuild_inputs_are_a_function_of_the_seed():
    assert wl.rebuild_config(4) == wl.rebuild_config(4)
    assert wl.rebuild_config(4) != wl.rebuild_config(5)
    a = PopulationColumns.from_users(iter_population_spawned(wl.rebuild_config(4), 0, 20))
    b = PopulationColumns.from_users(iter_population_spawned(wl.rebuild_config(4), 0, 20))
    c = PopulationColumns.from_users(iter_population_spawned(wl.rebuild_config(5), 0, 20))
    assert np.array_equal(a.checkins.xs, b.checkins.xs)
    assert not np.array_equal(a.checkins.xs[:10], c.checkins.xs[:10])
