"""Tests of the benchmark's own code: tracer arithmetic, metric names and
the workload generator. They run no workload and take well under a second."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from tracing import PER_LAYER_UNITS, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _traced(tracer, clock, name, cost, inner=(), label=""):
    """Call a fake function that spends ``cost`` seconds around ``inner`` calls."""

    def body():
        clock.now += cost
        for args in inner:
            _traced(tracer, clock, *args)

    tracer.call(name, body, (), {}, label=label)


def _row(tracer, name, label=""):
    return tracer.stats[(name, label)]


def test_self_time_subtracts_nested_calls_of_the_same_layer_only():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    # ensure_qaoa (1 s own) -> ensure_partition (2 s) and qaoa.optimize (4 s)
    _traced(tr, clock, "pipeline.ensure_qaoa", 1.0,
            [("pipeline.ensure_partition", 2.0), ("qaoa.optimize", 4.0)])
    assert _row(tr, "pipeline.ensure_qaoa") == [1, 7.0, 5.0]
    assert _row(tr, "pipeline.ensure_partition") == [1, 2.0, 2.0]
    assert _row(tr, "qaoa.optimize") == [1, 4.0, 4.0]


def test_self_time_skips_other_layers_to_reach_the_nearest_same_layer_caller():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    # made.sample -> mcmc.x -> made.log_prob: log_prob is nested in sample's layer
    _traced(tr, clock, "made.sample", 1.0, [("mcmc.x", 0.5, [("made.log_prob", 2.0)])])
    assert _row(tr, "made.sample") == [1, 3.5, 1.5]
    assert _row(tr, "mcmc.x") == [1, 2.5, 2.5]


def test_hot_calls_aggregate_without_spans_and_cold_calls_record_parented_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def chain():
        for _ in range(1000):
            tr.call("made.sample", lambda: setattr(clock, "now", clock.now + 1e-4), (), {}, hot=True)

    tr.call("mcmc.run_chain", chain, (), {}, label="block-surrogate")
    count, total, self_s = _row(tr, "made.sample")
    assert count == 1000
    assert total == pytest.approx(0.1)
    assert self_s == pytest.approx(0.1)
    assert _row(tr, "mcmc.run_chain", "block-surrogate")[1] == pytest.approx(0.1)
    spans = tr.dump()["spans"]
    assert [(s[0], s[1], s[2]) for s in spans] == [(0, None, "mcmc.run_chain")]


def test_wrap_and_observe_label_calls_from_arguments_and_results():
    class Owner:
        @staticmethod
        def work(size):
            return size * 2

        @staticmethod
        def cached(hit):
            return hit

    tr = Tracer()
    tr.wrap(Owner, "work", "qaoa.work", label=lambda a: f"b{a[0]}",
            on_result=lambda t, result, args: t.add("qaoa.out", result))
    assert Owner.work(4) == 8
    assert Owner.work(4) == 8
    assert tr.stats[("qaoa.work", "b4")][0] == 2
    assert tr.counters["qaoa.out"] == 16
    tr.observe(Owner, "cached", lambda t, hit: t.add("hits", int(hit)))
    Owner.cached(True)
    assert tr.counters["hits"] == 1


def test_layer_metrics_per_step_aggregates_and_ratios():
    cold = {
        "stats": [
            ["mcmc.run_chain", "block-surrogate", 4, 2.0, 2.0],
            ["made.sample", "", 8000, 0.8, 0.6],
            ["qaoa.qaoa_state", "b4", 100, 0.2, 0.2],
            ["pipeline.ensure_instance", "hit", 3, 0.03, 0.03],
            ["pipeline.ensure_instance", "miss", 1, 0.01, 0.01],
        ],
        "counters": {"mcmc.steps.block-surrogate": 10000.0, "mcmc.moved.block-surrogate": 2500.0,
                     "mcmc.accepted.block-surrogate": 6000.0},
    }
    rerun = {"stats": [["pipeline.ensure_qaoa", "hit", 1, 0.5, 0.25]], "counters": {}}
    result = {"kernels": {"block-surrogate": {"tau": 0.02}}}
    m = layer_metrics(cold, rerun, result, None, overhead_s=0.3)
    assert m["mcmc.step_us.block-surrogate"] == pytest.approx(200.0)
    assert m["mcmc.moved_frac.block-surrogate"] == pytest.approx(0.25)
    assert m["mcmc.accepted_frac.block-surrogate"] == pytest.approx(0.6)
    assert m["mcmc.decorr_per_s.block-surrogate"] == pytest.approx(0.02 * 1e6 / 200.0)
    assert m["made.sample_us"] == pytest.approx(100.0)
    assert m["qaoa.state_ms.b4"] == pytest.approx(2.0)
    assert m["qaoa.state_ms.b8"] == 0.0
    assert m["pipeline.ensure_calls"] == 4
    assert m["pipeline.cache_load_s"] == pytest.approx(0.25)
    assert m["trace.overhead_s"] == 0.3
    assert set(m) == set(PER_LAYER_UNITS)


def test_metric_names_are_valid_and_match_benchmark_json():
    from run import E2E_UNITS

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for group, units in (("end_to_end", E2E_UNITS), ("per_layer", PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        assert declared == units
        assert all(NAME.fullmatch(name) for name in declared)
    assert len({w["name"] for w in spec["workloads"]}) == len(spec["workloads"])


def test_generator_is_deterministic_per_seed(tmp_path):
    from workloads import QAOA_SEED, WORKLOADS, make_spec

    def canon(workload, seed, name):
        spec = make_spec(workload, seed, tmp_path / name, n_train=300, n_test=50)
        return json.dumps(spec, sort_keys=True).replace(str(tmp_path / name), "DATA")

    for workload in WORKLOADS:
        assert canon(workload, 5, "a") == canon(workload, 5, "b")
        assert canon(workload, 5, "a") != canon(workload, 6, "c")
        # QAOA work scales with the start angles, so the starts do not follow the seed
        qaoa_seeds = {make_spec(workload, seed, tmp_path / "q", 300, 50)["config"]["qaoa"]["seed"]
                      for seed in (5, 6)}
        assert qaoa_seeds == {QAOA_SEED}
    for name in ("train-images.idx", "train-labels.idx", "test-images.idx", "test-labels.idx"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


def test_synthetic_digits_survive_pooling_and_couple_pixels():
    from blockmc.features import binarize, build_feature_qubo, build_mi_table, downsample
    from workloads import GRID, MASK_CONFIG, make_digits

    images, labels = make_digits(2000, layout_seed=1, seed=2)
    pooled = downsample(images, MASK_CONFIG["downsample_factor"])
    assert pooled.shape == (2000, GRID, GRID)
    assert not np.any((pooled > 110) & (pooled < 145))  # cells pool far from the threshold
    inst = build_feature_qubo(build_mi_table(binarize(pooled, labels)), MASK_CONFIG["k"])
    assert inst.num_edges > 0
