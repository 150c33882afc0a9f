"""Tests of the benchmark's own machinery.

    python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from harness import (  # noqa: E402
    TAIL_LADDER, Span, Tracer, fast_flags, self_times, slow_scale, tail_percentile, totals_under,
)
from workloads import CanonicalWorkload, LoraAggWorkload, trace_targets  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n", [20, 21, 99, 100, 101, 999, 1000, 1500, 9999, 10000, 100000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    rng = random.Random(n)
    samples = [rng.random() for _ in range(n)]
    value, percentile = tail_percentile(samples)
    assert sum(s > value for s in samples) >= 10
    # the next rung of the ladder would leave fewer than ten beyond
    higher = [p for p in TAIL_LADDER if p > percentile]
    if higher:
        index = math.ceil(higher[0] * n / 100) - 1
        assert n - 1 - index < 10
    assert value == sorted(samples)[math.ceil(percentile * n / 100) - 1]


def test_tail_percentile_picks_p99_from_a_thousand_samples():
    value, percentile = tail_percentile([float(i) for i in range(1000)])
    assert (value, percentile) == (989.0, 99.0)


def test_tail_percentile_needs_ten_samples_beyond_the_median():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 19)


def _tree():
    return [
        Span("round", 0, 100, None),
        Span("a", 10, 30, 0),
        Span("leaf", 12, 20, 1),
        Span("b", 25, 50, 0),  # overlaps a: the union is subtracted once
        Span("c", 90, 130, 0),  # runs past its parent: clipped to it
        Span("round", 200, 260, None),
        Span("a", 210, 220, 5),
        Span("setup", 300, 310, None),
        Span("a", 301, 305, 7),
    ]


def test_self_time_subtracts_the_union_of_direct_children():
    assert self_times(_tree()) == [50, 12, 8, 25, 40, 50, 10, 6, 4]


def test_totals_under_sums_only_trees_of_the_named_root():
    n_roots, totals = totals_under(_tree(), "round")
    assert n_roots == 2
    assert totals["round"].ns == 160 and totals["round"].self_ns == 100
    assert totals["a"].calls == 2 and totals["a"].ns == 30 and totals["a"].self_ns == 22
    assert totals["leaf"].ns == 8 and "setup" not in totals


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_traced_run_restores_every_rebound_name():
    workload = CanonicalWorkload(seed=0)
    references: dict = {}
    originals = [(m, a, getattr(m, a)) for m, a, _, _ in trace_targets()]

    before = run.Tally()
    run.run_unit(workload, 0, before, references)

    tracer = Tracer()
    traced = run.Tally()
    with tracer.rebound(trace_targets()):
        for module, attr, original in originals:
            assert getattr(module, attr) is not original
        run.run_unit(workload, 0, traced, references, tracer)
    for module, attr, original in originals:
        assert getattr(module, attr) is original

    recorded = len(tracer.spans)
    after = run.Tally()
    run.run_unit(workload, 0, after, references)
    assert len(tracer.spans) == recorded
    assert before.failed == traced.failed == after.failed == 0
    assert before.records == traced.records == after.records

    with pytest.raises(RuntimeError):
        with Tracer().rebound(trace_targets()):
            raise RuntimeError("abandon the traced phase")
    for module, attr, original in originals:
        assert getattr(module, attr) is original

    metrics, _ = run.per_layer(tracer.spans, before, traced)
    assert {name: unit for name, (_, unit) in metrics.items()} == _names("per_layer")
    e2e = run.end_to_end(after)
    assert {name: unit for name, (_, unit) in e2e.items()} == _names("end_to_end")


def test_canonical_oracle_check_catches_a_drifted_final_metric():
    workload = CanonicalWorkload(seed=0)
    position = workload.sets.index(workload.unit_key(0))
    records = [{} for _ in range(workload.rounds(0))]
    for method, end in zip(workload.methods, workload.final_rounds(0)):
        records[end] = {
            "drift": workload.oracle[method]["final_drift"][position],
            "train_loss": workload.oracle[method]["final_train_loss"][position],
            "heldout_accuracy": workload.oracle[method]["final_heldout_accuracy"][position],
        }
    assert workload.finish(0, records) == []
    records[-1]["train_loss"] *= 1.0 + 1e-7
    assert [index for index, _ in workload.finish(0, records)] == [len(records) - 1]


def test_lora_agg_check_catches_a_wrong_fused_update():
    workload = LoraAggWorkload(seed=0)
    state = workload.setup(0)
    updates = workload.prepare(state, 0)
    output = workload.step(state, updates)
    _, problems = workload.check(state, updates, output)
    assert problems == []
    output[0][0, 0] += 1e-6
    _, problems = workload.check(state, updates, output)
    assert any("dense sum" in p for p in problems)


class _BreaksAtRoundFive:
    """A stand-in workload whose sixth round of every unit raises."""

    min_units = 1

    def setup(self, unit):
        return {}

    def state_of(self, state):
        return {}

    def rounds(self, unit):
        return 10

    def prepare(self, state, index):
        return index

    def step(self, state, index):
        if index == 5:
            raise FloatingPointError("broken round")
        return index

    def check(self, state, index, output):
        return {"train_loss": 1.0, "truncation_error": 1.0}, []

    def finish(self, unit, records):
        return []

    def unit_key(self, unit):
        return unit

    def final_rounds(self, unit):
        return [9]


def test_a_raising_round_fails_the_rest_of_its_unit():
    workload, tally = _BreaksAtRoundFive(), run.Tally()
    for unit in range(4):
        run.run_unit(workload, unit, tally, {})
    assert (tally.attempted, tally.failed, len(tally.round_s)) == (40, 20, 20)
    assert tally.finals == {}
    e2e = run.end_to_end(tally)
    assert e2e["final_train_loss"][0] is None and e2e["final_truncation_error"][0] is None
    assert e2e["round_ms_p50"][0] > 0


def test_slow_scale_is_the_median_paired_ratio():
    # groups a, b and c ran in both states, c at a lower ratio;
    # group d ran only in the slow state
    samples = [1.0, 1.5, 2.0, 3.0, 4.0, 4.8, 4.0, 9.0]
    groups = ["a", "a", "b", "b", "c", "c", "c", "d"]
    fast = fast_flags([0.5, 0.8, 0.6, 0.8, 0.5, 0.85, 0.5, 0.8], floor=0.5)
    assert fast == [True, False, True, False, True, False, True, False]
    assert slow_scale(samples, fast, groups) == 1.5
    assert slow_scale(samples[:4], fast[:4], groups[:4]) == 1.0  # two paired groups


def test_adjusted_divides_slow_set_ups_and_rounds_by_the_round_scale():
    tally = run.Tally(
        setup_s=[0.2, 0.4], setup_probe=[0.5, 0.9],
        round_s=[1.0, 2.0, 2.0, 4.0, 3.0, 6.0], round_probe=[0.5, 0.9] * 3,
        round_group=["a", "a", "b", "b", "c", "c"],
    )
    adjusted = tally.adjusted()
    assert adjusted.scale == 2.0
    assert adjusted.setup_s == [0.2, 0.2]
    assert adjusted.round_s == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    assert (adjusted.fast_setups, adjusted.fast_rounds) == (1, 3)
