"""The benchmark's workloads against the current fedqr.

Every name the traced run rebinds must resolve: ``benchmarks/workloads.py``
lists them in ``trace_targets()``, and a rename in ``src/`` would otherwise
only surface when the benchmark is traced. The gated workloads' rounds must
pass their own output checks and repeat byte for byte, as a benchmark run
requires.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def load_workloads():
    # workloads.py imports its sibling harness.py as a top-level module
    sys.path.insert(0, str(BENCHMARKS))
    try:
        spec = importlib.util.spec_from_file_location(
            "benchmark_workloads", BENCHMARKS / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their defining module up in sys.modules
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
    return module


def test_every_trace_target_resolves():
    targets = load_workloads().trace_targets()
    assert targets
    for module, attr, span, _ in targets:
        assert module.__name__.startswith("fedqr."), span
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_wide_hetero_workload_rounds_pass_their_own_checks():
    # set-up plus three rounds of the benchmark's factored-head workload,
    # checked by the workload itself (finite metrics, bytes, global model)
    workload = load_workloads().WideHeteroWorkload(seed=1)
    state = workload.setup(0)
    for index in range(3):
        inputs = workload.prepare(state, index)
        metrics = workload.step(state, inputs)
        record, problems = workload.check(state, inputs, metrics)
        assert problems == [], (index, problems)
        assert record["round"] == index + 1


def test_lora_agg_workload_rounds_pass_their_own_checks():
    # set-up plus three rounds of the benchmark's server-only fusion workload,
    # checked by the workload itself (dense sum, subspace, global model, controls)
    workload = load_workloads().LoraAggWorkload(seed=1)
    state = workload.setup(0)
    for index in range(3):
        updates = workload.prepare(state, index)
        output = workload.step(state, updates)
        record, problems = workload.check(state, updates, output)
        assert problems == [], (index, problems)


@pytest.mark.parametrize("name", ["lora_agg", "wide_hetero"])
def test_second_setup_repeats_the_records_byte_for_byte(name):
    # the benchmark counts a round whose record differs from an earlier unit's
    # on the same input set as failed; lora_agg's records carry a sha256 of
    # the fused factors, the global model and the controls
    workload = load_workloads().WORKLOADS[name](seed=1)

    def records():
        state = workload.setup(0)
        lines = []
        for index in range(3):
            inputs = workload.prepare(state, index)
            record, problems = workload.check(state, inputs, workload.step(state, inputs))
            assert problems == [], (index, problems)
            lines.append(json.dumps(record, sort_keys=True))
        return lines

    first = records()
    assert records() == first
