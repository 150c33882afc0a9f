"""Every name the benchmark's traced run rebinds must resolve in fedqr.

``benchmarks/workloads.py`` lists them in ``trace_targets()``; a rename in
``src/`` would otherwise only surface when the benchmark is traced.
"""

import importlib.util
import pathlib
import sys

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
