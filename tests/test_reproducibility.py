"""Bit-reproducibility given the seeds, as a property of one process.

The same config must give the same metrics bytes whatever the heap looks
like: after odd-sized arrays were allocated and freed, with inputs whose
data starts 8 bytes off their allocation, and with client training and the
held-out forward on run_round's helper thread, whose arrays come from another
malloc arena. A kernel whose rounding followed the alignment of its operands
would show up here as a differing record.
"""

import json
from dataclasses import replace

import numpy as np

from fedqr import federation
from fedqr.config import preset_spec
from fedqr.data import Dataset
from fedqr.federation import run_federation


def small_hetero_spec():
    # ranks 2/8/16 under a frozen tanh layer, half participation
    spec = preset_spec("paper-hetero")
    spec.federation = replace(
        spec.federation, method="ilora_s", participation=0.5, hidden_dim=96, rounds=8, lr=0.01
    )
    return spec


def records(spec, train, heldout) -> list[dict]:
    return [m.to_dict() for m in run_federation(spec.federation, train, heldout)]


def shifted(dataset: Dataset) -> Dataset:
    """The same dataset, its features a view 8 bytes into a fresh allocation."""
    features = dataset.features
    buffer = np.empty(features.size + 1)
    view = buffer[1:].reshape(features.shape)
    assert view.ctypes.data == buffer.ctypes.data + 8
    view[...] = features
    return Dataset(view, dataset.labels.copy(), dataset.n_classes)


def assert_same_records(got_records, want_records, label):
    assert len(got_records) == len(want_records)
    for got, want in zip(got_records, want_records):
        if json.dumps(got) != json.dumps(want):
            key = next(k for k in want if json.dumps(got[k]) != json.dumps(want[k]))
            raise AssertionError(
                f"{label}, round {want['round']}: {key} {got[key]!r} != {want[key]!r}"
            )


def test_records_survive_heap_perturbation_and_shifted_inputs(monkeypatch):
    spec = small_hetero_spec()
    train, heldout = spec.build_datasets()
    first = records(spec, train, heldout)
    assert len(first) == spec.federation.rounds

    rng = np.random.default_rng(0)
    ballast = [np.full(int(n), 1.0) for n in 2 * rng.integers(1, 4000, size=300) + 1]
    del ballast[::2]  # leave holes of odd sizes between live blocks
    moved_train, moved_heldout = shifted(train), shifted(heldout)
    second = records(spec, moved_train, moved_heldout)
    # the helper thread at this layer size too
    monkeypatch.setattr(federation, "_OVERLAP_MIN_WEIGHT_SIZE", 0)
    threaded = records(spec, moved_train, moved_heldout)
    del ballast

    assert_same_records(second, first, "perturbed heap")
    assert_same_records(threaded, first, "perturbed heap, helper thread")
