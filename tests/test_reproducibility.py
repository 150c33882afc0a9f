"""Bit-reproducibility given the seeds, as a property of one process.

The same config must give the same metrics bytes whatever the heap looks
like: after odd-sized arrays were allocated and freed, with inputs whose
data starts 8 bytes off their allocation, and with client training and the
held-out forward on run_round's helper thread, whose arrays come from another
malloc arena. A kernel whose rounding followed the alignment of its operands
would show up here as a differing record. At the benchmark's wide layer,
set-up's hidden maps (cut across two threads) and every round's record are
compared across BLAS thread counts in fresh processes.
"""

import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np

import fedqr
from fedqr import federation
from fedqr.config import preset_spec, serialize_spec
from fedqr.data import Dataset
from fedqr.federation import run_federation


def small_hetero_spec():
    # ranks 2/8/16 under a frozen tanh layer, half participation
    spec = preset_spec("paper-hetero")
    spec.federation = replace(
        spec.federation, method="ilora_s", participation=0.5, hidden_dim=96, rounds=8, lr=0.01
    )
    return spec


def wide_hetero_spec():
    # the benchmark's wide_hetero on input set 1: 128 inputs through a frozen
    # 1024-unit tanh layer to 128 classes, 2048 training and 2560 held-out
    # samples
    spec = preset_spec("paper-hetero")
    spec.federation = replace(
        spec.federation, n_clients=16, client_ranks=tuple((4, 8, 16)[i % 3] for i in range(16)),
        server_rank=16, method="ilora_s", participation=0.5, local_epochs=1, batch_size=32,
        lr=0.02, dirichlet_alpha=0.5, hidden_dim=1024, rounds=10,
        data_seed=1, partition_seed=101, train_seed=201,
    )
    spec.data = replace(
        spec.data, classes=128, samples_per_class=16, input_dim=128, eval_samples_per_class=20
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


# sets up a spec in a fresh process and prints a digest of the pooled training
# and held-out features, then runs its rounds and prints a digest of the
# metrics records
SET_UP_AND_ROUNDS = """
import hashlib, json, sys
from fedqr.config import parse_config
from fedqr.federation import init_federation, run_round

spec = parse_config(sys.stdin.read())
train, heldout = spec.build_datasets()
server, clients = init_federation(spec.federation, train, eval_dataset=heldout)
digest = hashlib.sha256()
for features in (server.pooled_train[0], server.heldout[0]):
    digest.update(features.tobytes())
print(digest.hexdigest())
digest = hashlib.sha256()
for _ in range(spec.federation.rounds):
    server, metrics = run_round(server, clients, spec.federation)
    digest.update(json.dumps(metrics.to_dict()).encode())
print(digest.hexdigest())
"""


def test_set_up_features_do_not_depend_on_the_blas_thread_count():
    # both hidden maps are cut across two threads at this size, and each
    # thread's gemm may itself run on 1 or 2 BLAS threads. The 10 rounds'
    # records follow too: drift and grad_heterogeneity sum the squares of
    # 1024 x 128 arrays, which a BLAS dot product would split across threads
    src = str(pathlib.Path(fedqr.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", SET_UP_AND_ROUNDS], input=serialize_spec(wide_hetero_spec()),
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.append(child.stdout.split())
    features, records = zip(*digests)
    assert [len(d) for d in digests[0]] == [64, 64]
    assert features[0] == features[1], "set-up features"
    assert records[0] == records[1], "metrics records"
