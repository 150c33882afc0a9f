"""Synthetic classification data and Dirichlet non-IID partitioning.

Gaussian blob datasets stand in for the real corpora; shards are produced by
the standard per-class Dirichlet-over-clients construction, with a repair pass
so no client ends up empty (an empty shard would break sample-count weighting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError


class PartitionError(ValueError):
    """The requested partition cannot be produced."""


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ShapeError("dataset needs 2-D features and 1-D labels")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ShapeError("feature and label counts differ")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("dataset features contain NaN or Inf")
        present = np.unique(self.labels)
        expected = np.arange(self.n_classes)
        if not np.array_equal(present, expected):
            raise ValueError(
                f"every class in [0, {self.n_classes}) must appear; found {present}"
            )

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class PartitionPlan:
    """Per-sample client assignment plus the resulting per-client counts."""

    assignments: np.ndarray
    client_counts: np.ndarray

    def __post_init__(self):
        self.assignments = np.asarray(self.assignments, dtype=np.int64)
        self.client_counts = np.asarray(self.client_counts, dtype=np.int64)
        if int(self.client_counts.sum()) != self.assignments.shape[0]:
            raise PartitionError("client counts do not sum to the sample count")
        if np.any(self.client_counts < 1):
            raise PartitionError("every client must receive at least one sample")

    @property
    def n_clients(self) -> int:
        return self.client_counts.shape[0]

    def client_indices(self, client: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == client)


def generate_blobs(
    n_classes: int, samples_per_class: int, d_in: int, spread: float, seed: int
) -> Dataset:
    """Gaussian clusters with unit-separated means on a simplex-like layout.

    Class c is centered at e_c / sqrt(2) embedded in the leading coordinates,
    so every pair of class means is exactly distance 1 apart. Deterministic
    per seed.
    """
    if min(n_classes, samples_per_class, d_in) < 1 or spread < 0:
        raise ValueError("blob parameters must be positive (spread nonnegative)")
    if d_in < n_classes:
        raise ValueError(f"d_in={d_in} must be >= n_classes={n_classes} for the simplex layout")
    rng = np.random.default_rng(seed)
    n = n_classes * samples_per_class
    labels = np.repeat(np.arange(n_classes), samples_per_class)
    means = np.zeros((n_classes, d_in))
    means[np.arange(n_classes), np.arange(n_classes)] = 1.0 / np.sqrt(2.0)
    features = rng.standard_normal((n, d_in))
    features *= spread
    features += means[labels]
    order = rng.permutation(n)
    return Dataset(features=features[order], labels=labels[order], n_classes=n_classes)


def dirichlet_partition(
    ds: Dataset, n_clients: int, alpha: float, seed: int
) -> PartitionPlan:
    """Per-class Dirichlet split of a dataset across clients.

    For each class, client proportions are drawn from Dir(alpha) and the
    class's samples are assigned multinomially. A repair pass then moves one
    sample from the largest client to any client that ended up empty.
    Deterministic per seed.
    """
    n = len(ds)
    if n_clients < 1:
        raise PartitionError("need at least one client")
    if n_clients > n:
        raise PartitionError(f"cannot split {n} samples across {n_clients} clients")
    if not alpha > 0:
        raise PartitionError(f"alpha must be positive, got {alpha}")
    rng = np.random.default_rng(seed)
    assignments = np.empty(n, dtype=np.int64)
    clients = np.arange(n_clients)
    # one stable sort lists every class's sample indices in ascending order
    by_class = np.argsort(ds.labels, kind="stable")
    class_ends = np.cumsum(np.bincount(ds.labels, minlength=ds.n_classes))
    for start, end in zip(np.concatenate(([0], class_ends[:-1])), class_ends):
        idx = rng.permutation(by_class[start:end])
        proportions = rng.dirichlet(np.full(n_clients, alpha))
        counts = rng.multinomial(idx.shape[0], proportions)
        assignments[idx] = np.repeat(clients, counts)
    client_counts = np.bincount(assignments, minlength=n_clients)
    # repair: empty clients steal one sample from the current largest client
    while np.any(client_counts == 0):
        empty = int(np.argmin(client_counts))
        donor = int(np.argmax(client_counts))
        moved = int(np.flatnonzero(assignments == donor)[-1])
        assignments[moved] = empty
        client_counts[donor] -= 1
        client_counts[empty] += 1
    return PartitionPlan(assignments=assignments, client_counts=client_counts)


def permute_rows(array: np.ndarray, order: np.ndarray) -> None:
    """``array[:] = array[order]`` in place, with one row of scratch.

    Follows each cycle of the permutation: the cycle's first row is saved,
    every position takes the row it gathers, and the saved row closes the
    cycle.
    """
    order = order.tolist()
    placed = bytearray(len(order))
    for start, source in enumerate(order):
        if placed[start] or source == start:
            continue
        saved = array[start].copy()
        i = start
        while source != start:
            array[i] = array[source]
            placed[i] = 1
            i, source = source, order[source]
        array[i] = saved
        placed[i] = 1


def write_dataset(ds: Dataset, path) -> None:
    """Plain-text export: a dims header, then one row of features + label per sample."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(ds)} {ds.features.shape[1]} {ds.n_classes}\n")
        for row, label in zip(ds.features, ds.labels):
            cells = " ".join(repr(float(x)) for x in row)
            fh.write(f"{cells} {int(label)}\n")


def read_dataset(path) -> Dataset:
    """Inverse of ``write_dataset``; blank lines may follow the last row only."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError("dataset header must be: n_samples d_in n_classes")
        n, d_in, n_classes = (int(x) for x in header)
        features = np.empty((n, d_in))
        labels = np.empty(n, dtype=np.int64)
        for i in range(n):
            cells = fh.readline().split()
            if len(cells) != d_in + 1:
                raise ValueError(f"row {i} has {len(cells)} fields, expected {d_in + 1}")
            features[i] = [float(x) for x in cells[:d_in]]
            labels[i] = int(cells[d_in])
        # the header's count is the whole file: a row past it is an error
        for line_no, line in enumerate(fh, start=n + 2):
            if line.strip():
                raise ValueError(f"line {line_no}: a row after the {n} the header declares")
    return Dataset(features=features, labels=labels, n_classes=n_classes)
