import fractions

import numpy as np
import pytest

from fedqr.data import (
    Dataset,
    PartitionError,
    dirichlet_partition,
    generate_blobs,
    read_dataset,
    write_dataset,
)


class TestGenerateBlobs:
    def test_deterministic_per_seed(self):
        a = generate_blobs(4, 20, 8, 0.3, seed=5)
        b = generate_blobs(4, 20, 8, 0.3, seed=5)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_tiny_spread_is_linearly_separable(self):
        ds = generate_blobs(5, 30, 8, 1e-4, seed=6)
        # nearest-class-mean classifier is linear; it must be perfect here
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(5)])
        dists = ((ds.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(dists, axis=1), ds.labels)

    def test_class_means_concentrate(self):
        spread = 0.5
        n = 10000
        ds = generate_blobs(3, n, 5, spread, seed=7)
        for c in range(3):
            target = np.zeros(5)
            target[c] = 1.0 / np.sqrt(2.0)
            sample_mean = ds.features[ds.labels == c].mean(axis=0)
            assert np.max(np.abs(sample_mean - target)) <= 3 * spread / np.sqrt(n)

    def test_every_class_present_invariant(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 4)), np.array([0, 0, 2]), n_classes=3)
        # labels outside [0, n_classes) are rejected too
        with pytest.raises(ValueError):
            Dataset(np.zeros((4, 4)), np.array([0, 1, 2, 3]), n_classes=3)
        with pytest.raises(ValueError):
            Dataset(np.zeros((4, 4)), np.array([-1, 0, 1, 2]), n_classes=3)

    def test_dimension_floor(self):
        with pytest.raises(ValueError, match="simplex"):
            generate_blobs(6, 5, 4, 0.2, seed=0)


class TestDirichletPartition:
    def test_single_client_takes_everything(self):
        ds = generate_blobs(3, 10, 6, 0.2, seed=8)
        plan = dirichlet_partition(ds, 1, alpha=0.5, seed=9)
        assert plan.client_counts.tolist() == [len(ds)]
        assert np.all(plan.assignments == 0)

    def test_is_true_partition_with_exact_counts(self):
        ds = generate_blobs(5, 40, 8, 0.3, seed=10)
        plan = dirichlet_partition(ds, 7, alpha=0.3, seed=11)
        assert int(plan.client_counts.sum()) == len(ds)
        # rational accounting: the p_k weights sum to exactly one
        total = sum(
            fractions.Fraction(int(c), len(ds)) for c in plan.client_counts
        )
        assert total == 1
        seen = np.bincount(plan.assignments, minlength=7)
        assert np.array_equal(seen, plan.client_counts)

    def test_near_iid_limit(self):
        uniform = 10000 / 10
        for seed in range(20):
            ds = generate_blobs(5, 2000, 8, 0.3, seed=seed)
            plan = dirichlet_partition(ds, 10, alpha=1e6, seed=1000 + seed)
            assert np.all(np.abs(plan.client_counts - uniform) <= 0.1 * uniform)

    def test_entropy_ordering_vs_alpha(self):
        def mean_label_entropy(ds, plan):
            entropies = []
            for client in range(plan.n_clients):
                labels = ds.labels[plan.client_indices(client)]
                counts = np.bincount(labels, minlength=ds.n_classes).astype(float)
                p = counts[counts > 0] / counts.sum()
                entropies.append(-(p * np.log(p)).sum())
            return float(np.mean(entropies))

        skewed, balanced = [], []
        for seed in range(20):
            ds = generate_blobs(6, 200, 8, 0.3, seed=seed)
            skewed.append(mean_label_entropy(ds, dirichlet_partition(ds, 6, 0.1, 2000 + seed)))
            balanced.append(mean_label_entropy(ds, dirichlet_partition(ds, 6, 1e6, 2000 + seed)))
        assert np.mean(skewed) < np.mean(balanced)

    def test_no_empty_clients_after_repair(self):
        ds = generate_blobs(2, 10, 4, 0.3, seed=12)
        for seed in range(30):
            plan = dirichlet_partition(ds, 5, alpha=0.05, seed=seed)
            assert np.all(plan.client_counts >= 1)

    def test_reproducible(self):
        ds = generate_blobs(4, 50, 8, 0.3, seed=13)
        a = dirichlet_partition(ds, 6, 0.4, seed=14)
        b = dirichlet_partition(ds, 6, 0.4, seed=14)
        assert np.array_equal(a.assignments, b.assignments)

    def test_too_many_clients(self):
        ds = generate_blobs(2, 3, 4, 0.3, seed=15)
        with pytest.raises(PartitionError):
            dirichlet_partition(ds, 7, alpha=1.0, seed=16)

    def test_alpha_must_be_positive(self):
        ds = generate_blobs(2, 5, 4, 0.3, seed=17)
        with pytest.raises(PartitionError):
            dirichlet_partition(ds, 2, alpha=0.0, seed=18)


class TestTextFormat:
    def test_round_trip(self, tmp_path):
        ds = generate_blobs(3, 12, 5, 0.4, seed=19)
        path = tmp_path / "blobs.txt"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.n_classes == ds.n_classes
        assert np.array_equal(back.labels, ds.labels)
        assert back.features.tobytes() == ds.features.tobytes()  # repr round-trips floats

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3 2\n0.0 0.0 0.0 0\n0.0 0.0 1\n")
        with pytest.raises(ValueError, match="row 1"):
            read_dataset(path)

    @pytest.mark.parametrize("extra", ["9.0 9.0 9.0 2\n", "\n1 2\n"])
    def test_rows_past_the_header_count_rejected(self, tmp_path, extra):
        # a trailing well-formed row and a malformed line are both errors;
        # blank lines after the last row are not
        ds = generate_blobs(3, 4, 3, 0.4, seed=2)
        path = tmp_path / "long.txt"
        write_dataset(ds, path)
        with open(path, "a", encoding="ascii") as fh:
            fh.write("\n" + extra)
        with pytest.raises(ValueError, match="header declares"):
            read_dataset(path)
        path.write_text(path.read_text().replace(extra, "\n"))
        assert read_dataset(path).labels.tobytes() == ds.labels.tobytes()
