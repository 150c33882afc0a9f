import dataclasses
import sys

import numpy as np
import pytest

from fedqr import aggregation, linalg
from fedqr.adapter import LoraAdapter
from fedqr.aggregation import (
    ClientUpdate,
    apply_global,
    baseline_full_stack,
    concat_reconstruct,
    factor_means,
    personalize,
    qr_compress,
)
from fedqr.linalg import RankError, ShapeError, frobenius_norm, subspace_residual, thin_qr


def make_updates(seed, ranks, d=9, k=7, counts=None, scalings=None):
    rng = np.random.default_rng(seed)
    counts = counts or [10] * len(ranks)
    scalings = scalings or [1.0] * len(ranks)
    return [
        ClientUpdate(
            client_id=i,
            adapter=LoraAdapter(
                rng.standard_normal((d, r)), rng.standard_normal((r, k)), r, s
            ),
            sample_count=n,
        )
        for i, (r, n, s) in enumerate(zip(ranks, counts, scalings))
    ]


def weighted_sum(updates):
    counts = np.array([u.sample_count for u in updates], dtype=np.float64)
    weights = counts / counts.sum()
    return sum(
        w * u.adapter.scaling * (u.adapter.b_factor @ u.adapter.a_factor)
        for u, w in zip(updates, weights)
    )


class TestConcatReconstruct:
    def test_single_client_is_scaled_product(self):
        (update,) = make_updates(50, [3], scalings=[2.5])
        out = concat_reconstruct([update])
        expected = 2.5 * update.adapter.b_factor @ update.adapter.a_factor
        assert np.allclose(out, expected, atol=1e-12)

    def test_zero_adapters(self):
        updates = make_updates(51, [2, 3])
        for u in updates:
            u.adapter.b_factor[:] = 0.0
        assert not concat_reconstruct(updates).any()

    def test_heterogeneous_ranks_match_term_oracle(self):
        updates = make_updates(52, [1, 2, 4])
        out = concat_reconstruct(updates)
        expected = weighted_sum(updates)
        assert frobenius_norm(out - expected) <= 1e-12 * (1 + frobenius_norm(expected))

    def test_order_independent(self):
        updates = make_updates(53, [2, 3, 1], counts=[5, 7, 3])
        shuffled = [updates[2], updates[0], updates[1]]
        assert np.array_equal(concat_reconstruct(updates), concat_reconstruct(shuffled))

    def test_dimension_mismatch(self):
        updates = make_updates(54, [2, 2])
        bad = LoraAdapter(np.zeros((5, 2)), np.zeros((2, 7)), 2, 1.0)
        updates[1] = ClientUpdate(1, bad, 10)
        with pytest.raises(ShapeError):
            concat_reconstruct(updates)

    def test_empty_list(self):
        with pytest.raises(ValueError):
            concat_reconstruct([])


class TestQrCompress:
    def test_lossless_when_rank_covered(self):
        rng = np.random.default_rng(55)
        delta = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
        result = qr_compress(delta, 5)
        assert result.truncation_error <= 1e-10
        adapter = result.server_adapter
        assert frobenius_norm(delta - adapter.b_factor @ adapter.a_factor) <= 1e-9

    def test_zero_delta(self):
        result = qr_compress(np.zeros((6, 5)), 2)
        assert result.truncation_error == 0.0
        assert not (result.server_adapter.b_factor @ result.server_adapter.a_factor).any()

    def test_truncation_error_equals_trailing_block(self):
        rng = np.random.default_rng(56)
        delta = rng.standard_normal((12, 6)) @ rng.standard_normal((6, 9))
        result = qr_compress(delta, 3)
        adapter = result.server_adapter
        residual = frobenius_norm(delta - adapter.b_factor @ adapter.a_factor)
        assert abs(residual - result.truncation_error) <= 1e-9
        _, dense_r = thin_qr(delta)
        assert result.truncation_error == pytest.approx(
            frobenius_norm(dense_r[3:, :]), abs=1e-12
        )

    def test_keeps_only_server_rank_block_of_dense_qr(self):
        rng = np.random.default_rng(73)
        delta = rng.standard_normal((11, 4)) @ rng.standard_normal((4, 9))
        result = qr_compress(delta, 3)
        dense_q, dense_r = thin_qr(delta)
        assert result.q.shape == (11, 3) and result.r.shape == (3, 9)
        for rank in range(1, 4):
            adapter = personalize(result, rank)
            assert np.max(np.abs(adapter.b_factor - dense_q[:, :rank])) <= 1e-12
            assert np.max(np.abs(adapter.a_factor - dense_r[:rank])) <= 1e-12 * frobenius_norm(delta)

    def test_error_monotone_in_server_rank(self):
        rng = np.random.default_rng(57)
        delta = rng.standard_normal((10, 8))
        errors = [qr_compress(delta, r).truncation_error for r in range(1, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_truncation_identity_mismatch_raises(self, monkeypatch):
        # an R whose leading block no longer reproduces delta's leading
        # columns breaks ||delta - Q R||_F = truncation error
        leading_qr = aggregation.leading_qr

        def perturbed(m, rank):
            q, r = leading_qr(m, rank)
            r[0, 0] += 1e-3
            return q, r

        monkeypatch.setattr(aggregation, "leading_qr", perturbed)
        delta = np.random.default_rng(59).standard_normal((9, 7))
        with pytest.raises(ArithmeticError, match="truncation identity violated"):
            qr_compress(delta, 3)

    def test_result_stores_only_q_r_and_error(self):
        result = qr_compress(np.random.default_rng(60).standard_normal((9, 7)), 4)
        assert [f.name for f in dataclasses.fields(result)] == ["q", "r", "truncation_error"]
        adapter = result.server_adapter
        assert adapter.b_factor is result.q and adapter.a_factor is result.r
        assert adapter.rank == 4 and adapter.scaling == 1.0

    def test_server_adapter_orthonormal(self):
        delta = np.random.default_rng(58).standard_normal((9, 7))
        b = qr_compress(delta, 4).server_adapter.b_factor
        assert np.max(np.abs(b.T @ b - np.eye(4))) <= 1e-10

    def test_rank_bounds(self):
        with pytest.raises(RankError):
            qr_compress(np.zeros((4, 4)), 5)
        with pytest.raises(RankError):
            qr_compress(np.zeros((4, 4)), 0)


class TestPersonalize:
    def test_full_rank_equals_server_adapter(self):
        delta = np.random.default_rng(59).standard_normal((8, 6))
        result = qr_compress(delta, 4)
        adapter = personalize(result, 4)
        assert np.array_equal(adapter.b_factor, result.server_adapter.b_factor)
        assert np.array_equal(adapter.a_factor, result.server_adapter.a_factor)

    def test_rank_one_slice(self):
        delta = np.random.default_rng(60).standard_normal((8, 6))
        result = qr_compress(delta, 4)
        adapter = personalize(result, 1)
        assert np.array_equal(adapter.b_factor, result.q[:, :1])
        assert np.array_equal(adapter.a_factor, result.r[:1, :])

    def test_nested_slices(self):
        delta = np.random.default_rng(61).standard_normal((10, 9))
        result = qr_compress(delta, 6)
        small = personalize(result, 2)
        large = personalize(result, 5)
        assert np.array_equal(small.b_factor, large.b_factor[:, :2])
        assert np.array_equal(small.a_factor, large.a_factor[:2, :])

    def test_stays_in_global_subspace(self):
        delta = np.random.default_rng(62).standard_normal((10, 9))
        result = qr_compress(delta, 6)
        for rank in range(1, 7):
            assert subspace_residual(result.q, personalize(result, rank).b_factor) <= 1e-10

    def test_rank_too_large(self):
        result = qr_compress(np.zeros((4, 3)), 2)
        with pytest.raises(RankError):
            personalize(result, 4)

    def test_available_rank_is_server_rank(self):
        result = qr_compress(np.random.default_rng(74).standard_normal((6, 5)), 2)
        with pytest.raises(RankError, match="available rank 2"):
            personalize(result, 3)


class TestApplyGlobal:
    def test_zero_result_returns_anchor(self):
        theta0 = np.random.default_rng(63).standard_normal((5, 4))
        result = qr_compress(np.zeros((5, 4)), 2)
        assert np.allclose(apply_global(theta0, result, 1.0), theta0, atol=1e-15)

    def test_zero_scale_returns_anchor(self):
        rng = np.random.default_rng(64)
        theta0 = rng.standard_normal((5, 4))
        result = qr_compress(rng.standard_normal((5, 4)), 3)
        assert np.array_equal(apply_global(theta0, result, 0.0), theta0)

    def test_matches_add_product_oracle(self):
        rng = np.random.default_rng(65)
        theta0 = rng.standard_normal((6, 5))
        result = qr_compress(rng.standard_normal((6, 5)), 3)
        adapter = result.server_adapter
        expected = theta0 + 0.5 * (adapter.b_factor @ adapter.a_factor)
        assert np.max(np.abs(apply_global(theta0, result, 0.5) - expected)) <= 1e-12

    def test_shape_mismatch(self):
        result = qr_compress(np.zeros((4, 3)), 2)
        with pytest.raises(ShapeError):
            apply_global(np.zeros((5, 5)), result, 1.0)


class TestSplitServerStep:
    def test_lora_agg_step_keeps_the_bits_of_whole_products(self, monkeypatch, started_threads):
        # the benchmark's server step at 1024 x 1024, 8 clients of rank 16/8,
        # server rank 32: every d x k product is cut across two threads
        updates = make_updates(
            66, (16, 8) * 4, d=1024, k=1024, counts=[50, 120, 300, 75, 410, 90, 220, 160],
            scalings=[1.0, 2.0] * 4,
        )
        theta0 = np.random.default_rng(67).standard_normal((1024, 1024))

        def step():
            delta = concat_reconstruct(updates)
            result = qr_compress(delta, 32)
            model = apply_global(theta0, result, 0.5)
            return [delta.tobytes(), result.q.tobytes(), result.r.tobytes(),
                    result.truncation_error, model.tobytes()]

        constant = linalg.SPLIT_MIN_WORK
        monkeypatch.setattr(linalg, "SPLIT_MIN_WORK", 2**62)
        whole = step()
        assert started_threads == []
        monkeypatch.setattr(linalg, "SPLIT_MIN_WORK", constant)
        assert step() == whole
        # the stack product, the projection, the residual and the global model
        assert len(started_threads) == 4
        # the two threads write disjoint blocks of one buffer: switching
        # between them every microsecond must not move a bit either
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert step() == whole
        finally:
            sys.setswitchinterval(interval)
        assert len(started_threads) == 8


def factor_average(updates, rank=None):
    """The averaging baselines' global update: the product of the factor means."""
    b_mean, a_mean = factor_means(updates, rank)
    return b_mean @ a_mean


class TestBaselines:
    def test_factor_average_single_client_exact(self):
        (update,) = make_updates(66, [3])
        out = factor_average([update])
        expected = update.adapter.b_factor @ update.adapter.a_factor
        assert np.allclose(out, expected, atol=1e-12)

    def test_factor_average_bias_witness(self):
        updates = [
            ClientUpdate(0, LoraAdapter(np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]), 1, 1.0), 4),
            ClientUpdate(1, LoraAdapter(np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]), 1, 1.0), 4),
        ]
        averaged = factor_average(updates)
        assert np.array_equal(averaged, np.full((2, 2), 0.25))
        correct = concat_reconstruct(updates)
        assert np.array_equal(correct, np.diag([0.5, 0.5]))
        assert frobenius_norm(averaged - correct) == pytest.approx(0.5, abs=1e-15)

    def test_factor_average_identical_clients_unbiased(self):
        updates = make_updates(67, [2, 2])
        u0 = updates[0]
        updates[1] = ClientUpdate(1, u0.adapter.copy(), u0.sample_count)
        averaged = factor_average(updates)
        correct = concat_reconstruct(updates)
        assert frobenius_norm(averaged - correct) <= 1e-12

    def test_zero_pad_equals_average_for_homogeneous(self):
        updates = make_updates(69, [3, 3, 3], counts=[4, 6, 2])
        assert np.allclose(factor_average(updates, 5), factor_average(updates), atol=1e-14)

    def test_zero_pad_target_too_small(self):
        updates = make_updates(70, [2, 4])
        with pytest.raises(RankError):
            factor_average(updates, 3)

    def test_full_stack_product_equals_exact_reconstruction(self):
        updates = make_updates(71, [1, 3, 2], counts=[3, 9, 5], scalings=[1.0, 2.0, 0.5])
        b_stack, a_stack = baseline_full_stack(updates)
        assert b_stack.shape[1] == 6
        assert frobenius_norm(b_stack @ a_stack - concat_reconstruct(updates)) <= 1e-12

    def test_single_client_baselines_exact(self):
        (update,) = make_updates(72, [2])
        exact = concat_reconstruct([update])
        assert np.allclose(factor_average([update]), exact, atol=1e-12)
        b, a = baseline_full_stack([update])
        assert np.allclose(b @ a, exact, atol=1e-12)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            ClientUpdate(0, LoraAdapter(np.zeros((2, 1)), np.zeros((1, 2)), 1, 1.0), 0)
