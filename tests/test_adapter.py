import numpy as np
import pytest

from fedqr.adapter import (
    BaseWeight,
    LoraAdapter,
    effective_weight,
    qr_orthogonal_init,
)
from fedqr.linalg import (
    RankError,
    ShapeError,
    frobenius_norm,
    leading_qr,
    subspace_residual,
    thin_qr,
)
from fedqr.oracle import factor_gradients


def random_setup(seed, d=10, k=7, client_rank=3, base_rank=5, scaling=1.0):
    rng = np.random.default_rng(seed)
    theta0 = rng.standard_normal((d, k))
    base, adapter = qr_orthogonal_init(theta0, client_rank, base_rank, scaling=scaling)
    return theta0, base, adapter


class TestInit:
    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(10)
        theta0 = rng.standard_normal((6, 6))
        base, adapter = qr_orthogonal_init(theta0, 6, 6, scaling=1.0)
        assert frobenius_norm(base.frozen) <= 1e-9 * (1 + frobenius_norm(theta0))
        assert frobenius_norm(effective_weight(base, adapter) - theta0) <= 1e-9

    def test_identity_input(self):
        base, adapter = qr_orthogonal_init(np.eye(4), 2, 2, scaling=1.0)
        assert np.allclose(adapter.b_factor, np.eye(4)[:, :2], atol=1e-12)
        assert np.allclose(adapter.a_factor, np.eye(4)[:2, :], atol=1e-12)
        assert np.allclose(base.frozen, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-12)

    def test_clients_share_leading_columns(self):
        theta0 = np.random.default_rng(11).standard_normal((9, 8))
        _, small = qr_orthogonal_init(theta0, 2, 5, scaling=1.0)
        _, large = qr_orthogonal_init(theta0, 5, 5, scaling=1.0)
        assert np.array_equal(small.b_factor, large.b_factor[:, :2])
        assert np.array_equal(small.a_factor, large.a_factor[:2, :])

    def test_orthonormal_columns(self):
        _, _, adapter = random_setup(12)
        gram = adapter.b_factor.T @ adapter.b_factor
        assert np.max(np.abs(gram - np.eye(adapter.rank))) <= 1e-10

    def test_shared_base_confines_update_to_leading_subspace(self):
        theta0, base, adapter = random_setup(13, client_rank=2, base_rank=5)
        q, _ = thin_qr(theta0)
        diff = effective_weight(base, adapter) - theta0
        assert subspace_residual(q[:, :5], diff) <= 1e-9

    def test_default_scaling_is_alpha_over_rank(self):
        _, _, adapter = random_setup(14, client_rank=4, scaling=None)
        assert adapter.scaling == pytest.approx(16.0 / 4.0)

    @pytest.mark.parametrize(
        "theta0, base_rank",
        [
            (np.random.default_rng(15).standard_normal((10, 7)), 5),
            (-np.eye(6), 3),  # signed zeros on both sides of the difference
            # lora_agg's layer: Q R is cut across two threads
            (np.random.default_rng(16).standard_normal((1024, 1024)) / 32, 32),
        ],
    )
    def test_frozen_base_has_the_bits_of_the_difference(self, theta0, base_rank):
        base, _ = qr_orthogonal_init(theta0, 1, base_rank)
        q, r = leading_qr(theta0, base_rank)
        assert base.frozen.tobytes() == (theta0 - q @ r).tobytes()
        assert not base.frozen.flags.writeable

    def test_rank_bounds(self):
        theta0 = np.zeros((4, 4))
        with pytest.raises(RankError):
            qr_orthogonal_init(theta0, 3, 2)
        with pytest.raises(RankError):
            qr_orthogonal_init(theta0, 1, 5)


class TestEffectiveWeight:
    def test_zero_factors_give_frozen(self):
        _, base, adapter = random_setup(15)
        zero = LoraAdapter(
            np.zeros_like(adapter.b_factor), np.zeros_like(adapter.a_factor), adapter.rank, 2.0
        )
        assert np.array_equal(effective_weight(base, zero), base.frozen)

    def test_init_identity_at_matching_ranks(self):
        theta0, base, adapter = random_setup(16, client_rank=5, base_rank=5, scaling=1.0)
        assert frobenius_norm(effective_weight(base, adapter) - theta0) <= 1e-9

    def test_rank_one_outer_product_oracle(self):
        rng = np.random.default_rng(17)
        frozen = rng.standard_normal((5, 4))
        base = BaseWeight(frozen=frozen)
        b = rng.standard_normal((5, 1))
        a = rng.standard_normal((1, 4))
        adapter = LoraAdapter(b, a, 1, scaling=1.7)
        expected = frozen + 1.7 * np.outer(b[:, 0], a[0, :])
        assert np.allclose(effective_weight(base, adapter), expected, atol=1e-12)

    @pytest.mark.parametrize("scaling", [1.0, 16.0 / 3, 1e-3])
    def test_bits_of_the_expression_in_one_new_array(self, scaling):
        _, base, adapter = random_setup(22, d=40, k=24, scaling=scaling)
        weight = effective_weight(base, adapter)
        expected = base.frozen + scaling * (adapter.b_factor @ adapter.a_factor)
        assert weight.tobytes() == expected.tobytes()
        assert weight.base is None and not np.shares_memory(weight, base.frozen)

    def test_shape_mismatch(self):
        _, base, _ = random_setup(18)
        bad = LoraAdapter(np.zeros((3, 1)), np.zeros((1, 2)), 1, 1.0)
        with pytest.raises(ShapeError):
            effective_weight(base, bad)


class TestFactorGradients:
    def test_zero_gradient(self):
        _, _, adapter = random_setup(19)
        gb, ga = factor_gradients(adapter, np.zeros(adapter.shape))
        assert not gb.any() and not ga.any()

    def test_identity_b_selects_rows(self):
        adapter = LoraAdapter(np.eye(2), np.random.default_rng(20).standard_normal((2, 3)), 2, 1.0)
        wgrad = np.random.default_rng(21).standard_normal((2, 3))
        _, ga = factor_gradients(adapter, wgrad)
        assert np.array_equal(ga, wgrad)

    def test_finite_differences_on_quadratic(self):
        rng = np.random.default_rng(22)
        h = 1e-5
        for trial in range(50):
            d, k = int(rng.integers(3, 8)), int(rng.integers(3, 8))
            r = int(rng.integers(1, min(d, k) + 1))
            scaling = float(rng.uniform(0.5, 3.0))
            adapter = LoraAdapter(
                rng.standard_normal((d, r)), rng.standard_normal((r, k)), r, scaling
            )
            frozen = rng.standard_normal((d, k))
            base = BaseWeight(frozen=frozen)
            target = rng.standard_normal((d, k))
            wgrad = effective_weight(base, adapter) - target
            gb, ga = factor_gradients(adapter, wgrad)

            def loss(adp):
                return 0.5 * frobenius_norm(effective_weight(base, adp) - target) ** 2

            i, j = int(rng.integers(d)), int(rng.integers(r))
            plus, minus = adapter.copy(), adapter.copy()
            plus.b_factor[i, j] += h
            minus.b_factor[i, j] -= h
            fd = (loss(plus) - loss(minus)) / (2 * h)
            assert abs(gb[i, j] - fd) <= 1e-5 * max(abs(fd), abs(gb[i, j]), 1e-8)

            i, j = int(rng.integers(r)), int(rng.integers(k))
            plus, minus = adapter.copy(), adapter.copy()
            plus.a_factor[i, j] += h
            minus.a_factor[i, j] -= h
            fd = (loss(plus) - loss(minus)) / (2 * h)
            assert abs(ga[i, j] - fd) <= 1e-5 * max(abs(fd), abs(ga[i, j]), 1e-8)

    def test_shape_mismatch(self):
        _, _, adapter = random_setup(23)
        with pytest.raises(ShapeError):
            factor_gradients(adapter, np.zeros((2, 2)))


class TestInvariants:
    def test_adapter_validates_rank_chain(self):
        with pytest.raises(ShapeError):
            LoraAdapter(np.zeros((4, 2)), np.zeros((3, 5)), 2, 1.0)
        with pytest.raises(RankError):
            LoraAdapter(np.zeros((2, 3)), np.zeros((3, 2)), 3, 1.0)
        with pytest.raises(ValueError):
            LoraAdapter(np.zeros((4, 1)), np.zeros((1, 4)), 1, 0.0)

    def test_frozen_bitstable_under_adapter_training(self):
        from fedqr.optim import adamw_step, fresh_adamw_state

        theta0, base, adapter = random_setup(24, scaling=1.0)
        before = base.frozen.tobytes()
        state_a = fresh_adamw_state(adapter.a_factor.shape, lr=0.05)
        state_b = fresh_adamw_state(adapter.b_factor.shape, lr=0.05)
        rng = np.random.default_rng(25)
        for _ in range(12):
            wgrad = rng.standard_normal(adapter.shape)
            gb, ga = factor_gradients(adapter, wgrad)
            new_a, state_a = adamw_step(adapter.a_factor, ga, state_a)
            new_b, state_b = adamw_step(adapter.b_factor, gb, state_b)
            adapter = LoraAdapter(new_b, new_a, adapter.rank, adapter.scaling)
        assert base.frozen.tobytes() == before
