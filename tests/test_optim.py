import warnings

import numpy as np
import pytest

from fedqr.linalg import RankError, ShapeError
from fedqr.optim import (
    ControlVariates,
    NonFiniteGradientError,
    adamw_step,
    fresh_adamw_state,
    local_control_update,
    server_control_aggregate,
    slice_controls,
    zero_controls,
)
from fedqr.oracle import corrected_gradient, pad_delta


def scalar_adamw_reference(x, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0):
    """Pure-python scalar trajectory, independent of the matrix implementation."""
    m = v = 0.0
    for step, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**step)
        v_hat = v / (1 - beta2**step)
        x = x - lr * (m_hat / (v_hat**0.5 + eps) + wd * x)
    return x


class TestAdamW:
    def test_zero_gradient_no_move(self):
        param = np.array([[1.0, -2.0]])
        state = fresh_adamw_state(param.shape, lr=0.1, weight_decay=0.0)
        new_param, new_state = adamw_step(param, np.zeros_like(param), state)
        assert np.array_equal(new_param, param)
        assert new_state.step == 1

    def test_first_step_closed_form(self):
        rng = np.random.default_rng(30)
        param = rng.standard_normal((3, 4))
        grad = rng.standard_normal((3, 4))
        lr, eps = 0.01, 1e-8
        state = fresh_adamw_state(param.shape, lr=lr, eps=eps)
        new_param, _ = adamw_step(param, grad, state)
        expected = param - lr * grad / (np.abs(grad) + eps)
        assert np.allclose(new_param, expected, atol=1e-14)

    def test_ten_step_quadratic_matches_scalar_reference(self):
        # minimize 0.5*(x - 3)^2 from x=0; gradient is x - 3
        lr, beta1, beta2, eps = 0.05, 0.9, 0.999, 1e-8
        x = m = v = 0.0
        for step in range(1, 11):
            g = x - 3.0
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            x -= lr * (m / (1 - beta1**step)) / ((v / (1 - beta2**step)) ** 0.5 + eps)
        param = np.zeros((1, 1))
        state = fresh_adamw_state((1, 1), lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        for _ in range(10):
            param, state = adamw_step(param, param - 3.0, state)
        assert abs(param[0, 0] - x) <= 1e-12

    def test_fixed_gradient_sequence_matches_scalar_reference(self):
        rng = np.random.default_rng(40)
        grads = [float(g) for g in rng.standard_normal(10)]
        expected = scalar_adamw_reference(1.5, grads, lr=0.03, wd=0.01)
        param = np.array([[1.5]])
        state = fresh_adamw_state((1, 1), lr=0.03, weight_decay=0.01)
        for g in grads:
            param, state = adamw_step(param, np.array([[g]]), state)
        assert abs(param[0, 0] - expected) <= 1e-12

    def test_huge_eps_freezes_update(self):
        rng = np.random.default_rng(31)
        param = rng.standard_normal((2, 2))
        grad = rng.standard_normal((2, 2))
        state = fresh_adamw_state(param.shape, lr=0.1, eps=1e12)
        new_param, _ = adamw_step(param, grad, state)
        assert np.max(np.abs(new_param - param)) <= 1e-10

    def test_first_step_monotone_in_lr(self):
        grad = np.array([[2.0]])
        param = np.array([[0.0]])
        sizes = []
        for lr in (0.001, 0.01, 0.1):
            state = fresh_adamw_state((1, 1), lr=lr)
            new_param, _ = adamw_step(param, grad, state)
            sizes.append(abs(new_param[0, 0]))
        assert sizes[0] < sizes[1] < sizes[2]

    def test_decoupled_weight_decay(self):
        param = np.array([[10.0]])
        state = fresh_adamw_state((1, 1), lr=0.1, weight_decay=0.5)
        new_param, _ = adamw_step(param, np.zeros((1, 1)), state)
        # pure decay: param - lr*wd*param
        assert new_param[0, 0] == pytest.approx(10.0 - 0.1 * 0.5 * 10.0, abs=1e-15)

    def test_nonfinite_gradient_raises(self):
        state = fresh_adamw_state((1, 1))
        with pytest.raises(NonFiniteGradientError):
            adamw_step(np.zeros((1, 1)), np.array([[np.inf]]), state)

    def test_state_advances_in_place_and_param_is_new(self):
        rng = np.random.default_rng(41)
        param = rng.standard_normal((3, 2))
        grad = rng.standard_normal((3, 2))
        param_before = param.copy()
        state = fresh_adamw_state(param.shape, lr=0.01)
        m, v = state.m, state.v
        new_param, new_state = adamw_step(param, grad, state)
        # the state object and its moment arrays are advanced in place
        assert new_state is state
        assert state.m is m and state.v is v
        assert state.step == 1
        assert np.array_equal(m, (1.0 - 0.9) * grad)
        assert np.array_equal(v, (1.0 - 0.999) * np.square(grad))
        # the parameter is returned as a new array; the input is untouched
        assert not np.shares_memory(new_param, param)
        assert np.array_equal(param, param_before)
        assert not np.array_equal(new_param, param)

    def test_overflowing_second_moment_raises_before_state_changes(self):
        state = fresh_adamw_state((1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteGradientError, match="second moment"):
                adamw_step(np.zeros((1, 2)), np.array([[1.0, 1e300]]), state)
        assert state.step == 0
        assert not state.m.any() and not state.v.any()

    def test_step_counter_increments_by_one(self):
        state = fresh_adamw_state((1, 1))
        param = np.zeros((1, 1))
        for expected in (1, 2, 3):
            param, state = adamw_step(param, np.ones((1, 1)), state)
            assert state.step == expected
        assert np.all(state.v >= 0.0)


class TestCorrectedGradient:
    def test_zero_controls_identity(self):
        raw = np.random.default_rng(32).standard_normal((3, 3))
        out = corrected_gradient(raw, np.zeros((3, 3)), np.zeros((3, 3)))
        assert np.array_equal(out, raw)

    def test_hand_arithmetic(self):
        out = corrected_gradient(np.array([[0.0]]), np.array([[1.0]]), np.array([[0.5]]))
        assert out[0, 0] == 0.5

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(33)
        raw, g, l = (rng.standard_normal((4, 5)) for _ in range(3))
        out = corrected_gradient(raw, g, l)
        for i in range(4):
            for j in range(5):
                assert abs(out[i, j] - (raw[i, j] + g[i, j] - l[i, j])) <= 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            corrected_gradient(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))


class TestLocalControlUpdate:
    def test_from_zero(self):
        grad = np.ones((2, 2))
        delta, new_c = local_control_update(grad, np.zeros((2, 2)))
        assert np.array_equal(delta, grad)
        assert np.array_equal(new_c, grad)

    def test_fixed_point(self):
        grad = np.full((2, 2), 3.0)
        delta, new_c = local_control_update(grad, grad.copy())
        assert not delta.any()
        assert np.array_equal(new_c, grad)

    def test_idempotent_on_repeat(self):
        grad = np.random.default_rng(34).standard_normal((3, 2))
        _, c = local_control_update(grad, np.zeros((3, 2)))
        delta2, _ = local_control_update(grad, c)
        assert not delta2.any()


class TestServerAggregate:
    def test_zero_deltas_no_change(self):
        g = np.random.default_rng(35).standard_normal((2, 3))
        out = server_control_aggregate(g, [np.zeros((2, 3))] * 4)
        assert np.array_equal(out, g)

    def test_single_client(self):
        g = np.zeros((2, 2))
        d = np.ones((2, 2))
        assert np.array_equal(server_control_aggregate(g, [d]), d)

    def test_mean_then_add_oracle(self):
        rng = np.random.default_rng(36)
        g = rng.standard_normal((3, 3))
        deltas = [rng.standard_normal((3, 3)) for _ in range(3)]
        out = server_control_aggregate(g, deltas)
        expected = g + (deltas[0] + deltas[1] + deltas[2]) / 3.0
        assert np.max(np.abs(out - expected)) <= 1e-15

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            server_control_aggregate(np.zeros((1, 1)), [])

    def test_delta_must_fit_in_the_control(self):
        # a rank-2 A-side delta fills c_A's leading rows; one wider or taller than c_A does not fit
        out = server_control_aggregate(np.zeros((3, 4)), [np.ones((2, 4))])
        assert np.array_equal(out, np.vstack([np.ones((2, 4)), np.zeros((1, 4))]))
        for shape in ((4, 4), (2, 5), (4,), (1, 2, 4)):
            with pytest.raises(ShapeError):
                server_control_aggregate(np.zeros((3, 4)), [np.zeros(shape)])

    def test_telescoping_over_rounds(self):
        """Global control equals the mean of local controls under full participation."""
        rng = np.random.default_rng(37)
        d, k, r_s, n_clients = 5, 4, 3, 4
        global_c = zero_controls(d, k, r_s)
        locals_a = [np.zeros((r_s, k)) for _ in range(n_clients)]
        for _ in range(5):
            deltas = []
            for i in range(n_clients):
                grad = rng.standard_normal((r_s, k))
                delta, locals_a[i] = local_control_update(grad, locals_a[i])
                deltas.append(delta)
            global_c = ControlVariates(
                server_control_aggregate(global_c.c_a, deltas), global_c.c_b, r_s
            )
            mean_local = sum(locals_a) / n_clients
            assert np.max(np.abs(global_c.c_a - mean_local)) <= 1e-12


class TestRankMoves:
    def test_identity_slice_at_full_rank(self):
        controls = ControlVariates(np.arange(12.0).reshape(3, 4), np.arange(15.0).reshape(5, 3), 3)
        c_a, c_b = slice_controls(controls, 3)
        assert np.array_equal(c_a, controls.c_a)
        assert np.array_equal(c_b, controls.c_b)

    def test_pad_then_slice_round_trip(self):
        delta = np.random.default_rng(38).standard_normal((2, 5))
        padded = pad_delta(delta, 4, axis=0)
        assert padded.shape == (4, 5)
        assert np.array_equal(padded[:2], delta)
        assert not padded[2:].any()

    def test_slice_of_padded_embedding(self):
        delta_b = np.random.default_rng(39).standard_normal((6, 2))
        padded = pad_delta(delta_b, 5, axis=1)
        controls = ControlVariates(np.zeros((5, 4)), padded, 5)
        _, back = slice_controls(controls, 2)
        assert np.array_equal(back, delta_b)

    def test_rank_too_large(self):
        controls = zero_controls(4, 4, 2)
        with pytest.raises(RankError):
            slice_controls(controls, 3)
        with pytest.raises(RankError):
            pad_delta(np.zeros((3, 2)), 2, axis=0)
