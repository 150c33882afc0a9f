import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedqr.adapter import BaseWeight, LoraAdapter, effective_weight
from fedqr.linalg import SPLIT_MIN_WORK, ShapeError, frobenius_norm
from fedqr.model import (
    EmptyBatchError,
    factored_logits,
    factored_loss_and_grads,
    logit_loss_and_accuracy,
    model_features,
)
from fedqr.oracle import factor_gradients, head_accuracy, head_loss_and_grads


def make_head(seed, d=6, k=4, zero=False):
    """Effective head weight and bias."""
    rng = np.random.default_rng(seed)
    weight = np.zeros((d, k)) if zero else 0.4 * rng.standard_normal((d, k))
    return weight, np.zeros((1, k))


def make_batch(seed, n=10, d=6, k=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.integers(0, k, size=n)


class TestForwardLoss:
    """``head_loss_and_grads``: the loss and its exact gradients."""

    def test_uniform_softmax_gives_ln2(self):
        weight, bias = make_head(0, k=2, zero=True)
        features, labels = make_batch(1, n=8, k=2)
        loss, _, _ = head_loss_and_grads(weight, bias, features, labels)
        assert loss == pytest.approx(np.log(2.0), abs=1e-9)

    def test_saturated_logit_loss_vanishes(self):
        weight, _ = make_head(2, zero=True)
        bias = np.array([[1000.0, 0.0, 0.0, 0.0]])
        loss, _, _ = head_loss_and_grads(weight, bias, np.zeros((1, 6)), np.array([0]))
        assert 0.0 <= loss <= 1e-6

    @pytest.mark.parametrize("use_hidden", [False, True])
    def test_weight_grad_finite_differences(self, use_hidden):
        rng = np.random.default_rng(3)
        hidden = 0.5 * rng.standard_normal((6, 6)) if use_hidden else None
        weight, bias = make_head(4)
        inputs, labels = make_batch(5)
        features = model_features(inputs, hidden)
        _, wgrad, _ = head_loss_and_grads(weight, bias, features, labels)
        h = 1e-5
        for _ in range(20):
            i, j = int(rng.integers(6)), int(rng.integers(4))
            weight[i, j] += h
            up, _, _ = head_loss_and_grads(weight, bias, features, labels)
            weight[i, j] -= 2 * h
            down, _, _ = head_loss_and_grads(weight, bias, features, labels)
            weight[i, j] += h
            fd = (up - down) / (2 * h)
            assert abs(wgrad[i, j] - fd) <= 1e-5 * max(abs(fd), abs(wgrad[i, j]), 1e-8)

    def test_bias_grad_finite_differences(self):
        weight, bias = make_head(7)
        features, labels = make_batch(8)
        _, _, bgrad = head_loss_and_grads(weight, bias, features, labels)
        h = 1e-5
        for j in range(4):
            bias[0, j] += h
            up, _, _ = head_loss_and_grads(weight, bias, features, labels)
            bias[0, j] -= 2 * h
            down, _, _ = head_loss_and_grads(weight, bias, features, labels)
            bias[0, j] += h
            fd = (up - down) / (2 * h)
            assert abs(bgrad[0, j] - fd) <= 1e-5 * max(abs(fd), 1e-8)

    def test_shift_invariance_of_logits(self):
        weight, bias = make_head(9)
        features, labels = make_batch(10)
        loss_before, _, _ = head_loss_and_grads(weight, bias, features, labels)
        # the same constant added to every class logit
        loss_after, _, _ = head_loss_and_grads(weight, bias + 7.3, features, labels)
        assert abs(loss_before - loss_after) <= 1e-9

    def test_empty_batch_rejected(self):
        weight, bias = make_head(11)
        features, labels = np.zeros((0, 6)), np.zeros(0, dtype=int)
        with pytest.raises(EmptyBatchError):
            head_loss_and_grads(weight, bias, features, labels)
        with pytest.raises(EmptyBatchError):
            head_accuracy(weight, bias, features, labels)

    def test_shape_mismatch_rejected(self):
        weight, bias = make_head(12)
        features, labels = np.zeros((4, 5)), np.zeros(4, dtype=int)
        with pytest.raises(ShapeError):
            head_loss_and_grads(weight, bias, features, labels)
        with pytest.raises(ShapeError):
            head_accuracy(weight, bias, features, labels)


class TestEvaluate:
    """``head_accuracy``: argmax accuracy, ties toward the lowest class."""

    def test_forced_argmax_correct(self):
        weight, _ = make_head(13, zero=True)
        bias = np.array([[0.0, 5.0, 0.0, 0.0]])
        assert head_accuracy(weight, bias, np.zeros((6, 6)), np.full(6, 1)) == 1.0

    def test_adversarial_labels(self):
        weight, _ = make_head(14, zero=True)
        bias = np.array([[5.0, 0.0, 0.0, 0.0]])
        assert head_accuracy(weight, bias, np.zeros((6, 6)), np.full(6, 2)) == 0.0

    def test_ties_break_to_lowest_class(self):
        weight, bias = make_head(15, zero=True)
        # all logits equal: argmax must pick class 0 everywhere
        accuracy = head_accuracy(weight, bias, np.zeros((3, 6)), np.array([0, 1, 0]))
        assert accuracy == pytest.approx(2.0 / 3.0)

    def test_matches_loop_oracle(self):
        weight, bias = make_head(16)
        features, labels = make_batch(17, n=40)
        logits = features @ weight + bias
        correct = 0
        for i in range(len(labels)):
            best = 0
            for j in range(1, logits.shape[1]):
                if logits[i, j] > logits[i, best]:
                    best = j
            correct += best == labels[i]
        accuracy = head_accuracy(weight, bias, features, labels)
        assert accuracy == pytest.approx(correct / len(labels))


class TestLogitLossAndAccuracy:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["generic", "tied", "saturated"]),
        n=st.integers(1, 40),
        d=st.integers(1, 12),
        k=st.integers(1, 9),
        seed=st.integers(0, 2**31),
    )
    def test_bit_identical_to_separate_loss_and_accuracy(self, kind, n, d, k, seed):
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((n, d))
        weight = rng.standard_normal((d, k))
        bias = rng.standard_normal((1, k))
        if kind == "tied":
            # equal columns and biases give exactly equal logits in those classes
            tied = rng.integers(0, k, size=k)
            weight = weight[:, tied]
            bias = bias[:, tied]
        elif kind == "saturated":
            weight *= 1e3
            bias[0, rng.integers(0, k)] += 1e6
        labels = rng.integers(0, k, size=n)
        loss, accuracy = logit_loss_and_accuracy(features @ weight + bias, labels)
        assert loss == head_loss_and_grads(weight, bias, features, labels)[0]
        assert accuracy == head_accuracy(weight, bias, features, labels)
        assert np.isfinite(loss)

    def test_rejects_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            logit_loss_and_accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))


def relative_gap(got, want) -> float:
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    return frobenius_norm(got - want) / max(frobenius_norm(want), 1e-300)


class TestFactoredHead:
    """``factored_loss_and_grads`` against the dense head and ``factor_gradients``."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        d_in=st.integers(1, 12),
        hidden=st.one_of(st.none(), st.integers(1, 16)),
        k=st.integers(1, 9),
        scaling=st.floats(0.05, 4.0),
        seed=st.integers(0, 2**31),
        data=st.data(),
    )
    def test_matches_dense_oracle(self, n, d_in, hidden, k, scaling, seed, data):
        rng = np.random.default_rng(seed)
        hidden_weight = None
        if hidden is not None:
            hidden_weight = rng.standard_normal((d_in, hidden)) / np.sqrt(d_in)
        features = model_features(rng.standard_normal((n, d_in)), hidden_weight)
        d = features.shape[1]
        rank = data.draw(st.integers(1, min(d, k)), label="rank")
        base = BaseWeight(frozen=rng.standard_normal((d, k)) / np.sqrt(d))
        adapter = LoraAdapter(
            rng.standard_normal((d, rank)) / np.sqrt(d),
            rng.standard_normal((rank, k)) / np.sqrt(rank),
            rank,
            scaling,
        )
        bias = 0.1 * rng.standard_normal((1, k))
        labels = rng.integers(0, k, size=n)

        loss, grad_b, grad_a, grad_bias = factored_loss_and_grads(
            features @ base.frozen, features, adapter.b_factor, adapter.a_factor,
            scaling, bias, labels,
        )
        weight = effective_weight(base, adapter)
        want_loss, weight_grad, want_bias = head_loss_and_grads(weight, bias, features, labels)
        want_b, want_a = factor_gradients(adapter, weight_grad)
        assert relative_gap(loss, want_loss) <= 1e-12
        assert relative_gap(grad_b, want_b) <= 1e-12
        assert relative_gap(grad_a, want_a) <= 1e-12
        assert relative_gap(grad_bias, want_bias) <= 1e-12
        logits = factored_logits(
            features @ base.frozen, features, adapter.b_factor, adapter.a_factor, scaling, bias
        )
        assert relative_gap(logits, features @ weight + bias) <= 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatchError):
            factored_loss_and_grads(
                np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((3, 1)), np.zeros((1, 2)),
                1.0, np.zeros((1, 2)), np.zeros(0, dtype=int),
            )


class TestFrozenStability:
    def test_bias_training_leaves_frozen_and_weight_grad_path_intact(self):
        from fedqr.optim import adamw_step, fresh_adamw_state

        weight = 0.3 * np.random.default_rng(19).standard_normal((6, 4))
        bias = np.zeros((1, 4))
        features, labels = make_batch(20)
        weight_before = weight.tobytes()
        state = fresh_adamw_state(bias.shape, lr=0.05)
        for _ in range(10):
            _, _, bgrad = head_loss_and_grads(weight, bias, features, labels)
            bias, state = adamw_step(bias, bgrad, state)
        assert weight.tobytes() == weight_before

    def test_head_accuracy_empty(self):
        with pytest.raises(EmptyBatchError):
            head_accuracy(np.zeros((3, 2)), np.zeros((1, 2)), np.zeros((0, 3)), np.zeros(0, dtype=int))


def _placed(rng, shape, fortran, offset):
    """Standard normal operand, C- or F-ordered, starting ``offset`` floats into its allocation."""
    rows, cols = shape
    buffer = np.empty(rows * cols + offset)
    view = buffer[offset:].reshape((cols, rows)).T if fortran else buffer[offset:].reshape(shape)
    view[...] = rng.standard_normal(shape)
    return view


class TestModelFeatures:
    """A large hidden map is cut across two threads and keeps every bit."""

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cut_rows=st.booleans(),
        short=st.integers(16, 127),
        rows=st.integers(128, 1024),
        columns=st.integers(16, 128),
        ragged=st.integers(0, 7),
        extra=st.integers(0, 64),
        fortran=st.tuples(st.booleans(), st.booleans()),
        offset=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_map_keeps_the_bits_of_the_whole_map(
        self, started_threads, cut_rows, short, rows, columns, ragged, extra, fortran,
        offset, seed,
    ):
        # samples x inputs x hidden units above the split constant. With a
        # multiple of 8 units the map is cut, by rows from 128 samples and
        # by columns below; any other unit count keeps it whole
        m, n = (rows, 8 * columns + ragged) if cut_rows else (short, 8 * (128 + columns) + ragged)
        k = SPLIT_MIN_WORK // (m * n) + 1 + extra
        rng = np.random.default_rng(seed)
        inputs = _placed(rng, (m, k), fortran[0], int(offset))
        hidden = _placed(rng, (k, n), fortran[1], 0) / np.sqrt(k)
        before = len(started_threads)
        got = model_features(inputs, hidden)
        assert len(started_threads) - before == (0 if ragged else 1)
        assert got.tobytes() == np.tanh(inputs @ hidden).tobytes()
