import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqr.adapter import BaseWeight, LoraAdapter
from fedqr.linalg import ShapeError
from fedqr.model import (
    Batch,
    EmptyBatchError,
    ToyModel,
    evaluate,
    forward_loss,
    head_accuracy,
    head_loss_and_accuracy,
    head_loss_and_grads,
    model_features,
)


def make_model(seed, d=6, k=4, r=2, hidden=None, zero=False):
    rng = np.random.default_rng(seed)
    frozen = np.zeros((d, k)) if zero else 0.4 * rng.standard_normal((d, k))
    scale = 0.0 if zero else 0.3
    return ToyModel(
        base=BaseWeight(frozen=frozen, origin=frozen.copy()),
        adapter=LoraAdapter(
            scale * rng.standard_normal((d, r)) if not zero else np.zeros((d, r)),
            scale * rng.standard_normal((r, k)) if not zero else np.zeros((r, k)),
            r,
            scaling=1.0,
        ),
        bias=np.zeros((1, k)),
        hidden_weight=hidden,
    )


def make_batch(seed, n=10, d=6, k=4):
    rng = np.random.default_rng(seed)
    return Batch(rng.standard_normal((n, d)), rng.integers(0, k, size=n))


class TestForwardLoss:
    def test_uniform_softmax_gives_ln2(self):
        model = make_model(0, k=2, zero=True)
        batch = make_batch(1, n=8, k=2)
        loss, _, _ = forward_loss(model, batch)
        assert loss == pytest.approx(np.log(2.0), abs=1e-9)

    def test_saturated_logit_loss_vanishes(self):
        model = make_model(2, zero=True)
        model.bias = np.array([[1000.0, 0.0, 0.0, 0.0]])
        batch = Batch(np.zeros((1, 6)), np.array([0]))
        loss, _, _ = forward_loss(model, batch)
        assert 0.0 <= loss <= 1e-6

    @pytest.mark.parametrize("use_hidden", [False, True])
    def test_weight_grad_finite_differences(self, use_hidden):
        rng = np.random.default_rng(3)
        hidden = 0.5 * rng.standard_normal((6, 6)) if use_hidden else None
        model = make_model(4, hidden=hidden)
        batch = make_batch(5)
        _, wgrad, _ = forward_loss(model, batch)
        h = 1e-5
        for _ in range(20):
            i, j = int(rng.integers(6)), int(rng.integers(4))
            model.base.frozen[i, j] += h
            up, _, _ = forward_loss(model, batch)
            model.base.frozen[i, j] -= 2 * h
            down, _, _ = forward_loss(model, batch)
            model.base.frozen[i, j] += h
            fd = (up - down) / (2 * h)
            assert abs(wgrad[i, j] - fd) <= 1e-5 * max(abs(fd), abs(wgrad[i, j]), 1e-8)

    def test_bias_grad_finite_differences(self):
        rng = np.random.default_rng(6)
        model = make_model(7)
        batch = make_batch(8)
        _, _, bgrad = forward_loss(model, batch)
        h = 1e-5
        for j in range(4):
            model.bias[0, j] += h
            up, _, _ = forward_loss(model, batch)
            model.bias[0, j] -= 2 * h
            down, _, _ = forward_loss(model, batch)
            model.bias[0, j] += h
            fd = (up - down) / (2 * h)
            assert abs(bgrad[0, j] - fd) <= 1e-5 * max(abs(fd), 1e-8)

    def test_shift_invariance_of_logits(self):
        model = make_model(9)
        batch = make_batch(10)
        loss_before, _, _ = forward_loss(model, batch)
        model.bias = model.bias + 7.3  # same constant added to every class logit
        loss_after, _, _ = forward_loss(model, batch)
        assert abs(loss_before - loss_after) <= 1e-9

    def test_empty_batch_rejected(self):
        model = make_model(11)
        empty = Batch(np.zeros((0, 6)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyBatchError):
            forward_loss(model, empty)
        with pytest.raises(EmptyBatchError):
            evaluate(model, empty)

    def test_label_range_checked(self):
        model = make_model(12)
        bad = Batch(np.zeros((2, 6)), np.array([0, 9]))
        with pytest.raises(ValueError, match="labels"):
            forward_loss(model, bad)


class TestEvaluate:
    def test_forced_argmax_correct(self):
        model = make_model(13, zero=True)
        model.bias = np.array([[0.0, 5.0, 0.0, 0.0]])
        batch = Batch(np.zeros((6, 6)), np.full(6, 1))
        assert evaluate(model, batch) == 1.0

    def test_adversarial_labels(self):
        model = make_model(14, zero=True)
        model.bias = np.array([[5.0, 0.0, 0.0, 0.0]])
        batch = Batch(np.zeros((6, 6)), np.full(6, 2))
        assert evaluate(model, batch) == 0.0

    def test_ties_break_to_lowest_class(self):
        model = make_model(15, zero=True)
        batch = Batch(np.zeros((3, 6)), np.array([0, 1, 0]))
        # all logits equal: argmax must pick class 0 everywhere
        assert evaluate(model, batch) == pytest.approx(2.0 / 3.0)

    def test_matches_loop_oracle(self):
        model = make_model(16)
        batch = make_batch(17, n=40)
        features = model_features(batch.inputs, model.hidden_weight)
        weight = model.base.frozen + model.adapter.scaling * (
            model.adapter.b_factor @ model.adapter.a_factor
        )
        logits = features @ weight + model.bias
        correct = 0
        for i in range(len(batch)):
            best = 0
            for j in range(1, logits.shape[1]):
                if logits[i, j] > logits[i, best]:
                    best = j
            correct += best == batch.labels[i]
        assert evaluate(model, batch) == pytest.approx(correct / len(batch))


class TestHeadLossAndAccuracy:
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
        loss, accuracy = head_loss_and_accuracy(weight, bias, features, labels)
        assert loss == head_loss_and_grads(weight, bias, features, labels)[0]
        assert accuracy == head_accuracy(weight, bias, features, labels)
        assert np.isfinite(loss)

    def test_rejects_empty_batch_and_shape_mismatch(self):
        with pytest.raises(EmptyBatchError):
            head_loss_and_accuracy(
                np.zeros((3, 2)), np.zeros((1, 2)), np.zeros((0, 3)), np.zeros(0, dtype=int)
            )
        with pytest.raises(ShapeError):
            head_loss_and_accuracy(
                np.zeros((3, 2)), np.zeros((1, 2)), np.zeros((4, 5)), np.zeros(4, dtype=int)
            )


class TestFrozenStability:
    def test_bias_training_leaves_frozen_and_weight_grad_path_intact(self):
        from fedqr.optim import adamw_step, fresh_adamw_state

        model = make_model(18, zero=True)
        model.base.frozen[:] = 0.3 * np.random.default_rng(19).standard_normal((6, 4))
        batch = make_batch(20)
        frozen_before = model.base.frozen.tobytes()
        state = fresh_adamw_state(model.bias.shape, lr=0.05)
        for _ in range(10):
            _, _, bgrad = forward_loss(model, batch)
            model.bias, state = adamw_step(model.bias, bgrad, state)
        assert model.base.frozen.tobytes() == frozen_before

    def test_head_accuracy_empty(self):
        with pytest.raises(EmptyBatchError):
            head_accuracy(np.zeros((3, 2)), np.zeros((1, 2)), np.zeros((0, 3)), np.zeros(0, dtype=int))
