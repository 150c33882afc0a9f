"""Linear softmax head whose weight matrix carries the low-rank adapter.

Two architectures: plain softmax regression on the raw features, or the same
head on top of a frozen random tanh layer (``model_features``). Either way the
adapted matrix sees a closed-form cross-entropy gradient, so no autodiff is
needed. Every function takes the effective head weight, the bias, the
features and the labels as plain arrays.
"""

from __future__ import annotations

import numpy as np

from .linalg import ShapeError


class EmptyBatchError(ValueError):
    """A loss or accuracy was requested on a batch with no samples."""


def model_features(inputs: np.ndarray, hidden_weight: np.ndarray | None) -> np.ndarray:
    """Map raw inputs to the features seen by the adapted head weight."""
    if hidden_weight is None:
        return inputs
    return np.tanh(inputs @ hidden_weight)


def _softmax_cross_entropy(
    weight: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Logits, log-probabilities and mean cross-entropy of a linear softmax head.

    Log-probabilities are computed with the usual max-shift so saturated
    logits stay finite.
    """
    n = features.shape[0]
    if n == 0:
        raise EmptyBatchError("cannot compute a loss on an empty batch")
    if features.shape[1] != weight.shape[0]:
        raise ShapeError(f"features {features.shape} vs weight {weight.shape}")
    logits = features @ weight + bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_norm
    loss = float(-np.mean(log_probs[np.arange(n), labels]))
    return logits, log_probs, loss


def head_loss_and_grads(
    weight: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of a linear softmax head, with exact gradients.

    Returns (loss, dL/dweight, dL/dbias).
    """
    _, log_probs, loss = _softmax_cross_entropy(weight, bias, features, labels)
    n = features.shape[0]
    delta = np.exp(log_probs)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    weight_grad = features.T @ delta
    bias_grad = delta.sum(axis=0, keepdims=True)
    return loss, weight_grad, bias_grad


def head_loss_and_accuracy(
    weight: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy from one forward product.

    Bit-identical to ``head_loss_and_grads(...)[0]`` and ``head_accuracy(...)``;
    the accuracy is read off the raw logits, so ties resolve as there.
    """
    logits, _, loss = _softmax_cross_entropy(weight, bias, features, labels)
    return loss, float(np.mean(np.argmax(logits, axis=1) == labels))


def head_accuracy(
    weight: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> float:
    """Fraction of argmax-correct predictions."""
    if features.shape[0] == 0:
        raise EmptyBatchError("cannot evaluate an empty batch")
    # np.argmax takes the first maximum, i.e. ties resolve to the lowest class
    predictions = np.argmax(features @ weight + bias, axis=1)
    return float(np.mean(predictions == labels))
