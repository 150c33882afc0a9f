"""Linear softmax head whose weight matrix carries the low-rank adapter.

Two architectures: plain softmax regression on the raw features, or the same
head on top of a frozen random tanh layer (``model_features``). Either way the
adapted matrix sees a closed-form cross-entropy gradient, so no autodiff is
needed. Every function takes plain arrays.

Training and evaluation run the factored head: with W = W0 + s * B @ A and
W0 frozen, the logits are ``X @ W0 + s * (X @ B) @ A + bias``, where
``X @ W0`` is computed once per federation and cached, so neither the d x k
weight nor its d x k gradient is ever formed. The dense-weight head it is
checked against lives in ``oracle``.
"""

from __future__ import annotations

import numpy as np


class EmptyBatchError(ValueError):
    """A loss or accuracy was requested on a batch with no samples."""


def model_features(inputs: np.ndarray, hidden_weight: np.ndarray | None) -> np.ndarray:
    """Map raw inputs to the features seen by the adapted head weight."""
    if hidden_weight is None:
        return inputs
    features = inputs @ hidden_weight
    return np.tanh(features, out=features)


def _log_softmax_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, float]:
    """Log-probabilities and mean cross-entropy of a batch of logits.

    Log-probabilities are computed with the usual max-shift so saturated
    logits stay finite.
    """
    n = logits.shape[0]
    if n == 0:
        raise EmptyBatchError("cannot compute a loss on an empty batch")
    log_probs = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(log_probs), axis=1, keepdims=True))
    log_probs -= log_norm
    loss = float(-np.mean(log_probs[np.arange(n), labels]))
    return log_probs, loss


def logit_loss_and_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its exact gradient with respect to the logits."""
    delta, loss = _log_softmax_loss(logits, labels)
    n = logits.shape[0]
    np.exp(delta, out=delta)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    return loss, delta


def logit_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions."""
    if logits.shape[0] == 0:
        raise EmptyBatchError("cannot evaluate an empty batch")
    # np.argmax takes the first maximum, i.e. ties resolve to the lowest class
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def logit_loss_and_accuracy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and argmax accuracy of one batch of logits."""
    _, loss = _log_softmax_loss(logits, labels)
    return loss, logit_accuracy(logits, labels)


def _factored_forward(
    base_logits: np.ndarray,
    features: np.ndarray,
    b_factor: np.ndarray,
    a_factor: np.ndarray,
    scaling: float,
    bias: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(logits, X @ B); the logits are ``base_logits + scaling * (X @ B) @ A + bias``.

    The sum is formed in the low-rank product's buffer, in that order.
    """
    projected = features @ b_factor
    logits = projected @ a_factor
    logits *= scaling
    logits += base_logits
    logits += bias
    return logits, projected


def factored_logits(
    base_logits: np.ndarray,
    features: np.ndarray,
    b_factor: np.ndarray,
    a_factor: np.ndarray,
    scaling: float,
    bias: np.ndarray,
) -> np.ndarray:
    """Logits of the head W0 + scaling * B @ A, given ``base_logits = features @ W0``."""
    return _factored_forward(base_logits, features, b_factor, a_factor, scaling, bias)[0]


def factored_loss_and_grads(
    base_logits: np.ndarray,
    features: np.ndarray,
    b_factor: np.ndarray,
    a_factor: np.ndarray,
    scaling: float,
    bias: np.ndarray,
    labels: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy of the factored head, with exact factor gradients.

    With G = dL/dlogits: dL/dB = scaling * X^T (G A^T), dL/dA =
    scaling * (X B)^T G and dL/dbias = sum_rows G. Returns (loss, dL/dB,
    dL/dA, dL/dbias); nothing of size d x k is formed. The gradients are
    written to ``out = (grad_b, grad_a, grad_bias)`` when it is given (for
    instance views of one packed buffer), otherwise to new arrays.
    """
    logits, projected = _factored_forward(
        base_logits, features, b_factor, a_factor, scaling, bias
    )
    loss, delta = logit_loss_and_grad(logits, labels)
    grad_b, grad_a, grad_bias = (None, None, None) if out is None else out
    grad_b = np.matmul(features.T, delta @ a_factor.T, out=grad_b)
    grad_b *= scaling
    grad_a = np.matmul(projected.T, delta, out=grad_a)
    grad_a *= scaling
    grad_bias = np.sum(delta, axis=0, keepdims=True, out=grad_bias)
    return loss, grad_b, grad_a, grad_bias
