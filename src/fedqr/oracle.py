"""Slow, obvious reference versions of the production paths.

No round calls anything here. ``verify`` and the tests check the production
functions against these:

* ``head_loss_and_grads`` / ``head_accuracy``: the softmax head on the dense
  d x k effective weight, the oracle of ``model.factored_loss_and_grads`` and
  of the factored evaluation in ``federation``.
* ``factor_gradients``: the chain rule from a dense weight gradient to B and A
  gradients, the oracle of the factor gradients ``factored_loss_and_grads``
  returns without forming the d x k gradient.
* ``corrected_gradient``: the per-array control correction, the oracle of the
  packed client step's in-place correction.
* ``pad_delta``: the zero-padded rank embedding of a control delta, the oracle
  of ``optim.server_control_aggregate``'s leading-block fold.
"""

from __future__ import annotations

import numpy as np

from .adapter import LoraAdapter
from .linalg import RankError, ShapeError
from .model import logit_accuracy, logit_loss_and_grad


def _dense_logits(weight: np.ndarray, bias: np.ndarray, features: np.ndarray) -> np.ndarray:
    if features.shape[1] != weight.shape[0]:
        raise ShapeError(f"features {features.shape} vs weight {weight.shape}")
    return features @ weight + bias


def head_loss_and_grads(
    weight: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Dense oracle: mean cross-entropy with the exact d x k weight gradient.

    Returns (loss, dL/dweight, dL/dbias).
    """
    loss, delta = logit_loss_and_grad(_dense_logits(weight, bias, features), labels)
    return loss, features.T @ delta, delta.sum(axis=0, keepdims=True)


def head_accuracy(
    weight: np.ndarray, bias: np.ndarray, features: np.ndarray, labels: np.ndarray
) -> float:
    """Dense oracle: fraction of argmax-correct predictions."""
    return logit_accuracy(_dense_logits(weight, bias, features), labels)


def factor_gradients(
    adapter: LoraAdapter, weight_grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule from a full-weight gradient to factor gradients.

    With W = frozen + scaling * B @ A:
    dL/dB = scaling * dL/dW @ A.T and dL/dA = scaling * B.T @ dL/dW.
    """
    if weight_grad.shape != adapter.shape:
        raise ShapeError(
            f"weight gradient {weight_grad.shape} does not match adapter {adapter.shape}"
        )
    grad_b = adapter.scaling * (weight_grad @ adapter.a_factor.T)
    grad_a = adapter.scaling * (adapter.b_factor.T @ weight_grad)
    return grad_b, grad_a


def corrected_gradient(
    raw: np.ndarray, global_c: np.ndarray, local_c: np.ndarray
) -> np.ndarray:
    """raw + (global control - local control); the drift-corrected gradient."""
    if raw.shape != global_c.shape or raw.shape != local_c.shape:
        raise ShapeError(
            f"gradient {raw.shape} and controls {global_c.shape} / {local_c.shape} must agree"
        )
    return raw + (global_c - local_c)


def pad_delta(delta: np.ndarray, target_rank: int, axis: int = 0) -> np.ndarray:
    """Zero-pad a rank-r_k delta along ``axis`` up to ``target_rank``.

    A-side deltas (r x k) pad trailing rows (axis 0); B-side deltas (d x r)
    pad trailing columns (axis 1).
    """
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    rank = delta.shape[axis]
    if rank > target_rank:
        raise RankError(f"delta rank {rank} exceeds target {target_rank}")
    pad = [(0, 0), (0, 0)]
    pad[axis] = (0, target_rank - rank)
    return np.pad(delta, pad)
