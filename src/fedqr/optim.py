"""AdamW plus the rank-aware control-variate machinery.

The optimizer is standard decoupled-weight-decay AdamW with bias correction.
Control variates follow the drift-correction recipe: clients correct raw
gradients by (global control - local control), refresh their local control to
the latest epoch-mean gradient, and the server folds the average delta into
the global control. Controls for heterogeneous ranks are stored at the server
rank; a client receives their leading slice at its rank, and its rank-r
delta is folded back into their leading block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError, leading_sum, slice_cols, slice_rows

# oracle kept importable from here only because benchmarks/workloads.py calls
# and traces it in this module
from .oracle import pad_delta  # noqa: F401


class NonFiniteGradientError(FloatingPointError):
    """A gradient contained NaN or Inf; the training round must halt."""


@dataclass
class AdamWState:
    """Moment estimates and hyperparameters for one parameter matrix."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


def fresh_adamw_state(shape: tuple[int, ...], **hyperparameters) -> AdamWState:
    """Zero moments of ``shape`` at step 0; ``hyperparameters`` are ``AdamWState``'s fields."""
    return AdamWState(np.zeros(shape), np.zeros(shape), **hyperparameters)


def adamw_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: AdamWState,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, AdamWState]:
    """One AdamW update; returns the new parameter and ``state``, advanced in place.

    param <- param - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * param)
    with bias-corrected m_hat, v_hat. The moments are updated in place, so
    ``state`` must not be shared between parameters. The new parameter is
    written to ``out`` (``out=param`` updates in place) or, without it, to a
    new array; both run the same elementwise operations in the same order, so
    they agree bit for bit. A gradient whose square is not finite (a NaN or
    Inf entry, or one so large the second moment would overflow) raises
    ``NonFiniteGradientError`` before ``state`` or ``out`` changes.
    """
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ShapeError(
            f"param {param.shape}, grad {grad.shape} and state {state.m.shape} must agree"
        )
    with np.errstate(over="ignore"):
        grad_sq = np.square(grad)
    if not np.all(np.isfinite(grad_sq)):
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradientError("gradient contains NaN or Inf")
        raise NonFiniteGradientError("second moment overflows: gradient squared is not finite")
    state.step += 1
    update = np.multiply(grad, 1.0 - state.beta1)
    state.m *= state.beta1
    state.m += update
    grad_sq *= 1.0 - state.beta2
    state.v *= state.beta2
    state.v += grad_sq
    # m_hat and v_hat reuse the two buffers above; v_hat becomes the denominator
    np.divide(state.m, 1.0 - state.beta1**state.step, out=update)
    np.divide(state.v, 1.0 - state.beta2**state.step, out=grad_sq)
    np.sqrt(grad_sq, out=grad_sq)
    grad_sq += state.eps
    update /= grad_sq
    np.multiply(param, state.weight_decay, out=grad_sq)
    update += grad_sq
    update *= state.lr
    return np.subtract(param, update, out=out), state


@dataclass
class ControlVariates:
    """Control pair for the A factor (r_ref x k) and the B factor (d x r_ref)."""

    c_a: np.ndarray
    c_b: np.ndarray
    r_ref: int

    def __post_init__(self):
        if self.c_a.shape[0] != self.r_ref or self.c_b.shape[1] != self.r_ref:
            raise ShapeError(
                f"controls {self.c_a.shape} / {self.c_b.shape} do not match rank {self.r_ref}"
            )


def zero_controls(d: int, k: int, r_ref: int) -> ControlVariates:
    return ControlVariates(c_a=np.zeros((r_ref, k)), c_b=np.zeros((d, r_ref)), r_ref=r_ref)


def local_control_update(
    last_raw_grad: np.ndarray, local_c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (delta, new local control) = (grad - control, grad)."""
    if last_raw_grad.shape != local_c.shape:
        raise ShapeError(
            f"gradient {last_raw_grad.shape} vs control {local_c.shape}"
        )
    return last_raw_grad - local_c, last_raw_grad.copy()


def server_control_aggregate(global_c: np.ndarray, deltas: list[np.ndarray]) -> np.ndarray:
    """Fold the unweighted mean of client deltas into the global control.

    Each delta fits inside ``global_c`` and is added into its leading block
    (``linalg.leading_sum``): a rank-r A-side delta (r x k) into the leading
    rows of c_A, a B-side delta (d x r) into the leading columns of c_B.
    Returns a new array, summed in place in client order; ``global_c`` is
    left unchanged.
    """
    if not deltas:
        raise ValueError("cannot aggregate an empty list of control deltas")
    total = leading_sum(global_c.shape, deltas)
    total /= len(deltas)
    total += global_c
    return total


def slice_controls(
    controls: ControlVariates, client_rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Leading-slice broadcast of stored controls down to a client rank."""
    return slice_rows(controls.c_a, client_rank), slice_cols(controls.c_b, client_rank)
