"""Low-rank adapter state and its calculus.

An adapter is an additive update ``scaling * B @ A`` on top of a frozen base
weight. Initialization slices an orthonormal QR basis of the pre-trained
weight, so every client starts inside one shared column subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RankError, ShapeError, leading_qr, low_rank_update, slice_cols, slice_rows

DEFAULT_LORA_ALPHA = 16.0


@dataclass
class LoraAdapter:
    """Factor pair B (d x r) / A (r x k) plus rank and forward scaling."""

    b_factor: np.ndarray
    a_factor: np.ndarray
    rank: int
    scaling: float = 1.0

    def __post_init__(self):
        d, rb = self.b_factor.shape
        ra, k = self.a_factor.shape
        if rb != self.rank or ra != self.rank:
            raise ShapeError(
                f"factor shapes {self.b_factor.shape} / {self.a_factor.shape} "
                f"do not match rank {self.rank}"
            )
        if self.rank > min(d, k):
            raise RankError(f"rank {self.rank} exceeds min{(d, k)}")
        if not self.scaling > 0:
            raise ValueError(f"scaling must be positive, got {self.scaling}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.b_factor.shape[0], self.a_factor.shape[1]

    def copy(self) -> "LoraAdapter":
        return LoraAdapter(self.b_factor.copy(), self.a_factor.copy(), self.rank, self.scaling)


@dataclass
class BaseWeight:
    """Frozen base weight the adapter's update is added to.

    Training never mutates ``frozen``; ``qr_orthogonal_init`` returns it
    read-only, so one base can be shared by every client of a federation.
    """

    frozen: np.ndarray


def qr_orthogonal_init(
    theta0: np.ndarray,
    client_rank: int,
    base_rank: int,
    scaling: float | None = None,
) -> tuple[BaseWeight, LoraAdapter]:
    """Initialize an adapter from the QR factors of the pre-trained weight.

    The adapter holds the leading ``client_rank`` columns of Q / rows of R;
    only the leading ``base_rank`` block of the factorization is formed
    (``leading_qr``). The frozen base subtracts that leading component, where
    ``base_rank`` is the federation-wide server rank: with a single shared
    subtraction rank every client ends up with an identical frozen base, which
    cross-client aggregation relies on. With ``client_rank == base_rank`` and
    ``scaling == 1`` the effective weight reproduces ``theta0`` exactly.

    ``leading_qr`` forms only Q and R, no residual of the trailing columns;
    the frozen base ``theta0 - Q R`` is ``linalg.low_rank_update`` at scale
    -1, which writes one d x k buffer: negation is exact and a + (-b) is
    a - b in IEEE arithmetic, so the bits are those of the difference. A NaN
    or Inf in ``theta0`` raises ``NonFiniteError``.

    ``scaling`` defaults to ``DEFAULT_LORA_ALPHA / client_rank``.
    """
    d, k = theta0.shape
    if not 0 < client_rank <= base_rank <= min(d, k):
        raise RankError(
            f"need 0 < client_rank <= base_rank <= min(d, k); "
            f"got client_rank={client_rank}, base_rank={base_rank}, shape={(d, k)}"
        )
    q, r = leading_qr(theta0, base_rank)
    b = slice_cols(q, client_rank)
    a = slice_rows(r, client_rank)
    frozen = low_rank_update(theta0, q, r, -1.0)
    frozen.flags.writeable = False
    if scaling is None:
        scaling = DEFAULT_LORA_ALPHA / client_rank
    return BaseWeight(frozen=frozen), LoraAdapter(b, a, client_rank, scaling)


def effective_weight(base: BaseWeight, adapter: LoraAdapter) -> np.ndarray:
    """New array ``base.frozen + scaling * B @ A``.

    Formed by ``linalg.low_rank_update``, with the bits of the expression.
    """
    if adapter.shape != base.frozen.shape:
        raise ShapeError(
            f"adapter produces {adapter.shape}, base is {base.frozen.shape}"
        )
    return low_rank_update(base.frozen, adapter.b_factor, adapter.a_factor, adapter.scaling)
