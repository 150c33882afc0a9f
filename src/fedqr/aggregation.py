"""Server-side fusion of client adapters.

The exact route concatenates factors so the block product equals the weighted
sum of per-client updates, then compresses it with a QR factorization of
which only the leading server-rank block is formed. The baselines' factor
pairs (``factor_means`` for factor averaging and zero padding,
``baseline_full_stack`` for the raw stack) are kept for comparison; the
product of factor means is biased by construction, which is the point.

Sample-count weights and each adapter's forward scaling are folded into the
A-side blocks, so every aggregate below is expressed in true weight units.
Clients are always processed in ascending client id, making results
independent of arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapter import LoraAdapter
from .linalg import (
    RankError,
    ShapeError,
    frobenius_norm,
    leading_qr,
    leading_sum,
    low_rank_update,
    product_into,
    slice_cols,
    slice_rows,
)

# still importable from here: benchmarks/workloads.py traces it under this name
from .linalg import thin_qr  # noqa: F401


@dataclass
class ClientUpdate:
    """One client's upload: trained adapter, sample count, optional control deltas."""

    client_id: int
    adapter: LoraAdapter
    sample_count: int
    control_deltas: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")


@dataclass
class AggregationResult:
    """Leading server-rank QR factors of the aggregated update.

    ``q`` holds the leading r_s columns of Q and ``r`` the leading r_s rows of
    R; ``server_adapter`` is exactly this pair as a rank-r_s adapter, and
    every client slices its own rank from them.
    """

    q: np.ndarray
    r: np.ndarray
    truncation_error: float

    @property
    def server_adapter(self) -> LoraAdapter:
        return LoraAdapter(self.q, self.r, self.q.shape[1], scaling=1.0)


def _sorted_updates(updates: list[ClientUpdate]) -> tuple[list[ClientUpdate], np.ndarray]:
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    ordered = sorted(updates, key=lambda u: u.client_id)
    shape = ordered[0].adapter.shape
    for u in ordered:
        if u.adapter.shape != shape:
            raise ShapeError(
                f"client {u.client_id} update has shape {u.adapter.shape}, expected {shape}"
            )
    counts = np.array([u.sample_count for u in ordered], dtype=np.float64)
    return ordered, counts / counts.sum()


def concat_reconstruct(updates: list[ClientUpdate]) -> np.ndarray:
    """Exact weighted-sum update via block concatenation.

    Stacking B factors side by side and weight-scaled A factors on top of each
    other (``baseline_full_stack``) makes the single block product equal
    sum_k p_k * s_k * B_k A_k, so heterogeneous ranks fuse without averaging
    bias. The product is ``stack_product``'s.
    """
    return stack_product(*baseline_full_stack(updates))


def stack_product(b_stack: np.ndarray, a_stack: np.ndarray) -> np.ndarray:
    """New array ``b_stack @ a_stack``, the exact update of a stacked factor pair.

    A large product is computed in two row blocks on two threads
    (``linalg.product_into``), with the same bits.
    """
    return product_into(np.empty((b_stack.shape[0], a_stack.shape[1])), b_stack, a_stack)


def qr_compress(delta: np.ndarray, server_rank: int) -> AggregationResult:
    """Leading-block QR compression of an aggregated update to the server rank.

    Only the leading ``server_rank`` columns of Q and rows of R are formed
    (``leading_qr``); they are all a client can use, since client ranks never
    exceed the server rank. The truncation error is the residual of the
    trailing columns after projection onto Q,
    ||delta[:, r_s:] - Q R[:, r_s:]||_F, which equals the norm of the dense
    factorization's discarded block R[r_s:, :] in exact arithmetic. It is
    formed, squared and summed in the one rows x (cols - r_s) buffer that
    holds ``Q R[:, r_s:]``. The identity ||delta - B_s A_s||_F = truncation
    error is re-verified on every call; the two column blocks are disjoint,
    so only the leading block's residual is recomputed. Its tolerance scales
    with hypot(||R||_F, truncation error), which equals ||delta||_F in exact
    arithmetic because Q is orthonormal, and which needs no further pass over
    delta. Finite input whose residual or norms overflow gives a nonfinite
    truncation error, without a numpy warning. A large residual is formed in
    two row blocks on two threads (``linalg.product_into``); its squares, its
    sum and every norm stay whole on the calling thread (``frobenius_norm``).
    """
    q, r = leading_qr(delta, server_rank)
    trailing = delta[:, server_rank:]
    with np.errstate(over="ignore", invalid="ignore"):
        tail = np.empty(trailing.shape)

        def trailing_residual(index):
            np.subtract(trailing[index], tail[index], out=tail[index])

        product_into(tail, q, r[:, server_rank:], trailing_residual)
        truncation_error = frobenius_norm(tail, out=tail)
        head_residual = frobenius_norm(delta[:, :server_rank] - q @ r[:, :server_rank])
        residual = float(np.hypot(head_residual, truncation_error))
        scale = float(np.hypot(frobenius_norm(r), truncation_error))
    if abs(residual - truncation_error) > 1e-9 * (1.0 + scale):
        raise ArithmeticError(
            f"truncation identity violated: residual {residual!r} vs "
            f"trailing-block norm {truncation_error!r}"
        )
    return AggregationResult(q, r, truncation_error)


def personalize(result: AggregationResult, client_rank: int) -> LoraAdapter:
    """Leading-slice factors for one client; stays inside the global subspace.

    The available rank is the server rank: ``result`` holds only the leading
    r_s columns of Q and rows of R.
    """
    available = result.q.shape[1]
    if client_rank > available:
        raise RankError(f"client rank {client_rank} exceeds available rank {available}")
    b = slice_cols(result.q, client_rank)
    a = slice_rows(result.r, client_rank)
    return LoraAdapter(b, a, client_rank, scaling=1.0)


def apply_global(
    theta0: np.ndarray, result: AggregationResult, global_scale: float = 1.0
) -> np.ndarray:
    """New array ``theta0 + global_scale * B_s A_s`` for the server adapter's factors.

    Formed by ``linalg.low_rank_update``, with the bits of the expression.
    """
    adapter = result.server_adapter
    if adapter.shape != theta0.shape:
        raise ShapeError(f"update {adapter.shape} does not match weight {theta0.shape}")
    return low_rank_update(theta0, adapter.b_factor, adapter.a_factor, global_scale)


def factor_means(
    updates: list[ClientUpdate], rank: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sample-weighted factor means (sum p_k B_k, sum p_k s_k A_k).

    Each client's factors go into the leading block of the rank-``rank``
    means (default: the largest client rank), in ascending client id
    (``linalg.leading_sum``).
    """
    ordered, weights = _sorted_updates(updates)
    max_rank = max(u.adapter.rank for u in ordered)
    if rank is None:
        rank = max_rank
    if rank < max_rank:
        raise RankError(f"target rank {rank} below largest client rank {max_rank}")
    d, k = ordered[0].adapter.shape
    b_mean = leading_sum((d, rank), [u.adapter.b_factor for u in ordered], weights)
    a_weights = [w * u.adapter.scaling for u, w in zip(ordered, weights)]
    a_mean = leading_sum((rank, k), [u.adapter.a_factor for u in ordered], a_weights)
    return b_mean, a_mean


def baseline_full_stack(updates: list[ClientUpdate]) -> tuple[np.ndarray, np.ndarray]:
    """Unreduced concatenation (rank sum_k r_k) whose product is the exact update."""
    ordered, weights = _sorted_updates(updates)
    b_stack = np.hstack([u.adapter.b_factor for u in ordered])
    a_stack = np.vstack(
        [w * u.adapter.scaling * u.adapter.a_factor for u, w in zip(ordered, weights)]
    )
    return b_stack, a_stack
