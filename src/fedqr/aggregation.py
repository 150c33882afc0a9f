"""Server-side fusion of client adapters.

The exact route concatenates factors so the block product equals the weighted
sum of per-client updates, then compresses it with a QR factorization of
which only the leading server-rank block is formed. Baseline aggregators
(factor averaging, zero padding, the raw stack) are kept for comparison;
factor averaging is biased by construction, which is the point.

Sample-count weights and each adapter's forward scaling are folded into the
A-side blocks, so every aggregate below is expressed in true weight units.
Clients are always processed in ascending client id, making results
independent of arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapter import LoraAdapter
from .linalg import RankError, ShapeError, frobenius_norm, leading_qr, slice_cols, slice_rows

# still importable from here: benchmarks/workloads.py traces it under this name
from .linalg import thin_qr  # noqa: F401


class RankCompatibilityError(RankError):
    """A homogeneous-rank baseline was fed heterogeneous ranks."""


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
    R; the server adapter is exactly this pair, and every client slices its
    own rank from them.
    """

    q: np.ndarray
    r: np.ndarray
    server_adapter: LoraAdapter
    truncation_error: float


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
    bias.
    """
    b_stack, a_stack = baseline_full_stack(updates)
    return b_stack @ a_stack


def qr_compress(delta: np.ndarray, server_rank: int) -> AggregationResult:
    """Leading-block QR compression of an aggregated update to the server rank.

    Only the leading ``server_rank`` columns of Q and rows of R are formed
    (``leading_qr``); they are all a client can use, since client ranks never
    exceed the server rank. The truncation error is the residual of the
    trailing columns after projection onto Q,
    ||delta[:, r_s:] - Q R[:, r_s:]||_F, which equals the norm of the dense
    factorization's discarded block R[r_s:, :] in exact arithmetic. It is
    formed, squared and summed in the one rows x (cols - r_s) buffer that
    holds ``Q R[:, r_s:]``; a residual that overflows from finite input gives
    a nonfinite truncation error, without a numpy warning. The identity
    ||delta - B_s A_s||_F = truncation error is re-verified on every call;
    the two column blocks are disjoint, so only the leading block's residual
    is recomputed. Its tolerance scales with hypot(||R||_F, truncation
    error), which equals ||delta||_F in exact arithmetic because Q is
    orthonormal, and which needs no further pass over delta.
    """
    q, r = leading_qr(delta, server_rank)
    trailing = delta[:, server_rank:]
    with np.errstate(over="ignore", invalid="ignore"):
        tail = q @ r[:, server_rank:]
        np.subtract(trailing, tail, out=tail)
        np.square(tail, out=tail)
        truncation_error = float(np.sqrt(np.sum(tail)))
    head_residual = frobenius_norm(delta[:, :server_rank] - q @ r[:, :server_rank])
    residual = float(np.hypot(head_residual, truncation_error))
    scale = float(np.hypot(frobenius_norm(r), truncation_error))
    if abs(residual - truncation_error) > 1e-9 * (1.0 + scale):
        raise ArithmeticError(
            f"truncation identity violated: residual {residual!r} vs "
            f"trailing-block norm {truncation_error!r}"
        )
    return AggregationResult(
        q=q,
        r=r,
        server_adapter=LoraAdapter(q, r, server_rank, scaling=1.0),
        truncation_error=truncation_error,
    )


def personalize(result: AggregationResult, client_rank: int) -> LoraAdapter:
    """Leading-slice factors for one client; stays inside the global subspace.

    The available rank is the server rank: ``result`` holds only the leading
    r_s columns of Q and rows of R.
    """
    available = result.server_adapter.rank
    if client_rank > available:
        raise RankError(f"client rank {client_rank} exceeds available rank {available}")
    b = slice_cols(result.q, client_rank)
    a = slice_rows(result.r, client_rank)
    return LoraAdapter(b, a, client_rank, scaling=1.0)


def apply_global(
    theta0: np.ndarray, result: AggregationResult, global_scale: float = 1.0
) -> np.ndarray:
    """New array ``theta0 + global_scale * B_s A_s`` for the server adapter's factors.

    The product is scaled and shifted in place, so only one d x k array is
    written; + and * commute in IEEE arithmetic, so the bits are those of the
    expression.
    """
    adapter = result.server_adapter
    if adapter.shape != theta0.shape:
        raise ShapeError(f"update {adapter.shape} does not match weight {theta0.shape}")
    model = adapter.b_factor @ adapter.a_factor
    model *= global_scale
    model += theta0
    return model


def factor_means(
    updates: list[ClientUpdate], rank: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Sample-weighted factor means (sum p_k B_k, sum p_k s_k A_k).

    Each client's factors are zero-padded to ``rank`` (default: the largest
    client rank) and accumulated in ascending client id.
    """
    ordered, weights = _sorted_updates(updates)
    max_rank = max(u.adapter.rank for u in ordered)
    if rank is None:
        rank = max_rank
    if rank < max_rank:
        raise RankError(f"target rank {rank} below largest client rank {max_rank}")
    d, k = ordered[0].adapter.shape
    b_mean = np.zeros((d, rank))
    a_mean = np.zeros((rank, k))
    for u, w in zip(ordered, weights):
        r = u.adapter.rank
        b_mean[:, :r] += w * u.adapter.b_factor
        a_mean[:r, :] += w * u.adapter.scaling * u.adapter.a_factor
    return b_mean, a_mean


def baseline_factor_average(updates: list[ClientUpdate]) -> np.ndarray:
    """Biased factor-averaging aggregate: (sum p_k B_k)(sum p_k s_k A_k).

    Requires homogeneous ranks; the averaged-product bias relative to
    sum p_k s_k B_k A_k persists even then.
    """
    ranks = {u.adapter.rank for u in updates}
    if len(ranks) > 1:
        raise RankCompatibilityError(
            f"rank-incompatible baseline: factor averaging needs equal ranks, got {sorted(ranks)}"
        )
    b_mean, a_mean = factor_means(updates)
    return b_mean @ a_mean


def baseline_zero_pad(updates: list[ClientUpdate], target_rank: int) -> np.ndarray:
    """Zero-pad factors to a common rank, then factor-average.

    Reduces to plain factor averaging when ranks are already homogeneous.
    """
    b_mean, a_mean = factor_means(updates, target_rank)
    return b_mean @ a_mean


def baseline_full_stack(updates: list[ClientUpdate]) -> tuple[np.ndarray, np.ndarray]:
    """Unreduced concatenation (rank sum_k r_k) whose product is the exact update."""
    ordered, weights = _sorted_updates(updates)
    b_stack = np.hstack([u.adapter.b_factor for u in ordered])
    a_stack = np.vstack(
        [w * u.adapter.scaling * u.adapter.a_factor for u, w in zip(ordered, weights)]
    )
    return b_stack, a_stack
