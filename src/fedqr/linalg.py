"""Dense linear algebra kernel shared by every other module.

All matrices are 2-D float64 ndarrays. Shape checking, the deterministic QR
sign convention and the finiteness contract live here so the layers above can
assume well-formed inputs.
"""

from __future__ import annotations

import numpy as np

# largest entrywise defect of a Gram matrix from the identity that
# subspace_residual accepts as orthonormal columns
ORTHO_TOL = 1e-8


class ShapeError(ValueError):
    """Operands have incompatible dimensions."""


class RankError(ValueError):
    """A requested rank or slice width exceeds the available dimension."""


class BasisError(ValueError):
    """A matrix expected to have orthonormal columns does not."""


class NonFiniteError(ValueError):
    """A matrix to be factorized contains NaN or Inf."""


def thin_qr(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economy QR factorization with a deterministic sign convention.

    Returns (Q, R) with Q of shape (rows, q), q = min(rows, cols), having
    orthonormal columns and R upper triangular. Columns of Q / rows of R are
    flipped so every diagonal entry of R is nonnegative; this removes the sign
    ambiguity of Householder QR and makes repeated factorizations of the same
    input bit-identical. Rank-deficient input is legal (trailing diagonal of R
    is zero or near zero); a NaN or Inf entry raises ``NonFiniteError``.
    """
    if m.ndim != 2:
        raise ShapeError("thin_qr expects a 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("thin_qr input contains NaN or Inf")
    q, r = np.linalg.qr(m, mode="reduced")
    # flip only strictly negative diagonal entries; zeros stay untouched
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    q = q * signs[np.newaxis, :]
    r = signs[:, np.newaxis] * r
    return q, r


def leading_qr(m: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading ``rank`` columns of Q and rows of R of a QR factorization of ``m``.

    The first ``rank`` Householder steps of a QR factorization see only the
    first ``rank`` columns, so ``thin_qr(m[:, :rank])`` yields Q's leading
    columns and R's leading triangle; the rest of R's leading rows is the
    projection ``Q^T m[:, rank:]``. Returns (Q, R) with Q of shape
    (rows, rank) and R of shape (rank, cols), upper triangular in its leading
    block. Costs O(rows * cols * rank) instead of the dense O(rows * cols^2),
    and allocates nothing larger than Q and R: callers that need the
    trailing block's residual (``aggregation.qr_compress``) form it
    themselves.

    A NaN or Inf in the input raises ``NonFiniteError``: ``thin_qr`` checks
    the leading columns, and one in trailing column j makes every entry of
    R[:, j] = Q^T m[:, j] nonfinite, so only a nonfinite R pays for a full
    test of ``m``. Finite input whose projection overflows returns a
    nonfinite R, without a numpy warning.
    """
    if m.ndim != 2:
        raise ShapeError("leading_qr expects a 2-D matrix")
    if not 0 < rank <= min(m.shape):
        raise RankError(f"cannot take rank {rank} from shape {m.shape}")
    q, r_head = thin_qr(m[:, :rank])
    r = np.empty((rank, m.shape[1]))
    r[:, :rank] = r_head
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(q.T, m[:, rank:], out=r[:, rank:])
    if not np.all(np.isfinite(r)) and not np.all(np.isfinite(m)):
        raise NonFiniteError("leading_qr input contains NaN or Inf")
    return q, r


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.square(m, dtype=np.float64))))


def slice_cols(m: np.ndarray, first_n: int) -> np.ndarray:
    """Copy of the leading ``first_n`` columns; the source is untouched."""
    if not 0 < first_n <= m.shape[1]:
        raise RankError(f"cannot take {first_n} columns from shape {m.shape}")
    return m[:, :first_n].copy()


def slice_rows(m: np.ndarray, first_n: int) -> np.ndarray:
    """Copy of the leading ``first_n`` rows; the source is untouched."""
    if not 0 < first_n <= m.shape[0]:
        raise RankError(f"cannot take {first_n} rows from shape {m.shape}")
    return m[:first_n, :].copy()


def subspace_residual(basis: np.ndarray, v: np.ndarray) -> float:
    """Frobenius norm of ``v`` minus its projection onto colspan(basis).

    ``basis`` must have orthonormal columns (checked entrywise against
    ``ORTHO_TOL``); a zero residual certifies that every column of ``v`` lies
    in the span of the basis.
    """
    if basis.ndim != 2 or v.ndim != 2:
        raise ShapeError("subspace_residual expects 2-D matrices")
    if basis.shape[0] != v.shape[0]:
        raise ShapeError(f"basis has {basis.shape[0]} rows but v has {v.shape[0]}")
    gram = basis.T @ basis
    defect = np.max(np.abs(gram - np.eye(basis.shape[1])))
    if defect > ORTHO_TOL:
        raise BasisError(f"basis columns are not orthonormal (defect {defect:.3e})")
    residual = v - basis @ (basis.T @ v)
    return frobenius_norm(residual)
