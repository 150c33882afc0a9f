"""Dense linear algebra kernel shared by every other module.

All matrices are 2-D float64 ndarrays. Shape checking, the deterministic QR
sign convention and the finiteness contract live here so the layers above can
assume well-formed inputs. So does the one way the package starts a thread:
``alongside`` runs two independent calls side by side, and ``product_into``
uses it to compute a large product in two blocks of its output.
"""

from __future__ import annotations

import threading

import numpy as np

# largest entrywise defect of a Gram matrix from the identity that
# subspace_residual accepts as orthonormal columns
ORTHO_TOL = 1e-8

# m * k * n above which product_into splits an (m x k) @ (k x n) product
# across two threads. No preset, the drift oracle or wide_hetero's fusion
# (at most 1024 x 104 x 128) passes it; lora_agg's d x k products
# (1024 x 32..96 x 1024) pass it 2-6 times over. Small products must stay
# whole: cut by _halves' rule, 4 of 866 random shapes with m * k * n below
# 350000 changed bits, against 0 of 300 above this constant
SPLIT_MIN_WORK = 2**24


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
    nonfinite R, without a numpy warning. A large projection is computed in
    two column blocks on two threads (``product_into``), with the same bits.
    """
    if m.ndim != 2:
        raise ShapeError("leading_qr expects a 2-D matrix")
    if not 0 < rank <= min(m.shape):
        raise RankError(f"cannot take rank {rank} from shape {m.shape}")
    q, r_head = thin_qr(m[:, :rank])
    r = np.empty((rank, m.shape[1]))
    r[:, :rank] = r_head
    with np.errstate(over="ignore", invalid="ignore"):
        product_into(r[:, rank:], q.T, m[:, rank:])
    if not np.all(np.isfinite(r)) and not np.all(np.isfinite(m)):
        raise NonFiniteError("leading_qr input contains NaN or Inf")
    return q, r


def alongside(background, foreground, threaded: bool = True):
    """``(background(), foreground())``, side by side on two threads when ``threaded``.

    Threaded, ``background`` runs on one helper thread while the calling
    thread runs ``foreground``. The helper enters the caller's numpy error
    state, which a new thread does not inherit. It is joined before this
    returns or raises, and its exception is raised first. Otherwise
    ``foreground`` runs, then ``background``.
    """
    if not threaded:
        fore = foreground()
        return background(), fore
    errstate = np.geterr()
    outcome = []

    def helper():
        try:
            with np.errstate(**errstate):
                outcome.append((background(), None))
        except BaseException as exc:  # re-raised on the calling thread
            outcome.append((None, exc))

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        fore = foreground()
    finally:
        thread.join()
        back, error = outcome[0]
        if error is not None:
            raise error
    return back, fore


def _halves(m: int, k: int, n: int):
    """The two (rows, cols) blocks of an m x n product to compute apart, or None.

    The cut falls on a multiple of 64 rows, or of 64 columns when the product
    has fewer than 128 rows, and only an output with a multiple of 8 columns
    is cut. Measured on OpenBLAS 0.3.31 (AVX-512) above ``SPLIT_MIN_WORK``,
    with C- and F-ordered operands: with n % 8 != 0, 73 of 120 row cuts
    changed bits, all in the last n % 8 columns; with n % 8 == 0, 0 of 300
    row and column cuts did, 150 at 1 BLAS thread and 150 at 2.
    """
    if m * k * n <= SPLIT_MIN_WORK or n % 8:
        return None
    whole = slice(None)
    if m >= 128:
        cut = 64 * ((m + 64) // 128)
        return (slice(None, cut), whole), (slice(cut, None), whole)
    if n >= 128:
        cut = 64 * ((n + 64) // 128)
        return (whole, slice(None, cut)), (whole, slice(cut, None))
    return None


def product_into(out: np.ndarray, a: np.ndarray, b: np.ndarray, finish=None) -> np.ndarray:
    """Write ``a @ b`` into ``out``, then call ``finish(index)``; returns ``out``.

    ``finish`` is an elementwise follow-up on ``out[index]``, and on the same
    block of any array of its own. Above ``SPLIT_MIN_WORK`` the product is cut
    into two blocks (``_halves``): the helper of ``alongside`` computes and
    finishes one while the calling thread does the other. Every entry keeps
    the bits of the whole product. ``out`` is the caller's buffer, so neither
    thread allocates, and reductions over it stay with the caller.
    """

    def block(index):
        rows, cols = index
        np.matmul(a[rows], b[:, cols], out=out[index])
        if finish is not None:
            finish(index)

    halves = _halves(a.shape[0], a.shape[1], b.shape[1])
    if halves is None:
        block((slice(None), slice(None)))
    else:
        alongside(lambda: block(halves[1]), lambda: block(halves[0]))
    return out


def low_rank_update(base: np.ndarray, b: np.ndarray, a: np.ndarray, scale: float) -> np.ndarray:
    """New array ``base + scale * (b @ a)``.

    Each block of the product is scaled and shifted in place, so only one
    d x k array is written; + and * commute in IEEE arithmetic, so the bits
    are those of the expression. A large product is split (``product_into``).
    """
    out = np.empty(base.shape)

    def shift(index):
        block = out[index]
        block *= scale
        block += base[index]

    return product_into(out, b, a, shift)


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
