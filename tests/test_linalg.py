import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqr.adapter import qr_orthogonal_init
from fedqr.aggregation import qr_compress
from fedqr.linalg import (
    BasisError,
    NonFiniteError,
    RankError,
    ShapeError,
    frobenius_norm,
    leading_qr,
    slice_cols,
    slice_rows,
    subspace_residual,
    thin_qr,
)


class TestThinQr:
    def test_identity(self):
        q, r = thin_qr(np.eye(3))
        assert np.allclose(q, np.eye(3), atol=1e-15)
        assert np.allclose(r, np.eye(3), atol=1e-15)

    def test_single_column(self):
        q, r = thin_qr(np.array([[3.0], [4.0]]))
        assert np.allclose(q, [[0.6], [0.8]], atol=1e-12)
        assert np.allclose(r, [[5.0]], atol=1e-12)

    def test_zero_matrix(self):
        m = np.zeros((4, 2))
        q, r = thin_qr(m)
        assert np.allclose(r, 0.0)
        # Q is still an orthonormal completion and reconstruction holds
        assert np.max(np.abs(q.T @ q - np.eye(2))) <= 1e-10
        assert frobenius_norm(q @ r - m) <= 1e-10

    def test_random_shapes_orthonormal_and_reconstruct(self):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(110):
            rows = int(rng.integers(1, 30))
            cols = int(rng.integers(1, 30))
            m = rng.standard_normal((rows, cols))
            if rng.random() < 0.25 and min(rows, cols) > 1:
                # make it rank deficient
                inner = int(rng.integers(1, min(rows, cols)))
                m = rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
            q, r = thin_qr(m)
            width = min(rows, cols)
            assert q.shape == (rows, width)
            assert r.shape == (width, cols)
            assert np.max(np.abs(q.T @ q - np.eye(width))) <= 1e-10
            assert frobenius_norm(q @ r - m) <= 1e-10 * (1.0 + frobenius_norm(m))
            assert np.all(np.diagonal(r) >= 0.0)
            assert np.allclose(np.tril(r, -1), 0.0, atol=1e-12)
            checked += 1
        assert checked >= 100

    def test_deterministic_bits(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((9, 5))
        q1, r1 = thin_qr(m)
        q2, r2 = thin_qr(m.copy())
        assert q1.tobytes() == q2.tobytes()
        assert r1.tobytes() == r2.tobytes()

    def test_rejects_nonfinite(self):
        m = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError, match="NaN"):
            thin_qr(m)


def _leading_qr_case(kind, rows, cols, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((rows, cols))
    m = rng.standard_normal((rows, cols))
    if kind == "low_rank":
        inner = int(rng.integers(1, min(rows, cols) + 1))
        m = rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
    elif kind == "zero_columns":
        m[:, rng.integers(0, cols, size=max(1, cols // 2))] = 0.0
    return m


class TestLeadingQr:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["generic", "low_rank", "zero_columns", "zero"]),
        rows=st.integers(1, 24),
        cols=st.integers(1, 24),
        rank_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_matches_dense_qr_slices(self, kind, rows, cols, rank_fraction, seed):
        m = _leading_qr_case(kind, rows, cols, seed)
        rank = 1 + int(rank_fraction * (min(rows, cols) - 1))
        q, r = leading_qr(m, rank)
        dense_q, dense_r = thin_qr(m)
        scale = 1.0 + frobenius_norm(m)
        assert q.shape == (rows, rank) and r.shape == (rank, cols)
        assert np.max(np.abs(r - dense_r[:rank])) <= 1e-12 * scale
        tail_norm = qr_compress(m, rank).truncation_error
        assert abs(tail_norm - frobenius_norm(dense_r[rank:])) <= 1e-12 * scale
        # Q is unique only up to the first (numerically) zero pivot: past it
        # both factorizations complete the basis from roundoff
        nonzero_pivot = np.abs(np.diagonal(dense_r))[:rank] > 1e-8 * scale
        unique = rank if nonzero_pivot.all() else int(np.argmin(nonzero_pivot))
        assert np.max(np.abs(q[:, :unique] - dense_q[:, :unique]), initial=0.0) <= 1e-12
        assert np.max(np.abs(q.T @ q - np.eye(rank))) <= 1e-10
        assert not np.tril(r[:, :rank], -1).any()

    def test_zero_matrix_equals_dense_slices(self):
        m = np.zeros((6, 5))
        q, r = leading_qr(m, 3)
        dense_q, _ = thin_qr(m)
        assert np.array_equal(q, dense_q[:, :3])
        assert not r.any() and qr_compress(m, 3).truncation_error == 0.0

    def test_full_rank_slice_has_no_tail(self):
        m = np.random.default_rng(6).standard_normal((7, 4))
        q, r = leading_qr(m, 4)
        assert qr_compress(m, 4).truncation_error == 0.0
        assert frobenius_norm(q @ r - m) <= 1e-12 * frobenius_norm(m)

    def test_rank_bounds(self):
        with pytest.raises(RankError):
            leading_qr(np.ones((4, 3)), 4)
        with pytest.raises(RankError):
            leading_qr(np.ones((4, 3)), 0)

    def test_rejects_nonfinite_trailing_column(self):
        m = np.ones((4, 3))
        m[0, 2] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            leading_qr(m, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 2, 4])
    def test_rejects_nonfinite_entry_in_any_column(self, column, value):
        # rank 2: column 0 is in the head block, columns 2 and 4 trail it
        m = np.random.default_rng(7).standard_normal((6, 5))
        m[3, column] = value
        with pytest.raises(NonFiniteError, match="NaN or Inf"):
            leading_qr(m, 2)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_residual_returns_inf(self):
        m = 1e200 * np.random.default_rng(8).standard_normal((6, 5))
        q, r = leading_qr(m, 2)
        assert np.all(np.isfinite(q)) and np.all(np.isfinite(r))
        # the truncation identity's norms of this 1e200-scale R overflow as
        # well, quietly
        assert qr_compress(m, 2).truncation_error == np.inf
        m = 1e200 * np.random.default_rng(9).standard_normal((12, 8))
        assert qr_compress(m, 3).truncation_error == np.inf
        # a tail orthogonal to Q overflows only in the residual, which
        # qr_compress forms quietly
        m = np.zeros((6, 5))
        m[:2, :2] = [[1.0, 2.0], [3.0, -1.0]]
        m[2:, 2:] = 1e200
        assert qr_compress(m, 2).truncation_error == np.inf

    def test_rejects_non_matrix(self):
        with pytest.raises(ShapeError):
            leading_qr(np.ones(4), 1)


def _projection_overflow_case():
    # finite input whose rank-1 projection overflows: the trailing column
    # 1e308 * sign(q) has R[0, 3] = 1e308 * ||q||_1 > 1.8e308
    m = np.random.default_rng(9).standard_normal((6, 5))
    q, _ = thin_qr(m[:, :1])
    m[:, 3] = 1e308 * np.sign(q[:, 0])
    return m


def _init_at_rank(m, rank):
    return qr_orthogonal_init(m, rank, rank, scaling=1.0)


class TestFinitenessContract:
    """A trailing column is tested only through the R it projects to."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("kernel", [leading_qr, qr_compress, _init_at_rank])
    def test_nonfinite_trailing_column_raises(self, kernel, value):
        m = np.random.default_rng(10).standard_normal((7, 6))
        m[4, 5] = value
        with pytest.raises(NonFiniteError, match="NaN or Inf"):
            kernel(m, 2)

    @pytest.mark.filterwarnings("error")
    def test_projection_overflow_returns_quietly(self):
        m = _projection_overflow_case()
        q, r = leading_qr(m, 1)
        assert np.all(np.isfinite(q))
        assert not np.isfinite(r[0, 3]) and np.all(np.isfinite(np.delete(r, 3, axis=1)))
        assert not np.isfinite(qr_compress(m, 1).truncation_error)
        base, _ = _init_at_rank(m, 1)
        assert not np.all(np.isfinite(base.frozen))

    def test_peak_memory_is_the_outputs(self):
        # Q (256 x 16) and R (16 x 256) are 0.125 of m; a d x k temporary
        # would be at least 1.0
        m = np.random.default_rng(11).standard_normal((256, 256))
        leading_qr(m, 16)  # first call loads LAPACK outside the trace
        tracemalloc.start()
        try:
            leading_qr(m, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * m.nbytes


class TestFrobenius:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 4))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, abs=1e-15)

    def test_matches_sum_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 6))
        expected = 0.0
        for row in m:
            for x in row:
                expected += x * x
        assert abs(frobenius_norm(m) - np.sqrt(expected)) <= 1e-12


class TestSlices:
    def test_full_slice_is_copy(self):
        m = np.arange(12.0).reshape(3, 4)
        out = slice_cols(m, 4)
        assert np.array_equal(out, m)
        out[0, 0] = 99.0
        assert m[0, 0] == 0.0  # source unmodified

    def test_slice_rows_identity(self):
        assert np.array_equal(slice_rows(np.eye(3), 2), np.eye(3)[:2])

    def test_out_of_range(self):
        m = np.zeros((2, 2))
        with pytest.raises(RankError):
            slice_cols(m, 3)
        with pytest.raises(RankError):
            slice_rows(m, 0)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), inner=st.integers(2, 8), seed=st.integers(0, 2**31))
    def test_reslicing_composes(self, n, inner, seed):
        rng = np.random.default_rng(seed)
        take_big = min(inner, n)
        take_small = max(1, take_big - 1)
        m = rng.standard_normal((4, n))
        direct = slice_cols(m, take_small)
        staged = slice_cols(slice_cols(m, take_big), take_small)
        assert np.array_equal(direct, staged)


class TestSubspaceResidual:
    def test_column_of_basis(self):
        q, _ = thin_qr(np.random.default_rng(4).standard_normal((8, 3)))
        v = q[:, [1]]
        assert subspace_residual(q, v) <= 1e-10

    def test_orthogonal_direction(self):
        basis = np.array([[1.0], [0.0]])
        v = np.array([[0.0], [1.0]])
        assert subspace_residual(basis, v) == pytest.approx(1.0, abs=1e-15)

    def test_pythagoras(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            q, _ = thin_qr(rng.standard_normal((10, 4)))
            v = rng.standard_normal((10, 2))
            residual = subspace_residual(q, v)
            projection = q @ (q.T @ v)
            total = frobenius_norm(v) ** 2
            assert abs(residual**2 + frobenius_norm(projection) ** 2 - total) <= 1e-9

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(BasisError):
            subspace_residual(np.array([[1.0], [1.0]]), np.zeros((2, 1)))

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            subspace_residual(np.eye(3), np.zeros((2, 1)))
