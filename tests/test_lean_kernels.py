"""The dense server-step kernels against the plain expressions they evaluate.

``leading_qr``, ``qr_compress``, ``apply_global``, ``qr_orthogonal_init`` and
``server_control_aggregate`` compute in preallocated or reused buffers. Each
reference below is the straightforward formula with fresh temporaries; the
results must agree bit for bit, not to a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqr.adapter import LoraAdapter, qr_orthogonal_init
from fedqr.aggregation import ClientUpdate, apply_global, concat_reconstruct, qr_compress
from fedqr.linalg import frobenius_norm, leading_qr, thin_qr
from fedqr.optim import server_control_aggregate


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def leading_qr_reference(m, rank):
    q, r_head = thin_qr(m[:, :rank])
    trailing = m[:, rank:]
    r_right = q.T @ trailing
    tail_norm = frobenius_norm(trailing - q @ r_right)
    return q, np.hstack([r_head, r_right]), tail_norm


def server_control_aggregate_reference(global_c, deltas):
    total = np.zeros_like(global_c)
    for delta in deltas:
        total = total + delta
    return global_c + total / len(deltas)


@st.composite
def aggregates(draw):
    """(matrix, rank): generic, fused client stacks (collinear ones too), or zero.

    Half the draws take rank == cols, so the trailing block is empty. Some
    shapes are scaled up 8x, past the sizes where BLAS uses its small-matrix
    kernels.
    """
    kind = draw(st.sampled_from(["generic", "stack", "collinear_stack", "zero"]))
    scale = draw(st.sampled_from([1, 1, 1, 8]))
    rows = scale * draw(st.integers(1, 24))
    cols = scale * draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if draw(st.booleans()):
        rows = max(rows, cols)
        rank = cols
    else:
        rank = draw(st.integers(1, min(rows, cols)))
    if kind == "generic":
        m = rng.standard_normal((rows, cols))
    elif kind == "zero":
        m = np.zeros((rows, cols))
    else:
        ranks = [int(r) for r in rng.integers(1, min(rows, cols) + 1, size=rng.integers(1, 5))]
        # collinear: every client's B is a slice of one orthonormal basis, as
        # after a broadcast, so the B stack repeats columns exactly
        shared, _ = thin_qr(rng.standard_normal((rows, max(ranks))))
        updates = []
        for cid, r in enumerate(ranks):
            if kind == "collinear_stack":
                b = shared[:, :r].copy()
            else:
                b = rng.standard_normal((rows, r))
            a = rng.standard_normal((r, cols))
            adapter = LoraAdapter(b, a, r, float(rng.uniform(0.5, 4.0)))
            updates.append(ClientUpdate(cid, adapter, int(rng.integers(1, 100))))
        m = concat_reconstruct(updates)
    return m, rank


class TestBitIdentical:
    @settings(max_examples=200, deadline=None)
    @given(case=aggregates())
    def test_leading_qr(self, case):
        m, rank = case
        q, r, tail_norm = leading_qr(m, rank)
        want_q, want_r, want_tail = leading_qr_reference(m, rank)
        assert same_bits(q, want_q) and same_bits(r, want_r)
        assert tail_norm == want_tail

    @settings(max_examples=100, deadline=None)
    @given(case=aggregates())
    def test_qr_compress(self, case):
        delta, rank = case
        result = qr_compress(delta, rank)
        want_q, want_r, want_tail = leading_qr_reference(delta, rank)
        assert same_bits(result.q, want_q) and same_bits(result.r, want_r)
        assert same_bits(result.server_adapter.b_factor, want_q)
        assert same_bits(result.server_adapter.a_factor, want_r)
        assert result.truncation_error == want_tail

    @settings(max_examples=100, deadline=None)
    @given(
        case=aggregates(),
        global_scale=st.one_of(st.just(1.0), st.floats(-8.0, 8.0, allow_nan=False)),
        seed=st.integers(0, 2**31),
    )
    def test_apply_global(self, case, global_scale, seed):
        delta, rank = case
        result = qr_compress(delta, rank)
        theta0 = np.random.default_rng(seed).standard_normal(delta.shape)
        theta0_before = theta0.copy()
        top = result.server_adapter
        want = theta0 + global_scale * (top.b_factor @ top.a_factor)
        assert same_bits(apply_global(theta0, result, global_scale), want)
        assert same_bits(theta0, theta0_before)

    @settings(max_examples=100, deadline=None)
    @given(case=aggregates(), data=st.data())
    def test_qr_orthogonal_init(self, case, data):
        theta0, base_rank = case
        client_rank = data.draw(st.integers(1, base_rank))
        base, adapter = qr_orthogonal_init(theta0, client_rank, base_rank, scaling=1.0)
        q, r, _ = leading_qr_reference(theta0, base_rank)
        assert same_bits(base.frozen, theta0 - q @ r)
        assert not base.frozen.flags.writeable
        assert same_bits(adapter.b_factor, q[:, :client_rank].copy())
        assert same_bits(adapter.a_factor, r[:client_rank].copy())

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        n_deltas=st.integers(1, 9),
        zeros=st.sampled_from(["none", "signed", "all"]),
        seed=st.integers(0, 2**31),
    )
    def test_server_control_aggregate(self, rows, cols, n_deltas, zeros, seed):
        rng = np.random.default_rng(seed)
        global_c = rng.standard_normal((rows, cols))
        deltas = [rng.standard_normal((rows, cols)) for _ in range(n_deltas)]
        if zeros == "signed":
            # -0.0 and +0.0 entries: 0 + -0.0 is +0.0, so the first add's order shows
            for delta in deltas:
                delta[rng.random((rows, cols)) < 0.5] = rng.choice([-0.0, 0.0])
        elif zeros == "all":
            global_c[:] = -0.0
            deltas = [np.full((rows, cols), -0.0) for _ in range(n_deltas)]
        before = global_c.copy()
        got = server_control_aggregate(global_c, deltas)
        assert same_bits(got, server_control_aggregate_reference(before, deltas))
        assert same_bits(global_c, before)
