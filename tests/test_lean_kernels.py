"""The in-place kernels against the plain expressions they evaluate.

Server step: ``leading_qr``, ``qr_compress``, ``apply_global``,
``qr_orthogonal_init``, ``leading_sum``, ``factor_means`` and
``server_control_aggregate`` compute in preallocated or reused buffers, and
the last three fold rank-r client arrays into the leading block without
padding them. Client path: ``adamw_step``
with ``out=``, the packed [B | A | bias] client step, the factored head and
``_gradient_heterogeneity`` write in place, ``dirichlet_partition`` assigns
from one sort of the labels, and ``init_federation`` puts the mapped
features in client order in place (``permute_rows``). Each reference below is the
straightforward form with fresh temporaries: three separate AdamW states, a
per-class split loop, a gather after the map. The results must agree bit for
bit, not to a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedqr import federation
from fedqr.adapter import LoraAdapter, qr_orthogonal_init
from fedqr.aggregation import (
    ClientUpdate,
    apply_global,
    concat_reconstruct,
    factor_means,
    qr_compress,
)
from fedqr.data import Dataset, dirichlet_partition, generate_blobs, permute_rows
from fedqr.federation import FederationConfig, init_federation, run_round
from fedqr.linalg import ShapeError, frobenius_norm, leading_qr, leading_sum, thin_qr
from fedqr.model import factored_logits, factored_loss_and_grads
from fedqr.optim import adamw_step, fresh_adamw_state, server_control_aggregate
from fedqr.oracle import pad_delta


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


def leading_sum_reference(shape, terms, weights=None):
    """Each term zero-padded to ``shape``, weighted, then summed from +0.0 with fresh temporaries."""
    total = np.zeros(shape)
    for i, term in enumerate(terms):
        padded = np.zeros(shape)
        padded[tuple(slice(None, n) for n in term.shape)] = term
        total = total + (padded if weights is None else weights[i] * padded)
    return total


def factor_means_reference(updates, rank):
    """The factor means' loop as written before ``leading_sum``."""
    ordered = sorted(updates, key=lambda u: u.client_id)
    counts = np.array([u.sample_count for u in ordered], dtype=np.float64)
    weights = counts / counts.sum()
    d, k = ordered[0].adapter.shape
    b_mean = np.zeros((d, rank))
    a_mean = np.zeros((rank, k))
    for u, w in zip(ordered, weights):
        r = u.adapter.rank
        b_mean[:, :r] += w * u.adapter.b_factor
        a_mean[:r, :] += w * u.adapter.scaling * u.adapter.a_factor
    return b_mean, a_mean


def adamw_step_reference(param, grad, state):
    state.step += 1
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * np.square(grad)
    m_hat = state.m / (1.0 - state.beta1**state.step)
    v_hat = state.v / (1.0 - state.beta2**state.step)
    return param - state.lr * (
        m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * param
    )


def factored_logits_reference(base_logits, features, b, a, scaling, bias):
    projected = features @ b
    return base_logits + scaling * (projected @ a) + bias, projected


def logit_loss_and_grad_reference(logits, labels):
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    log_probs = shifted - log_norm
    loss = float(-np.mean(log_probs[np.arange(n), labels]))
    delta = np.exp(log_probs)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    return loss, delta


def factored_loss_and_grads_reference(base_logits, features, b, a, scaling, bias, labels):
    logits, projected = factored_logits_reference(base_logits, features, b, a, scaling, bias)
    loss, delta = logit_loss_and_grad_reference(logits, labels)
    grad_b = scaling * (features.T @ (delta @ a.T))
    grad_a = scaling * (projected.T @ delta)
    return loss, grad_b, grad_a, delta.sum(axis=0, keepdims=True)


def dirichlet_partition_reference(labels, n_classes, n_clients, alpha, seed):
    """(assignments, client counts, whether the empty-client repair ran)."""
    rng = np.random.default_rng(seed)
    assignments = np.empty(labels.shape[0], dtype=np.int64)
    for c in range(n_classes):
        idx = np.flatnonzero(labels == c)
        idx = rng.permutation(idx)
        proportions = rng.dirichlet(np.full(n_clients, alpha))
        counts = rng.multinomial(idx.shape[0], proportions)
        boundaries = np.cumsum(counts)[:-1]
        for client, chunk in enumerate(np.split(idx, boundaries)):
            assignments[chunk] = client
    client_counts = np.bincount(assignments, minlength=n_clients)
    repaired = bool(np.any(client_counts == 0))
    while np.any(client_counts == 0):
        empty = int(np.argmin(client_counts))
        donor = int(np.argmax(client_counts))
        moved = int(np.flatnonzero(assignments == donor)[-1])
        assignments[moved] = empty
        client_counts[donor] -= 1
        client_counts[empty] += 1
    return assignments, client_counts, repaired


def train_client_reference(client, server, config, round_index):
    """The client step with three separate AdamW states, on copies of the client's state.

    The three states start from the client's packed moments. Returns
    (B, A, bias, c_a, c_b, round control deltas) after the round.
    """
    d, k = server.theta0.shape
    moments = [
        federation._packed_views(x.copy(), d, k, client.rank)
        for x in (client.opt_state.m, client.opt_state.v)
    ]
    states = []
    for m, v in zip(*moments):
        state = fresh_adamw_state(
            m.shape, lr=config.lr, beta1=config.beta1, beta2=config.beta2,
            eps=config.eps, weight_decay=config.weight_decay,
        )
        state.m, state.v, state.step = m, v, client.opt_state.step
        states.append(state)
    state_b, state_a, state_bias = states
    b = client.adapter.b_factor.copy()
    a = client.adapter.a_factor.copy()
    bias = client.bias.copy()
    c_a = client.controls.c_a.copy()
    c_b = client.controls.c_b.copy()
    global_ca = server.global_controls.c_a[: client.rank, :].copy()
    global_cb = server.global_controls.c_b[:, : client.rank].copy()
    base_logits = federation._frozen_logits(server)[0][client.rows]
    round_a = np.zeros_like(c_a)
    round_b = np.zeros_like(c_b)
    for batches in federation._shard_batches(client, config, round_index):
        sum_ga = np.zeros_like(c_a)
        sum_gb = np.zeros_like(c_b)
        for idx in batches:
            _, grad_b, grad_a, bgrad = factored_loss_and_grads_reference(
                base_logits[idx], client.features[idx], b, a,
                client.adapter.scaling, bias, client.labels[idx],
            )
            sum_ga += grad_a
            sum_gb += grad_b
            a = adamw_step_reference(a, grad_a + (global_ca - c_a), state_a)
            b = adamw_step_reference(b, grad_b + (global_cb - c_b), state_b)
            bias = adamw_step_reference(bias, bgrad, state_bias)
        if config.method == "ilora_s":
            mean_ga = sum_ga / len(batches)
            mean_gb = sum_gb / len(batches)
            round_a += mean_ga - c_a
            round_b += mean_gb - c_b
            c_a, c_b = mean_ga.copy(), mean_gb.copy()
    return b, a, bias, c_a, c_b, (round_a, round_b)


def gradient_heterogeneity_reference(server, sampled):
    base_logits = federation._frozen_logits(server)[0]
    grads = []
    counts = []
    for client in sampled:
        lora = client.adapter
        logits, _ = factored_logits_reference(
            base_logits[client.rows], client.features, lora.b_factor, lora.a_factor,
            lora.scaling, client.bias,
        )
        _, delta = logit_loss_and_grad_reference(logits, client.labels)
        grads.append(client.features.T @ delta)
        counts.append(client.n_samples)
    weights = np.asarray(counts, dtype=np.float64)
    weights /= weights.sum()
    mean_grad = sum(w * g for w, g in zip(weights, grads))
    return float(np.mean([frobenius_norm(g - mean_grad) for g in grads]))


def signed_zeros(rng, array, share=0.3):
    """Set a random share of ``array``'s entries to +0.0 or -0.0, in place."""
    mask = rng.random(array.shape) < share
    array[mask] = rng.choice([-0.0, 0.0], size=int(mask.sum()))
    return array


@st.composite
def federations(draw):
    """A small federation config and its blob dataset, with or without a hidden layer."""
    n_classes = draw(st.integers(2, 8))
    d_in = draw(st.integers(n_classes, 24))
    hidden = draw(st.one_of(st.none(), st.integers(n_classes, 48)))
    n_clients = draw(st.integers(1, 5))
    server_rank = draw(st.integers(1, n_classes))
    ranks = tuple(draw(st.integers(1, server_rank)) for _ in range(n_clients))
    method = draw(st.sampled_from(["ilora", "ilora_s"]))
    config = FederationConfig(
        n_clients=n_clients,
        client_ranks=ranks,
        server_rank=server_rank,
        method=method,
        local_epochs=draw(st.integers(1, 2)),
        batch_size=draw(st.integers(4, 32)),
        lr=0.05,
        weight_decay=draw(st.sampled_from([0.0, 0.01])),
        dirichlet_alpha=draw(st.sampled_from([0.1, 0.5, 5.0])),
        hidden_dim=hidden,
        data_seed=draw(st.integers(0, 2**16)),
        partition_seed=draw(st.integers(0, 2**16)),
        train_seed=draw(st.integers(0, 2**16)),
    )
    spc = draw(st.integers(max(2, n_clients), 24))
    dataset = generate_blobs(n_classes, spc, d_in, 0.4, config.data_seed)
    return config, dataset


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
        q, r = leading_qr(m, rank)
        want_q, want_r, _ = leading_qr_reference(m, rank)
        assert same_bits(q, want_q) and same_bits(r, want_r)

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

    @settings(max_examples=100, deadline=None)
    @given(
        server_rank=st.integers(1, 6),
        extra=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        population=st.lists(st.integers(1, 6), min_size=2, max_size=9),
        zeros=st.sampled_from(["none", "signed", "all"]),
        seed=st.integers(0, 2**31),
    )
    def test_server_control_aggregate_at_client_rank(
        self, server_rank, extra, population, zeros, seed
    ):
        # a random rank mix, of which a strict subset is sampled (participation
        # < 1): the unpadded fold against the zero-padded sum, A and B sides
        rng = np.random.default_rng(seed)
        d, k = server_rank + extra[0], server_rank + extra[1]
        ranks = [min(r, server_rank) for r in population]
        sampled = rng.choice(len(ranks), size=int(rng.integers(1, len(ranks))), replace=False)
        for axis, control_shape in ((0, (server_rank, k)), (1, (d, server_rank))):
            global_c = rng.standard_normal(control_shape)
            shapes = [(ranks[i], k) if axis == 0 else (d, ranks[i]) for i in sampled]
            deltas = [rng.standard_normal(shape) for shape in shapes]
            if zeros == "signed":
                for array in (global_c, *deltas):
                    signed_zeros(rng, array)
            elif zeros == "all":
                global_c[:] = -0.0
                deltas = [np.full(shape, -0.0) for shape in shapes]
            padded = [pad_delta(delta, server_rank, axis=axis) for delta in deltas]
            before = global_c.copy()
            got = server_control_aggregate(global_c, deltas)
            assert same_bits(got, server_control_aggregate_reference(before, padded))
            assert same_bits(global_c, before)


    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
        data=st.data(),
        weighted=st.booleans(),
        zeros=st.sampled_from(["none", "signed", "all"]),
        seed=st.integers(0, 2**31),
    )
    def test_leading_sum(self, shape, data, weighted, zeros, seed):
        # full-shape and leading-block terms, against their zero-padded sum
        rng = np.random.default_rng(seed)
        n_terms = data.draw(st.integers(1, 6))
        shapes = [
            tuple(data.draw(st.sampled_from([n, int(rng.integers(1, n + 1))])) for n in shape)
            for _ in range(n_terms)
        ]
        terms = [rng.standard_normal(term_shape) for term_shape in shapes]
        if zeros == "signed":
            terms = [signed_zeros(rng, term) for term in terms]
        elif zeros == "all":
            terms = [np.full(term_shape, -0.0) for term_shape in shapes]
        weights = None
        if weighted:
            weights = rng.uniform(-2.0, 2.0, size=n_terms)
            weights[rng.random(n_terms) < 0.2] = rng.choice([-0.0, 0.0, 1.0])
        before = [term.copy() for term in terms]
        got = leading_sum(shape, terms, weights)
        assert same_bits(got, leading_sum_reference(shape, terms, weights))
        assert all(same_bits(term, old) for term, old in zip(terms, before))

    def test_leading_sum_rejects_a_term_that_does_not_fit(self):
        assert same_bits(leading_sum((3, 4), []), np.zeros((3, 4)))
        for shape in ((4, 4), (3, 5), (4,), (1, 2, 4)):
            for weights in (None, [1.0, 1.0]):
                with pytest.raises(ShapeError):
                    leading_sum((3, 4), [np.ones((2, 4)), np.zeros(shape)], weights)

    @settings(max_examples=100, deadline=None)
    @given(
        ranks=st.lists(st.integers(1, 6), min_size=1, max_size=7),
        extra=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2)),
        zeros=st.sampled_from(["none", "signed"]),
        seed=st.integers(0, 2**31),
    )
    def test_factor_means(self, ranks, extra, zeros, seed):
        # mixed ranks in shuffled arrival order, scalings other than 1
        rng = np.random.default_rng(seed)
        d, k = max(ranks) + extra[0], max(ranks) + extra[1]
        updates = []
        for cid in rng.permutation(len(ranks)):
            r = ranks[cid]
            b, a = rng.standard_normal((d, r)), rng.standard_normal((r, k))
            if zeros == "signed":
                signed_zeros(rng, b)
                signed_zeros(rng, a)
            scaling = float(rng.choice([16.0 / r, rng.uniform(0.25, 4.0)]))
            adapter = LoraAdapter(b, a, r, scaling)
            updates.append(ClientUpdate(int(cid), adapter, int(rng.integers(1, 200))))
        rank = max(ranks) + extra[2]
        b_mean, a_mean = factor_means(updates, rank)
        want_b, want_a = factor_means_reference(updates, rank)
        assert same_bits(b_mean, want_b) and same_bits(a_mean, want_a)


class TestClientPathBitIdentical:
    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from([(1, 1), (3, 2), (7, 5), (64, 9), (1, 300)]),
        steps=st.integers(1, 40),
        lr=st.sampled_from([1e-4, 0.02, 0.5]),
        weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
        seed=st.integers(0, 2**31),
    )
    def test_adamw_step_out(self, shape, steps, lr, weight_decay, seed):
        # ±0.0 in the parameter and the gradients: weight decay's product and
        # the final subtraction must keep the reference's sign of zero
        rng = np.random.default_rng(seed)
        param = signed_zeros(rng, rng.standard_normal(shape))
        want, fresh = param.copy(), param.copy()
        states = [fresh_adamw_state(shape, lr=lr, weight_decay=weight_decay) for _ in range(3)]
        for _ in range(steps):
            grad = signed_zeros(rng, rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3]))
            grad_before = grad.copy()
            got, _ = adamw_step(param, grad, states[0], out=param)
            assert got is param
            fresh_next, _ = adamw_step(fresh, grad, states[1])
            assert not np.shares_memory(fresh_next, fresh)
            fresh = fresh_next
            want = adamw_step_reference(want, grad, states[2])
            assert same_bits(grad, grad_before)
            assert same_bits(param, want) and same_bits(fresh, want)
            for state in states[:2]:
                assert same_bits(state.m, states[2].m) and same_bits(state.v, states[2].v)
                assert state.step == states[2].step

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 40),
        k=st.integers(1, 12),
        data=st.data(),
        steps=st.integers(1, 25),
        weight_decay=st.sampled_from([0.0, 0.05]),
        seed=st.integers(0, 2**31),
    )
    def test_packed_adamw_matches_three_states(self, d, k, data, steps, weight_decay, seed):
        rank = data.draw(st.integers(1, min(d, k)))
        rng = np.random.default_rng(seed)
        params = rng.standard_normal(d * rank + rank * k + k)
        views = federation._packed_views(params, d, k, rank)
        assert all(np.shares_memory(view, params) for view in views)
        assert [view.shape for view in views] == [(d, rank), (rank, k), (1, k)]
        separate = [view.copy() for view in views]
        packed_state = fresh_adamw_state(params.shape, lr=0.01, weight_decay=weight_decay)
        states = [
            fresh_adamw_state(x.shape, lr=0.01, weight_decay=weight_decay) for x in separate
        ]
        grads = np.empty_like(params)
        grad_views = federation._packed_views(grads, d, k, rank)
        for _ in range(steps):
            for view in grad_views:
                view[...] = signed_zeros(rng, rng.standard_normal(view.shape))
            adamw_step(params, grads, packed_state, out=params)
            separate = [
                adamw_step_reference(x, g, state)
                for x, g, state in zip(separate, grad_views, states)
            ]
            for view, want in zip(views, separate):
                assert same_bits(view, want)

    @settings(max_examples=40, deadline=None)
    @given(case=federations(), rounds_before=st.integers(0, 2))
    def test_packed_client_step_matches_three_states(self, case, rounds_before):
        config, dataset = case
        server, clients = init_federation(config, dataset)
        for _ in range(rounds_before):
            server, _ = run_round(server, clients, config)
        t = server.round_index + 1
        for client in clients:
            b, a, bias, c_a, c_b, deltas = train_client_reference(client, server, config, t)
            update = federation._train_client(client, server, config, t)
            assert same_bits(client.adapter.b_factor, b)
            assert same_bits(client.adapter.a_factor, a)
            assert same_bits(client.bias, bias)
            assert same_bits(update.adapter.b_factor, b)
            assert same_bits(update.adapter.a_factor, a)
            assert same_bits(client.controls.c_a, c_a)
            assert same_bits(client.controls.c_b, c_b)
            if config.method == "ilora_s":
                assert all(same_bits(x, y) for x, y in zip(update.control_deltas, deltas))
            else:
                assert update.control_deltas is None

    @settings(max_examples=150, deadline=None)
    @given(
        class_counts=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        n_clients=st.integers(1, 20),
        alpha=st.sampled_from([1e-3, 0.05, 0.3, 1.0, 100.0]),
        seed=st.integers(0, 2**31),
    )
    def test_dirichlet_partition(self, class_counts, n_clients, alpha, seed):
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(np.arange(len(class_counts)), class_counts))
        n_clients = min(n_clients, labels.shape[0])
        ds = Dataset(np.zeros((labels.shape[0], 1)), labels, len(class_counts))
        plan = dirichlet_partition(ds, n_clients, alpha, seed)
        want, counts, _ = dirichlet_partition_reference(
            labels, len(class_counts), n_clients, alpha, seed
        )
        assert same_bits(plan.assignments, want)
        assert same_bits(plan.client_counts, counts)

    def test_dirichlet_partition_through_the_empty_client_repair(self):
        ds = generate_blobs(3, 20, 3, 0.3, 5)
        plan = dirichlet_partition(ds, 12, 1e-3, 9)
        want, counts, repaired = dirichlet_partition_reference(ds.labels, 3, 12, 1e-3, 9)
        assert repaired
        assert same_bits(plan.assignments, want)
        assert same_bits(plan.client_counts, counts)

    @settings(max_examples=60, deadline=None)
    @given(
        n_classes=st.integers(2, 8),
        spc=st.integers(4, 40),
        d_in=st.integers(8, 40),
        hidden=st.one_of(st.none(), st.integers(8, 160)),
        n_clients=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_client_order_features(self, n_classes, spc, d_in, hidden, n_clients, seed):
        d_in = max(d_in, n_classes)
        if hidden is not None:
            hidden = max(hidden, n_classes)
        config = FederationConfig(
            n_clients=n_clients, client_ranks=(1,) * n_clients, server_rank=1,
            hidden_dim=hidden, dirichlet_alpha=0.5,
            data_seed=seed, partition_seed=seed + 1, train_seed=seed + 2,
        )
        ds = generate_blobs(n_classes, spc, d_in, 0.3, seed)
        plan = dirichlet_partition(ds, n_clients, 0.5, seed + 1)
        server, clients = init_federation(config, ds, plan)
        # the reference order: map every sample, then gather the shards in client order
        order = np.concatenate([plan.client_indices(c) for c in range(n_clients)])
        features = ds.features
        if hidden is not None:
            features = np.tanh(ds.features @ federation._hidden_weight(d_in, hidden, seed + 2))
        pooled_features, pooled_labels = server.pooled_train
        assert same_bits(pooled_features, features[order])
        assert same_bits(pooled_labels, ds.labels[order])
        for client in clients:
            idx = plan.client_indices(client.client_id)
            assert same_bits(client.features, features[idx])

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 60),
        cols=st.integers(1, 5),
        fixed=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**31),
    )
    def test_permute_rows(self, n, cols, fixed, seed):
        # random cycles, with a share of the rows left in place
        rng = np.random.default_rng(seed)
        order = np.arange(n)
        moved = np.flatnonzero(rng.random(n) >= fixed)
        order[moved] = rng.permutation(moved)
        array = rng.standard_normal((n, cols))
        want = array[order]
        permute_rows(array, order)
        assert same_bits(array, want)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 80),
        d=st.integers(1, 48),
        k=st.integers(1, 24),
        data=st.data(),
        scaling=st.sampled_from([1.0, 0.37, 16.0]),
        seed=st.integers(0, 2**31),
    )
    def test_factored_head(self, n, d, k, data, scaling, seed):
        rank = data.draw(st.integers(1, min(d, k)))
        rng = np.random.default_rng(seed)
        base_logits = rng.standard_normal((n, k))
        features = rng.standard_normal((n, d))
        b = rng.standard_normal((d, rank))
        a = signed_zeros(rng, rng.standard_normal((rank, k)))
        bias = rng.standard_normal((1, k))
        labels = rng.integers(0, k, size=n)
        want_logits, _ = factored_logits_reference(base_logits, features, b, a, scaling, bias)
        assert same_bits(factored_logits(base_logits, features, b, a, scaling, bias), want_logits)
        want = factored_loss_and_grads_reference(base_logits, features, b, a, scaling, bias, labels)
        got = factored_loss_and_grads(base_logits, features, b, a, scaling, bias, labels)
        assert got[0] == want[0]
        assert all(same_bits(x, y) for x, y in zip(got[1:], want[1:]))
        # written into views of one packed gradient buffer
        grads = np.full(d * rank + rank * k + k, np.nan)
        views = federation._packed_views(grads, d, k, rank)
        packed = factored_loss_and_grads(base_logits, features, b, a, scaling, bias, labels, views)
        assert packed[0] == want[0]
        assert all(x is view for x, view in zip(packed[1:], views))
        assert all(same_bits(view, y) for view, y in zip(views, want[1:]))

    @settings(max_examples=30, deadline=None)
    @given(case=federations(), rounds_before=st.integers(0, 2))
    def test_gradient_heterogeneity_and_drift(self, case, rounds_before):
        config, dataset = case
        server, clients = init_federation(config, dataset)
        for _ in range(rounds_before):
            server, _ = run_round(server, clients, config)
        want = gradient_heterogeneity_reference(server, clients)
        live = [(c.adapter.b_factor, c.adapter.a_factor, c.bias) for c in clients]
        assert federation._gradient_heterogeneity(server, clients, live) == want
        # every client is sampled, so the round's drift covers all of them
        server, metrics = run_round(server, clients, config)
        drift = float(
            np.mean([frobenius_norm(c.effective_weight() - server.global_model) for c in clients])
        )
        assert metrics.drift == drift
