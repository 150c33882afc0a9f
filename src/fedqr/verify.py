"""Named verification suites for the simulator's core guarantees.

Each check re-derives its expected values from an independent oracle
(term-by-term sums, finite differences, a centralized training run, the
committed drift-study reference) and reports a measured pass/fail. The CLI
``verify`` subcommand and the acceptance test module both dispatch through
``run_verify``.
"""

from __future__ import annotations

import copy
import importlib.resources
import json
import math
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .adapter import BaseWeight, LoraAdapter, effective_weight
from .aggregation import (
    ClientUpdate,
    baseline_full_stack,
    concat_reconstruct,
    factor_means,
    personalize,
    qr_compress,
)
from .config import ExperimentSpec, experiment_seeds, preset_spec
from .data import generate_blobs
from .federation import (
    METHOD_TRAITS,
    METHODS,
    FederationConfig,
    RoundContext,
    _sample,
    account_communication,
    init_federation,
    logit_blocks,
    run_federation,
    run_round,
    sampled_count,
)
from .linalg import BasisError, _halves, frobenius_norm, low_rank_update, subspace_residual, thin_qr
from .model import factored_loss_and_grads, model_features
from .oracle import factor_gradients, head_loss_and_grads

DRIFT_ORACLE_RESOURCE = "drift_oracle.json"

# accuracy floor for the per-seed drift comparison: half a point
ACCURACY_SLACK = 0.005


class UnknownSuiteError(ValueError):
    """The requested verification suite does not exist."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


# largest client rank of the random exactness updates
_RANDOM_MAX_RANK = 6


def _random_updates(rng, n_clients, d, k):
    updates = []
    for cid in range(n_clients):
        r = int(rng.integers(1, min(_RANDOM_MAX_RANK, d, k) + 1))
        updates.append(
            ClientUpdate(
                client_id=cid,
                adapter=LoraAdapter(
                    rng.standard_normal((d, r)),
                    rng.standard_normal((r, k)),
                    r,
                    scaling=1.0,
                ),
                sample_count=int(rng.integers(1, 50)),
            )
        )
    return updates


def _weighted_sum(updates) -> np.ndarray:
    """The fusion's dense oracle: each client's B @ A, summed by sample weight."""
    counts = np.array([u.sample_count for u in updates], dtype=np.float64)
    weights = counts / counts.sum()
    return sum(w * (u.adapter.b_factor @ u.adapter.a_factor) for u, w in zip(updates, weights))


def check_exact_reconstruction() -> CheckResult:
    """Concatenated product equals the weighted sum of client updates."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n_clients = int(rng.integers(2, 9))
        d = int(rng.integers(8, 33))
        k = int(rng.integers(8, 33))
        updates = _random_updates(rng, n_clients, d, k)
        reconstructed = concat_reconstruct(updates)
        expected = _weighted_sum(updates)
        err = frobenius_norm(reconstructed - expected) / (1.0 + frobenius_norm(expected))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-12 and elapsed < 5.0
    return CheckResult(
        "exact_heterogeneous_aggregation",
        passed,
        f"worst normalized error {worst:.3e} (tol 1e-12), {elapsed:.2f}s (limit 5s)",
    )


def check_truncation_identity() -> CheckResult:
    """qr_compress against the dense thin-QR oracle, on every call.

    The truncation error must equal the residual ||delta - B_s A_s||_F and the
    dense factorization's trailing-block norm ||R[r_s:, :]||_F. Every
    personalized slice must agree with the dense factors' leading slices:
    R's rows always, Q's columns up to the rank of delta, beyond which the
    dense Q columns span roundoff and are not unique.
    """
    rng = np.random.default_rng(43)
    worst = 0.0
    lossless_worst = 0.0
    slice_worst = 0.0
    for _ in range(100):
        d = int(rng.integers(8, 25))
        k = int(rng.integers(8, 25))
        inner = int(rng.integers(1, min(d, k) + 1))
        delta = rng.standard_normal((d, inner)) @ rng.standard_normal((inner, k))
        r_s = int(rng.integers(1, min(d, k) + 1))
        result = qr_compress(delta, r_s)
        dense_q, dense_r = thin_qr(delta)
        s_adapter = result.server_adapter
        residual = frobenius_norm(delta - s_adapter.b_factor @ s_adapter.a_factor)
        dense_tail = frobenius_norm(dense_r[r_s:, :])
        worst = max(
            worst,
            abs(residual - result.truncation_error),
            abs(dense_tail - result.truncation_error),
        )
        if r_s >= inner:  # rank(delta) <= inner <= r_s: compression is lossless
            lossless_worst = max(lossless_worst, result.truncation_error)
        scale = 1.0 + frobenius_norm(delta)
        for rank in range(1, r_s + 1):
            adapter = personalize(result, rank)
            gap = np.max(np.abs(adapter.a_factor - dense_r[:rank, :])) / scale
            if rank <= inner:
                gap = max(gap, np.max(np.abs(adapter.b_factor - dense_q[:, :rank])))
            slice_worst = max(slice_worst, gap)
    passed = worst <= 1e-9 and lossless_worst <= 1e-10 and slice_worst <= 1e-10
    return CheckResult(
        "truncation_identity",
        passed,
        f"worst identity gap {worst:.3e} (tol 1e-9), "
        f"worst lossless error {lossless_worst:.3e} (tol 1e-10), "
        f"worst Q/R slice gap to dense QR {slice_worst:.3e} (tol 1e-10)",
    )


def check_split_products() -> CheckResult:
    """The products ``linalg.product_into`` cuts keep the bits of the whole product.

    At d = k = 512 with 8 clients of rank 8/16 and server rank 80, every
    product below is one that ``linalg._halves`` cuts, which the check
    asserts on the operands each call passes to ``product_into``, so that it
    cannot stop reaching the split: the stack product, ``qr_compress``'s
    projection and trailing residual, base + g * B * A, a hidden map of
    512 samples x 128 inputs x 512 units, and the frozen logits
    ``federation.logit_blocks`` forms from that map. That each call still
    goes through ``product_into`` is pinned by a test counting one helper
    thread per product.
    """
    rng = np.random.default_rng(44)
    d = k = 512
    server_rank = 80
    updates = [
        ClientUpdate(
            cid,
            LoraAdapter(rng.standard_normal((d, r)), rng.standard_normal((r, k)), r, 1.0),
            int(rng.integers(1, 50)),
        )
        for cid, r in enumerate((8, 16) * 4)
    ]
    b_stack, a_stack = baseline_full_stack(updates)
    inputs = rng.standard_normal((512, 128))
    hidden = rng.standard_normal((128, 512)) / np.sqrt(128)
    base = rng.standard_normal((d, k))

    reconstructed = concat_reconstruct(updates)
    stack_same = reconstructed.tobytes() == (b_stack @ a_stack).tobytes()
    expected = _weighted_sum(updates)
    sum_err = frobenius_norm(reconstructed - expected) / (1.0 + frobenius_norm(expected))
    result = qr_compress(reconstructed, server_rank)
    _, dense_r = thin_qr(reconstructed)
    tail_gap = abs(frobenius_norm(dense_r[server_rank:, :]) - result.truncation_error)
    update_same = (
        low_rank_update(base, result.q, result.r, 0.7).tobytes()
        == (base + 0.7 * (result.q @ result.r)).tobytes()
    )
    features = model_features(inputs, hidden)
    features_same = features.tobytes() == np.tanh(inputs @ hidden).tobytes()
    logits = logit_blocks(base, features)[0]
    logits_same = logits.tobytes() == np.matmul(features, base).tobytes()
    operands = [
        (b_stack, a_stack),
        (result.q.T, reconstructed[:, server_rank:]),
        (result.q, result.r[:, server_rank:]),
        (result.q, result.r),
        (inputs, hidden),
        (features, base),
    ]
    uncut = [(a, b) for a, b in operands if _halves(*a.shape, b.shape[1]) is None]
    passed = (
        not uncut and stack_same and sum_err <= 1e-12 and tail_gap <= 1e-9
        and update_same and features_same and logits_same
    )
    same = {True: "bit-identical", False: "DIFFERS"}
    return CheckResult(
        "split_products",
        passed,
        f"{len(operands) - len(uncut)} of {len(operands)} products cut; stack product "
        f"{same[stack_same]}, error to the weighted sum {sum_err:.3e} (tol 1e-12); "
        f"truncation gap to dense QR {tail_gap:.3e} (tol 1e-9); base + g*B*A "
        f"{same[update_same]}; tanh map {same[features_same]}; frozen logits "
        f"{same[logits_same]}",
    )


def check_bias_witness() -> CheckResult:
    """The fixed two-client instance where factor averaging provably biases."""
    updates = [
        ClientUpdate(0, LoraAdapter(np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]), 1, 1.0), 10),
        ClientUpdate(1, LoraAdapter(np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]), 1, 1.0), 10),
    ]
    correct = concat_reconstruct(updates)
    expected_correct = np.array([[0.5, 0.0], [0.0, 0.5]])
    exact_err = frobenius_norm(correct - expected_correct)
    b_mean, a_mean = factor_means(updates)
    averaged = b_mean @ a_mean
    bias = frobenius_norm(averaged - correct)
    passed = abs(bias - 0.5) <= 1e-12 and exact_err <= 1e-12
    return CheckResult(
        "factor_averaging_bias_witness",
        passed,
        f"baseline bias {bias!r} (expected 0.5 within 1e-12), "
        f"exact-route error {exact_err:.3e} (tol 1e-12)",
    )


def round_snapshot(server, clients):
    """The ``before`` of ``round_invariants``: a deep copy of the state, taken before a round."""
    return copy.deepcopy((server, clients))


def _state_bits(client) -> list[bytes]:
    """A client's params, AdamW state and controls, as bytes."""
    opt, controls = client.opt_state, client.controls
    state = (client.params, opt.m, opt.v, opt.step, controls.c_a, controls.c_b)
    return [np.asarray(x).tobytes() for x in state]


# tolerance of the bias and control folds, relative to 1 + the largest entry
# they fold: they are re-derived by other sums than the round's, e.g. a
# client's control delta as its new control minus its old
FOLD_TOL = 1e-12


def _fold_problems(name, got, want, *folded) -> list[str]:
    gap = float(np.max(np.abs(got - want)))
    scale = max(float(np.max(np.abs(a), initial=0.0)) for a in (want, *folded))
    return [] if gap <= FOLD_TOL * (1.0 + scale) else [f"{name} fold off by {gap:.3e}"]


def round_invariants(before, after, config, metrics, gaps=None) -> list[str]:
    """The protocol's per-round invariants, checked on one round; returns the violations.

    ``before`` is ``round_snapshot`` of the ``(server, clients)`` that
    ``run_round`` started from, ``after`` the pair it left and ``metrics``
    its record. An empty list certifies that:

    * the sampled clients, ``sampled_count`` of them (``_sample``'s draw),
      are exactly those whose optimizer stepped, and every other client's
      parameters, AdamW state and controls are unchanged bit for bit;
    * ``(bytes_down, bytes_up)`` equals ``account_communication``; the stack
      that a stack method ships is priced from the previous broadcast pair;
    * the global model is ``low_rank_update(base, B_g, A_g, global_scale)``
      bit for bit;
    * a QR result is kept exactly under QR and stack fusion. Each client
      rank's ``personalize`` slice of it lies in span(Q) within 1e-10, and its
      truncation error equals ||stack - Q R||_F within 1e-9 (1 + ||stack||_F),
      the stack product rebuilt from the sampled clients' uploads. The record
      reports that error under QR fusion and 0 otherwise;
    * the global bias is the sample-weighted mean of the sampled clients'
      biases. A control method's global controls move by the mean, over the
      sampled clients, of the change in their controls, each folded into the
      leading block. Both hold within ``FOLD_TOL``; a method without controls
      moves no control at all;
    * the record's metric fields are finite and in range.

    ``gaps``, when given, keeps the largest slice residual under "subspace".
    """
    (old_server, old_clients), (server, clients) = before, after
    traits = METHOD_TRAITS[config.method]
    problems = []
    t = old_server.round_index + 1
    drawn = {id(c) for c in _sample(clients, config, t)}
    sampled = [i for i, c in enumerate(clients) if id(c) in drawn]
    pairs = list(zip(old_clients, clients))
    stepped = [i for i, (old, new) in enumerate(pairs) if old.opt_state.step < new.opt_state.step]
    if len(sampled) != sampled_count(config.n_clients, config.participation) or stepped != sampled:
        problems.append(f"clients {stepped} stepped, clients {sampled} were sampled")
    for i, (old, new) in enumerate(pairs):
        if i not in sampled and _state_bits(old) != _state_bits(new):
            problems.append(f"unsampled client {i} changed")
    group = [clients[i] for i in sampled]

    d, k = server.base_frozen.shape
    shipped = old_server.broadcast_factors  # the stack a stack method ships this round
    ctx = RoundContext(tuple(c.rank for c in group), d, k, first_round=t == 1,
                       shipped_stack_rank=None if shipped is None else shipped[0].shape[1])
    analytic = account_communication(config, ctx)
    if (metrics.bytes_down, metrics.bytes_up) != analytic:
        problems.append(f"bytes {(metrics.bytes_down, metrics.bytes_up)} vs analytic {analytic}")

    want = low_rank_update(server.base_frozen, *server.broadcast_factors, config.global_scale)
    if server.global_model.tobytes() != want.tobytes():
        problems.append("global model is not base + global_scale * B_g A_g")

    result = server.last_result
    truncation = 0.0
    if (result is None) != (traits.fusion == "mean"):
        problems.append(f"QR result {result is not None} under {traits.fusion} fusion")
    elif result is not None:
        for rank in sorted(set(config.client_ranks)):
            try:
                residual = subspace_residual(result.q, personalize(result, rank).b_factor)
            except BasisError as exc:
                residual = math.inf
                problems.append(f"Q: {exc}")
            if gaps is not None:
                gaps["subspace"] = max(gaps.get("subspace", 0.0), residual)
            if residual > 1e-10:
                problems.append(f"rank-{rank} slice leaves span(Q) by {residual:.3e} (tol 1e-10)")
        uploads = [ClientUpdate(c.client_id, c.adapter, c.n_samples) for c in group]
        stack = concat_reconstruct(uploads)
        gap = abs(frobenius_norm(stack - result.q @ result.r) - result.truncation_error)
        if gap > 1e-9 * (1.0 + frobenius_norm(stack)):
            problems.append(f"truncation identity gap {gap:.3e}")
        if traits.fusion == "qr":
            truncation = result.truncation_error
    if metrics.truncation_error != truncation:
        problems.append(f"truncation_error {metrics.truncation_error!r}, kept {truncation!r}")

    counts = [c.n_samples for c in group]
    biases = np.concatenate([c.bias for c in group])
    mean_bias = np.average(biases, axis=0, weights=counts, keepdims=True)
    problems += _fold_problems("bias", server.global_bias, mean_bias, biases)
    for side in ("c_a", "c_b"):
        start, got = (getattr(s.global_controls, side) for s in (old_server, server))
        olds = [getattr(old_clients[i].controls, side) for i in sampled]
        news = [getattr(clients[i].controls, side) for i in sampled]
        if not traits.controls:
            if any(a.tobytes() != b.tobytes() for a, b in zip([start, *olds], [got, *news])):
                problems.append(f"{side} moved under a method without controls")
            continue
        moved = np.zeros_like(start)
        for old, new in zip(olds, news):
            moved[: new.shape[0], : new.shape[1]] += new - old
        problems += _fold_problems(side, got, start + moved / len(sampled), *olds, *news)

    ranges = {"train_loss": math.inf, "truncation_error": math.inf, "drift": math.inf,
              "grad_heterogeneity": math.inf, "train_accuracy": 1.0}
    if server.heldout is not None:
        ranges["heldout_accuracy"] = 1.0
    elif metrics.heldout_accuracy is not None:
        problems.append("held-out accuracy without a held-out split")
    for name, top in ranges.items():
        value = getattr(metrics, name)
        if value is None or not (0.0 <= value <= top and math.isfinite(value)):
            problems.append(f"{name} {value!r} outside [0, {top}]")
    if not metrics.round == server.round_index == t:
        problems.append(f"record of round {metrics.round}, server at {server.round_index}, not {t}")
    return problems


def _checked_rounds(config, dataset, gaps=None):
    """Run ``config.rounds`` rounds; yields each one's record and ``round_invariants``."""
    server, clients = init_federation(config, dataset)
    for _ in range(config.rounds):
        before = round_snapshot(server, clients)
        server, metrics = run_round(server, clients, config)
        yield metrics, round_invariants(before, (server, clients), config, metrics, gaps)


def check_subspace_preservation() -> CheckResult:
    """Every personalized slice stays inside the aggregated QR column space.

    Runs ``round_invariants`` on every round, which also checks the others.
    """
    config = FederationConfig(
        n_clients=4,
        client_ranks=(1, 2, 3, 4),
        server_rank=4,
        method="ilora",
        local_epochs=1,
        batch_size=16,
        rounds=10,
        lr=0.02,
        dirichlet_alpha=0.5,
        lora_scaling=1.0,
        data_seed=7,
        partition_seed=17,
        train_seed=27,
    )
    dataset = generate_blobs(8, 30, 16, 0.3, config.data_seed)
    gaps = {"subspace": 0.0}
    problems = [p for _, found in _checked_rounds(config, dataset, gaps) for p in found]
    calls = config.rounds * len(set(config.client_ranks))
    detail = (
        f"worst residual {gaps['subspace']:.3e} over {calls} personalize calls in 10 rounds "
        f"(tol 1e-10)"
    )
    return CheckResult("subspace_preservation", not problems, "; ".join([detail, *problems[:3]]))


def _relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def check_gradient_correctness() -> CheckResult:
    """Factor, full-weight and factored-head gradients against central differences."""
    rng = np.random.default_rng(44)
    start = time.perf_counter()
    h = 1e-5
    worst_factor = 0.0
    # factor gradients, quadratic loss L(W) = 0.5 ||W - T||_F^2
    for _ in range(50):
        d = int(rng.integers(4, 10))
        k = int(rng.integers(4, 10))
        r = int(rng.integers(1, min(d, k) + 1))
        scaling = float(rng.uniform(0.5, 3.0))
        adapter = LoraAdapter(
            rng.standard_normal((d, r)), rng.standard_normal((r, k)), r, scaling
        )
        base = BaseWeight(frozen=rng.standard_normal((d, k)))
        target = rng.standard_normal((d, k))

        def loss_of(adp):
            return 0.5 * frobenius_norm(effective_weight(base, adp) - target) ** 2

        weight_grad = effective_weight(base, adapter) - target
        grad_b, grad_a = factor_gradients(adapter, weight_grad)
        for grad, attr in ((grad_b, "b_factor"), (grad_a, "a_factor")):
            mat = getattr(adapter, attr)
            for _ in range(3):
                i = int(rng.integers(mat.shape[0]))
                j = int(rng.integers(mat.shape[1]))
                bumped = adapter.copy()
                getattr(bumped, attr)[i, j] += h
                dipped = adapter.copy()
                getattr(dipped, attr)[i, j] -= h
                fd = (loss_of(bumped) - loss_of(dipped)) / (2 * h)
                worst_factor = max(worst_factor, _relative_error(grad[i, j], fd))

    # full-weight gradient of the softmax head's cross-entropy
    worst_weight = 0.0
    for _ in range(50):
        d = int(rng.integers(4, 10))
        k = int(rng.integers(3, 8))
        n = int(rng.integers(3, 12))
        weight = 0.5 * rng.standard_normal((d, k))
        bias = 0.1 * rng.standard_normal((1, k))
        features = rng.standard_normal((n, d))
        labels = rng.integers(0, k, size=n)
        _, weight_grad, _ = head_loss_and_grads(weight, bias, features, labels)
        for _ in range(20):
            i = int(rng.integers(d))
            j = int(rng.integers(k))
            weight[i, j] += h
            up, _, _ = head_loss_and_grads(weight, bias, features, labels)
            weight[i, j] -= 2 * h
            down, _, _ = head_loss_and_grads(weight, bias, features, labels)
            weight[i, j] += h
            fd = (up - down) / (2 * h)
            worst_weight = max(worst_weight, _relative_error(weight_grad[i, j], fd))

    # B and A gradients of the factored softmax head, the training path
    worst_factored = 0.0
    for _ in range(50):
        d = int(rng.integers(4, 10))
        k = int(rng.integers(3, 8))
        r = int(rng.integers(1, min(d, k) + 1))
        n = int(rng.integers(3, 12))
        scaling = float(rng.uniform(0.5, 3.0))
        features = rng.standard_normal((n, d))
        base_logits = features @ (0.5 * rng.standard_normal((d, k)))
        b_factor = 0.5 * rng.standard_normal((d, r))
        a_factor = 0.5 * rng.standard_normal((r, k))
        bias = 0.1 * rng.standard_normal((1, k))
        labels = rng.integers(0, k, size=n)
        # the factors are bumped in place, so these arguments always see them
        args = (base_logits, features, b_factor, a_factor, scaling, bias, labels)
        _, grad_b, grad_a, _ = factored_loss_and_grads(*args)
        for grad, mat in ((grad_b, b_factor), (grad_a, a_factor)):
            for _ in range(10):
                i = int(rng.integers(mat.shape[0]))
                j = int(rng.integers(mat.shape[1]))
                mat[i, j] += h
                up = factored_loss_and_grads(*args)[0]
                mat[i, j] -= 2 * h
                down = factored_loss_and_grads(*args)[0]
                mat[i, j] += h
                fd = (up - down) / (2 * h)
                worst_factored = max(worst_factored, _relative_error(grad[i, j], fd))
    elapsed = time.perf_counter() - start
    passed = (
        worst_factor <= 1e-5
        and worst_weight <= 1e-5
        and worst_factored <= 1e-5
        and elapsed < 10.0
    )
    return CheckResult(
        "gradient_correctness",
        passed,
        f"worst relative error: factors {worst_factor:.3e}, weights {worst_weight:.3e}, "
        f"factored head B/A {worst_factored:.3e} (tol 1e-5), {elapsed:.2f}s (limit 10s)",
    )


def _canonical_spec(method: str, seed: int, alpha: float | None = None) -> ExperimentSpec:
    """The canonical-noniid preset at one experiment seed (the drift-oracle scheme)."""
    spec = preset_spec("canonical-noniid")
    spec.federation = replace(spec.federation, method=method, **experiment_seeds(seed))
    if alpha is not None:
        spec.federation = replace(spec.federation, dirichlet_alpha=alpha)
    return spec


def check_first_round_equivalence() -> CheckResult:
    """With zero controls, one drift-corrected round is bit-identical to plain.

    Controls are refreshed once per local epoch, so they are guaranteed zero
    for the whole first round only with a single local epoch; from the second
    epoch on, nonzero local controls are the mechanism working as intended.
    """
    states = {}
    for method in ("ilora", "ilora_s"):
        spec = _canonical_spec(method, seed=1)
        config = replace(spec.federation, rounds=1, local_epochs=1)
        train, heldout = spec.build_datasets()
        server, clients = init_federation(config, train, eval_dataset=heldout)
        server, _ = run_round(server, clients, config)
        states[method] = (server, clients)
    server_a, clients_a = states["ilora"]
    server_b, clients_b = states["ilora_s"]
    same = server_a.global_model.tobytes() == server_b.global_model.tobytes()
    same &= server_a.global_bias.tobytes() == server_b.global_bias.tobytes()
    for ca, cb in zip(clients_a, clients_b):
        same &= ca.adapter.b_factor.tobytes() == cb.adapter.b_factor.tobytes()
        same &= ca.adapter.a_factor.tobytes() == cb.adapter.a_factor.tobytes()
        same &= ca.bias.tobytes() == cb.bias.tobytes()
    return CheckResult(
        "first_round_equivalence",
        bool(same),
        "round-1 global model, client factors and biases are bit-identical"
        if same
        else "round-1 states differ between the two variants",
    )


def check_cross_method_equivalence() -> CheckResult:
    """QR compression is lossless when the server rank covers the stacked rank."""
    trajectories = {}
    for method in ("ilora", "full_stack"):
        config = FederationConfig(
            n_clients=3,
            client_ranks=(1, 2, 2),  # stacked rank 5 <= server rank
            server_rank=5,
            method=method,
            local_epochs=1,
            batch_size=16,
            rounds=5,
            lr=0.02,
            dirichlet_alpha=0.5,
            lora_scaling=1.0,
            data_seed=5,
            partition_seed=15,
            train_seed=25,
        )
        dataset = generate_blobs(8, 30, 16, 0.3, config.data_seed)
        server, clients = init_federation(config, dataset)
        models = []
        for _ in range(config.rounds):
            server, _ = run_round(server, clients, config)
            models.append(server.global_model.copy())
        trajectories[method] = models
    worst = max(
        frobenius_norm(a - b)
        for a, b in zip(trajectories["ilora"], trajectories["full_stack"])
    )
    passed = worst <= 1e-9
    return CheckResult(
        "cross_method_equivalence",
        passed,
        f"max per-round global-model gap {worst:.3e} over 5 rounds (tol 1e-9)",
    )


def canonical_final_metrics(method: str, seed: int):
    """Final-round metrics of one canonical-preset run (the drift study unit)."""
    spec = _canonical_spec(method, seed)
    train, heldout = spec.build_datasets()
    return run_federation(spec.federation, train, heldout)[-1]


def load_drift_oracle() -> dict:
    path = importlib.resources.files("fedqr.presets").joinpath(DRIFT_ORACLE_RESOURCE)
    return json.loads(path.read_text())


def check_drift_mitigation() -> CheckResult:
    """Drift-study comparison against the committed reference run.

    Median final drift and training loss must be strictly lower with control
    variates; held-out accuracy must stay within half a point on every seed
    and be strictly better in the median. The committed oracle pins the
    expected numbers so any behavioral regression is also caught.
    """
    start = time.perf_counter()
    oracle = load_drift_oracle()
    seeds = oracle["seeds"]
    fresh = {m: {"drift": [], "loss": [], "accuracy": []} for m in ("ilora", "ilora_s")}
    for seed in seeds:
        for method in ("ilora", "ilora_s"):
            final = canonical_final_metrics(method, seed)
            fresh[method]["drift"].append(final.drift)
            fresh[method]["loss"].append(final.train_loss)
            fresh[method]["accuracy"].append(final.heldout_accuracy)
    elapsed = time.perf_counter() - start

    reproduction_gap = 0.0
    for method in ("ilora", "ilora_s"):
        for key, oracle_key in (("drift", "final_drift"), ("loss", "final_train_loss"),
                                ("accuracy", "final_heldout_accuracy")):
            for got, want in zip(fresh[method][key], oracle[method][oracle_key]):
                reproduction_gap = max(reproduction_gap, _relative_error(want, got))

    med = lambda xs: statistics.median(xs)
    drift_ok = med(fresh["ilora_s"]["drift"]) < med(fresh["ilora"]["drift"])
    loss_ok = med(fresh["ilora_s"]["loss"]) < med(fresh["ilora"]["loss"])
    gaps = [
        s - i for i, s in zip(fresh["ilora"]["accuracy"], fresh["ilora_s"]["accuracy"])
    ]
    acc_floor_ok = min(gaps) >= -ACCURACY_SLACK
    acc_median_ok = med(fresh["ilora_s"]["accuracy"]) > med(fresh["ilora"]["accuracy"])
    passed = (
        reproduction_gap <= 1e-9
        and drift_ok
        and loss_ok
        and acc_floor_ok
        and acc_median_ok
        and elapsed < 120.0
    )
    return CheckResult(
        "drift_mitigation",
        passed,
        f"median drift {med(fresh['ilora']['drift']):.3f}->{med(fresh['ilora_s']['drift']):.3f}, "
        f"median loss {med(fresh['ilora']['loss']):.3f}->{med(fresh['ilora_s']['loss']):.3f}, "
        f"median acc {med(fresh['ilora']['accuracy']):.3f}->{med(fresh['ilora_s']['accuracy']):.3f}, "
        f"worst per-seed acc gap {min(gaps):+.4f} (floor -{ACCURACY_SLACK}), "
        f"oracle reproduction gap {reproduction_gap:.2e}, {elapsed:.1f}s (limit 120s)",
    )


def check_convergence_iid() -> CheckResult:
    """IID federated accuracy stays within 95% of a centralized oracle run.

    The oracle is the same model and optimizer trained as a single client on
    the pooled data for the same rounds and epochs, i.e. the same number of
    passes over the dataset.
    """
    ratios = []
    for seed in (1, 2, 3, 4, 5):
        spec = _canonical_spec("ilora", seed, alpha=1e6)
        fed_config = spec.federation
        train, heldout = spec.build_datasets()
        fed_acc = run_federation(fed_config, train, heldout)[-1].heldout_accuracy
        centralized = replace(
            fed_config, n_clients=1, client_ranks=(fed_config.server_rank,)
        )
        cen_acc = run_federation(centralized, train, heldout)[-1].heldout_accuracy
        ratios.append(fed_acc / cen_acc)
    passed = min(ratios) >= 0.95
    return CheckResult(
        "convergence_iid",
        passed,
        f"federated/centralized accuracy ratios {[f'{r:.3f}' for r in ratios]} (floor 0.95)",
    )


def check_communication_accounting() -> CheckResult:
    """Measured byte counters equal the analytic model on a small grid.

    The grid covers full participation at equal ranks and partial
    participation (0.5, 0.25) at heterogeneous ranks, for every method
    (a method that needs equal ranks runs them at the largest rank).
    Every round goes through ``round_invariants``, which prices the sampled
    clients' traffic and, with it, checks the round's other invariants.
    """
    grid = [
        ((2, 2), 12, 6, 1.0),  # (client ranks, input_dim, classes, participation)
        ((3, 3, 3, 3), 16, 8, 1.0),
        ((4, 4, 4, 4, 4), 20, 10, 1.0),
        ((1, 2, 3, 4), 16, 8, 0.5),
        ((1, 2, 3, 4, 4, 3, 2, 1), 16, 8, 0.25),
    ]
    mismatches = []
    ratio_gap = 0.0
    for ranks, d_in, classes, participation in grid:
        n_clients = len(ranks)
        per_method_down = {}
        for method in METHODS:
            client_ranks = ranks if METHOD_TRAITS[method].mixed_ranks else (max(ranks),) * n_clients
            config = FederationConfig(
                n_clients=n_clients,
                client_ranks=client_ranks,
                server_rank=max(ranks),
                method=method,
                participation=participation,
                local_epochs=1,
                batch_size=8,
                rounds=4,
                lr=0.01,
                dirichlet_alpha=1.0,
                lora_scaling=1.0,
                data_seed=3,
                partition_seed=13,
                train_seed=23,
            )
            dataset = generate_blobs(classes, max(6, n_clients), d_in, 0.3, 3)
            for metrics, found in _checked_rounds(config, dataset):
                mismatches += [
                    f"{method} ranks={client_ranks} p={participation} round {metrics.round}: {p}"
                    for p in found
                ]
                if metrics.round > 1:
                    per_method_down[method] = metrics.bytes_down
        if participation == 1.0:
            # stationary rounds at equal ranks: full-stack downlink costs S*r/r_s
            # times the sliced downlink
            measured_ratio = per_method_down["full_stack"] / per_method_down["ilora"]
            expected_ratio = n_clients * ranks[0] / max(ranks)
            ratio_gap = max(ratio_gap, abs(measured_ratio - expected_ratio))
    passed = not mismatches and ratio_gap == 0.0
    detail = (
        f"{len(grid)}-point grid (participation 1, 0.5, 0.25) exact for all methods, "
        f"downlink ratio gap {ratio_gap!r}"
    )
    if mismatches:
        detail = "; ".join(mismatches[:3])
    return CheckResult("communication_accounting", passed, detail)


SUITES: dict[str, list] = {
    "exactness": [check_exact_reconstruction, check_truncation_identity, check_split_products],
    "bias": [check_bias_witness],
    "subspace": [check_subspace_preservation],
    "gradients": [check_gradient_correctness],
    "equivalence": [check_first_round_equivalence, check_cross_method_equivalence],
    "drift": [check_drift_mitigation],
    "convergence": [check_convergence_iid],
    "communication": [check_communication_accounting],
}
SUITES["all"] = [check for checks in SUITES.values() for check in checks]


def run_verify(suite_name: str) -> list[CheckResult]:
    if suite_name not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {suite_name!r}; choose from {sorted(SUITES)}"
        )
    return [check() for check in SUITES[suite_name]]
