"""Round orchestration for federated low-rank fine-tuning.

Protocol summary per round, one phase function each: sample clients
(``_sample``), broadcast the latest global state (``_broadcast``: personalized
factor slices, plus global controls for the control-variate variant), run
local epochs of mini-batch AdamW beside the round-start diagnostic
(``_train_and_diagnose``), aggregate the uploads on the server
(``_aggregate``), and evaluate (``_evaluate``). A method is one row of
``METHOD_TRAITS``: its fusion (``qr``, ``mean`` or ``stack``), whether it
tracks controls, and whether it allows mixed ranks. The round code reads
these traits, never names.

Conventions that keep the whole loop coherent:

* The global model is anchored at the shared frozen base: every round it is
  rebuilt as ``base + global_scale * B_g @ A_g``, where the factor pair
  ``ServerState.broadcast_factors`` aggregates the clients' current adapters
  under every method; they carry the cumulative update under replace-semantics.
* Broadcast payloads are in true weight units (sample weights and adapter
  scaling folded in during aggregation), so installed adapters use scaling 1.
  The configured LoRA scaling therefore shapes the first round only.
* The head is trained and evaluated in factored form: ``features @ base``
  is computed once per federation (the frozen-logit cache) and every forward
  adds only the low-rank term, so no d x k weight or weight gradient is
  formed per batch.
* Both protocol variants run the identical per-batch arithmetic; the plain
  variant simply never updates any control variate away from zero. This makes
  their first rounds bit-identical by construction.
* Per-client RNG streams are derived from (train_seed, client id at init) and
  travel with the client state, so results do not depend on execution order.
* From a layer size of ``_OVERLAP_MIN_WEIGHT_SIZE`` (d * k), each of the two
  pairs runs side by side on one helper thread: the sampled clients' training
  (helper) with the round-start ``grad_heterogeneity`` diagnostic, then the
  held-out forward (helper) with ``drift`` and the training-set metrics.
  Every call keeps its operands and its order, so the records are those of
  the serial round; the round stays synchronous, and no thread outlives it.
  The helper comes from ``linalg.alongside``, the package's one way to start
  a thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, fields
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .adapter import BaseWeight, LoraAdapter, effective_weight, qr_orthogonal_init
from .aggregation import (
    AggregationResult,
    ClientUpdate,
    baseline_full_stack,
    factor_means,
    personalize,
    qr_compress,
    stack_product,
)
from .data import Dataset, PartitionPlan, dirichlet_partition, permute_rows
from .linalg import (
    NonFiniteError,
    alongside,
    frobenius_norm,
    leading_sum,
    low_rank_update,
    product_into,
    slice_cols,
    slice_rows,
)
from .model import (
    factored_logits,
    factored_loss_and_grads,
    logit_accuracy,
    logit_loss_and_accuracy,
    logit_loss_and_grad,
    model_features,
)
from .optim import (
    AdamWState,
    ControlVariates,
    NonFiniteGradientError,
    adamw_step,
    fresh_adamw_state,
    local_control_update,
    server_control_aggregate,
    slice_controls,
    zero_controls,
)

# functions no round calls, kept importable from here only because
# benchmarks/workloads.py traces these names in this module
from .aggregation import apply_global, concat_reconstruct  # noqa: F401
from .oracle import (  # noqa: F401
    corrected_gradient,
    factor_gradients,
    head_accuracy,
    head_loss_and_grads,
    pad_delta,
)


class MethodTraits(NamedTuple):
    """What a method does; the round code reads these traits, never its name."""

    fusion: str  # "qr" (Q/R of the fused stack, sliced), "mean" or "stack"
    controls: bool  # clients track control variates, the server folds them
    mixed_ranks: bool  # clients may hold different ranks


METHOD_TRAITS = MappingProxyType({
    "ilora": MethodTraits("qr", controls=False, mixed_ranks=True),
    "ilora_s": MethodTraits("qr", controls=True, mixed_ranks=True),
    "fedit_avg": MethodTraits("mean", controls=False, mixed_ranks=False),
    "zero_pad": MethodTraits("mean", controls=False, mixed_ranks=True),
    "full_stack": MethodTraits("stack", controls=False, mixed_ranks=True),
})
METHODS = tuple(METHOD_TRAITS)
QR_METHODS = tuple(m for m, traits in METHOD_TRAITS.items() if traits.fusion == "qr")

BYTES_PER_FLOAT = 8

# stream tags keeping the derived RNGs of one train_seed disjoint
_TAG_THETA0 = 11
_TAG_HIDDEN = 12
_TAG_SAMPLING = 13
_TAG_SHUFFLE = 14

# client training and run_round's later phases run under this, so an overflow
# reaches the caller as one RoundAbortedError, not as numpy warnings
_quiet_overflow = functools.partial(np.errstate, over="ignore", invalid="ignore")

# d * k of the adapted layer from which run_round overlaps independent work on
# a helper thread. Below it a round is bound by the Python interpreter, and two
# threads mostly contend for its lock. On a 2-CPU host with 1 BLAS thread,
# forced threading slowed canonical-noniid (d * k = 128) from 9.6 to 14.3
# ms/round. A steady 128-class round of 16 clients went from 24.9 to 24.8 ms
# at d * k = 2**14, 45.1 to 35.6 ms at 2**16 and 67.5 to 44.7 ms at 2**17
_OVERLAP_MIN_WEIGHT_SIZE = 2**16


class ConfigError(ValueError):
    """A federation configuration violates one of its invariants."""


class RoundAbortedError(RuntimeError):
    """A round produced a nonfinite number; carries round and client context.

    ``client_id`` is None when the failure is server-side (a nonfinite
    aggregate or global metric) rather than in one client's training.
    """

    def __init__(self, round_index: int, client_id: int | None, message: str):
        where = "server" if client_id is None else f"client {client_id}"
        super().__init__(f"round {round_index}, {where}: {message}")
        self.round_index = round_index
        self.client_id = client_id


def _positive(value) -> bool:
    return math.isfinite(value) and value > 0


def _nonnegative(value) -> bool:
    return math.isfinite(value) and value >= 0


def _unit_interval(value) -> bool:
    return 0.0 <= value < 1.0


def _at_least_one(value) -> bool:
    return value >= 1


def ranged(default, accepts, accepted: str):
    """A config field declared with its valid range.

    ``check_ranges`` raises unless ``accepts(value)`` holds, stating
    ``accepted`` as the range.
    """
    return field(default=default, metadata={"range": (accepts, accepted)})


def check_ranges(config) -> None:
    """Raise ``ConfigError`` for the first field outside its declared range."""
    for f in fields(config):
        if "range" in f.metadata:
            accepts, accepted = f.metadata["range"]
            value = getattr(config, f.name)
            if not accepts(value):
                raise ConfigError(f"{f.name} must be {accepted}, got {value!r}")


@dataclass
class FederationConfig:
    """Experiment parameters for one federation run."""

    n_clients: int = ranged(8, _at_least_one, ">= 1")
    client_ranks: tuple[int, ...] = (4, 4, 4, 4, 4, 4, 4, 4)
    server_rank: int = ranged(4, _at_least_one, ">= 1")
    method: str = ranged("ilora", METHODS.__contains__, f"one of {METHODS}")
    participation: float = ranged(1.0, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    local_epochs: int = ranged(1, _at_least_one, ">= 1")
    batch_size: int = ranged(64, _at_least_one, ">= 1")
    rounds: int = ranged(5, _at_least_one, ">= 1")
    # huge finite values are legal: an overflow reaches the round abort
    lr: float = ranged(1e-4, _positive, "finite and > 0")
    beta1: float = ranged(0.9, _unit_interval, "in [0, 1)")
    beta2: float = ranged(0.999, _unit_interval, "in [0, 1)")
    eps: float = ranged(1e-8, _nonnegative, "finite and >= 0")
    weight_decay: float = ranged(0.0, _nonnegative, "finite and >= 0")
    lora_alpha: float = ranged(16.0, _positive, "finite and > 0")
    # None -> lora_alpha / client rank
    lora_scaling: float | None = ranged(
        None, lambda v: v is None or _positive(v), "none, or finite and > 0"
    )
    global_scale: float = ranged(1.0, math.isfinite, "finite")
    dirichlet_alpha: float = ranged(0.3, _positive, "finite and > 0")
    # None -> plain softmax regression
    hidden_dim: int | None = ranged(None, lambda v: v is None or v >= 1, "none or >= 1")
    data_seed: int = ranged(0, lambda v: v >= 0, ">= 0")
    partition_seed: int = ranged(1, lambda v: v >= 0, ">= 0")
    train_seed: int = ranged(2, lambda v: v >= 0, ">= 0")

    def __post_init__(self):
        try:
            ranks = tuple(int(r) for r in self.client_ranks)
        except (OverflowError, ValueError):  # inf, NaN
            ranks = ()
        if ranks != tuple(self.client_ranks):
            raise ConfigError(f"client ranks must be integers, got {self.client_ranks!r}")
        self.client_ranks = ranks
        check_ranges(self)
        if len(self.client_ranks) != self.n_clients:
            raise ConfigError(
                f"{len(self.client_ranks)} client ranks for {self.n_clients} clients"
            )
        if any(r < 1 for r in self.client_ranks):
            raise ConfigError("client ranks must be >= 1")
        if any(r > self.server_rank for r in self.client_ranks):
            raise ConfigError(
                f"client ranks {self.client_ranks} must not exceed server rank {self.server_rank}"
            )
        if sampled_count(self.n_clients, self.participation) < 1:
            raise ConfigError("participation too small: no client would be sampled")
        if not METHOD_TRAITS[self.method].mixed_ranks and len(set(self.client_ranks)) > 1:
            raise ConfigError(f"{self.method} requires homogeneous client ranks")

    def scaling_for(self, rank: int) -> float:
        if self.lora_scaling is not None:
            return self.lora_scaling
        return self.lora_alpha / rank


@dataclass
class ClientState:
    client_id: int
    # shard features, already through the frozen hidden map; a row view of
    # the server's pooled training set
    features: np.ndarray
    labels: np.ndarray
    rows: slice  # this shard's rows in the pooled training set
    base: BaseWeight
    # flat [B | A | bias]; the adapter's factors and ``bias`` are views of it,
    # and ``opt_state`` is the one AdamW state over all of it
    params: np.ndarray
    adapter: LoraAdapter
    bias: np.ndarray
    opt_state: AdamWState
    controls: ControlVariates  # stored at this client's rank
    shuffle_key: tuple[int, int]  # travels with the state, not with the id

    @property
    def rank(self) -> int:
        return self.adapter.rank

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def state_a(self) -> AdamWState:
        """Read-only alias of ``opt_state``.

        Its only reader is ``benchmarks/workloads.py``, which finds the
        sampled clients through ``state_a.step``; it goes once the benchmark
        reads ``opt_state``.
        """
        return self.opt_state

    def effective_weight(self) -> np.ndarray:
        return effective_weight(self.base, self.adapter)


def _packed_views(
    flat: np.ndarray, d: int, k: int, rank: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (d x rank, rank x k, 1 x k) views of one flat [B | A | bias] buffer."""
    a_start = d * rank
    bias_start = a_start + rank * k
    return (
        flat[:a_start].reshape(d, rank),
        flat[a_start:bias_start].reshape(rank, k),
        flat[bias_start:].reshape(1, k),
    )


@dataclass
class ServerState:
    theta0: np.ndarray
    base_frozen: np.ndarray
    global_model: np.ndarray
    global_bias: np.ndarray
    global_controls: ControlVariates
    # the aggregate's leading QR, which clients personalize from; None under
    # the averaging methods
    last_result: AggregationResult | None = None
    # the global update (B_g, A_g): the aggregate's leading Q/R (ilora,
    # ilora_s), the factor means (fedit_avg, zero_pad) or the stack (full_stack)
    broadcast_factors: tuple[np.ndarray, np.ndarray] | None = None
    # every client's training features and labels, in client order; each
    # ClientState holds a row view of its own shard
    pooled_train: tuple[np.ndarray, np.ndarray] | None = None
    heldout: tuple[np.ndarray, np.ndarray] | None = None
    # read-only features @ base_frozen of the pooled training set and the held-out
    # split (None without one), one split product each; see _frozen_logits
    frozen_logits: tuple[np.ndarray, np.ndarray | None] | None = None
    round_index: int = 0


@dataclass
class RoundMetrics:
    round: int
    train_loss: float
    train_accuracy: float
    heldout_accuracy: float | None  # None without a held-out split
    truncation_error: float
    drift: float
    grad_heterogeneity: float
    bytes_down: int
    bytes_up: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RoundContext:
    """What the communication model needs to price one round."""

    sampled_ranks: tuple[int, ...]
    d: int
    k: int
    first_round: bool = False
    # rank sum of the stack full_stack ships this round, i.e. of the previous
    # round's sample; None prices the current sample's stack
    shipped_stack_rank: int | None = None


def sampled_count(n_clients: int, participation: float) -> int:
    # guard against 0.7 * 10 = 6.999... style float droop before flooring
    return int(math.floor(participation * n_clients + 1e-9))


def account_communication(config: FederationConfig, ctx: RoundContext) -> tuple[int, int]:
    """Exact analytic byte counts (8-byte floats) for one round.

    Per sampled client of rank r: factor slices cost r*(d+k) floats each way.
    The downlink follows the fusion: past the first round, which ships the
    initial slices, QR fusion ships each client its slice and the others
    ship the whole pair. Factor means are padded to the federation's max rank;
    the stack is the previous round's, priced from ``ctx.shipped_stack_rank``
    (the current sample's rank sum when it is None, which matches the
    simulator under full participation). Controls add a broadcast of
    r_s*(d+k) and a delta upload of r*(d+k). Base weights and the tiny bias
    vector are not part of the adapter-traffic model.
    """
    traits = METHOD_TRAITS[config.method]
    span = ctx.d + ctx.k
    pair_rank = max(config.client_ranks)
    if traits.fusion == "stack":
        pair_rank = ctx.shipped_stack_rank
        if pair_rank is None:
            pair_rank = sum(ctx.sampled_ranks)
    down = 0
    up = 0
    for r in ctx.sampled_ranks:
        down += r if ctx.first_round or traits.fusion == "qr" else pair_rank
        up += r
        if traits.controls:
            down += config.server_rank  # global controls, stored at the server rank
            up += r  # control delta at the client rank
    return down * span * BYTES_PER_FLOAT, up * span * BYTES_PER_FLOAT


def _pretrained_weight(d: int, k: int, train_seed: int) -> np.ndarray:
    rng = np.random.default_rng([train_seed, _TAG_THETA0])
    return rng.standard_normal((d, k)) / np.sqrt(d)


def _hidden_weight(d_in: int, hidden_dim: int, train_seed: int) -> np.ndarray:
    rng = np.random.default_rng([train_seed, _TAG_HIDDEN])
    return rng.standard_normal((d_in, hidden_dim)) / np.sqrt(d_in)


def init_federation(
    config: FederationConfig,
    dataset: Dataset,
    plan: PartitionPlan | None = None,
    eval_dataset: Dataset | None = None,
) -> tuple[ServerState, list[ClientState]]:
    """Build server and client states from a (partitioned) dataset.

    The server factorizes the pre-trained weight once and distributes slices;
    under the deterministic QR sign convention this is bit-identical to each
    client factorizing locally. Every client and the server share one
    read-only frozen base and one read-only pre-trained weight, so state grows
    with N * r * (d + k), not N * d * k. All controls start at zero, optimizer
    states are fresh, and the reconstructed global model equals the
    pre-trained weight up to factorization roundoff.
    """
    if plan is None:
        plan = dirichlet_partition(
            dataset, config.n_clients, config.dirichlet_alpha, config.partition_seed
        )
    if plan.n_clients != config.n_clients:
        raise ConfigError(
            f"partition has {plan.n_clients} clients, config says {config.n_clients}"
        )
    hidden = None
    if config.hidden_dim is not None:
        hidden = _hidden_weight(dataset.features.shape[1], config.hidden_dim, config.train_seed)
    # held-out features first: in wide_hetero they are the larger matrix (20 vs
    # 16 MiB). Mapped second, they could meet the training matrix at the front
    # of the space that a freed state left, not fit behind it, and grow the brk
    # heap: peak RSS then moved by up to 8 MiB from one run to the next
    heldout = None
    if eval_dataset is not None:
        heldout = (model_features(eval_dataset.features, hidden), eval_dataset.labels)
    # every sample is mapped once, in dataset order, and the rows are then put
    # in client order; each client's shard is a row view of the result. A
    # gemm's rounding can depend on where a row sits in the matrix, so mapping
    # the gathered inputs instead would not reproduce these bits
    order = np.argsort(plan.assignments, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(plan.client_counts)))
    pooled_features = model_features(dataset.features, hidden)
    if pooled_features is dataset.features:
        pooled_features = pooled_features[order]
    else:
        # a fresh array: reorder it in place rather than keep a second copy
        permute_rows(pooled_features, order)
    pooled_labels = dataset.labels[order]
    d = pooled_features.shape[1]
    k = dataset.n_classes
    if config.server_rank > min(d, k):
        raise ConfigError(f"server rank {config.server_rank} exceeds min{(d, k)}")

    theta0 = _pretrained_weight(d, k, config.train_seed)
    theta0.flags.writeable = False
    base, leading = qr_orthogonal_init(
        theta0, config.server_rank, config.server_rank, scaling=1.0
    )
    clients: list[ClientState] = []
    for cid in range(config.n_clients):
        rank = config.client_ranks[cid]
        params = np.zeros(d * rank + rank * k + k)
        b_factor, a_factor, bias = _packed_views(params, d, k, rank)
        b_factor[...] = leading.b_factor[:, :rank]
        a_factor[...] = leading.a_factor[:rank]
        rows = slice(bounds[cid], bounds[cid + 1])
        clients.append(
            ClientState(
                client_id=cid,
                features=pooled_features[rows],
                labels=pooled_labels[rows],
                rows=rows,
                base=base,
                params=params,
                adapter=LoraAdapter(b_factor, a_factor, rank, config.scaling_for(rank)),
                bias=bias,
                opt_state=fresh_adamw_state(
                    params.shape,
                    lr=config.lr,
                    beta1=config.beta1,
                    beta2=config.beta2,
                    eps=config.eps,
                    weight_decay=config.weight_decay,
                ),
                controls=zero_controls(d, k, rank),
                shuffle_key=(config.train_seed, cid),
            )
        )

    server = ServerState(
        theta0=theta0,
        base_frozen=base.frozen,
        global_model=base.frozen + leading.b_factor @ leading.a_factor,
        global_bias=np.zeros((1, k)),
        global_controls=zero_controls(d, k, config.server_rank),
        pooled_train=(pooled_features, pooled_labels),
        heldout=heldout,
    )
    return server, clients


def _broadcast_adapter(server: ServerState, rank: int) -> LoraAdapter:
    """Adapter a client installs at round start (true weight units, scaling 1).

    A kept QR result (the QR methods, the full stack) is sliced; for the full
    stack this is numerically identical because the client's local QR of the
    shipped stack product reproduces the same deterministic factors.
    Averaging baselines install (slices of) the averaged factors.
    """
    if server.last_result is not None:
        return personalize(server.last_result, rank)
    b_mean, a_mean = server.broadcast_factors
    return LoraAdapter(slice_cols(b_mean, rank), slice_rows(a_mean, rank), rank, scaling=1.0)


def _shard_batches(client: ClientState, config: FederationConfig, round_index: int):
    rng = np.random.default_rng(
        [client.shuffle_key[0], client.shuffle_key[1], _TAG_SHUFFLE, round_index]
    )
    for _ in range(config.local_epochs):
        order = rng.permutation(client.n_samples)
        batches = [
            order[i : i + config.batch_size]
            for i in range(0, client.n_samples, config.batch_size)
        ]
        yield batches


def _train_client(
    client: ClientState,
    server: ServerState,
    config: FederationConfig,
    round_index: int,
) -> ClientUpdate:
    """Local epochs of (optionally drift-corrected) AdamW on one shard.

    Every batch runs the factored head on this client's row view of the
    frozen-logit cache, so nothing of size d x k is formed. Its gradients
    land in one flat [B | A | bias] buffer laid out like ``client.params``;
    the B and A blocks are corrected by (global - local control), formed
    once per epoch because the local controls change only between epochs,
    and one in-place AdamW step updates all of ``client.params``. A nonfinite
    loss, gradient or optimizer moment aborts the round for this client.
    """
    d, k = client.base.frozen.shape
    global_ca, global_cb = slice_controls(server.global_controls, client.rank)
    track_controls = METHOD_TRAITS[config.method].controls
    round_delta_a = np.zeros_like(client.controls.c_a)
    round_delta_b = np.zeros_like(client.controls.c_b)
    base_logits = _frozen_logits(server)[0][client.rows]
    adapter = client.adapter
    grads = np.empty_like(client.params)
    grad_views = _packed_views(grads, d, k, client.rank)
    grad_b, grad_a, _ = grad_views
    # (global - local control) in the same layout; only the [B | A] blocks
    # are corrected, the bias gradient is not
    correction = np.empty_like(client.params)
    correction_b, correction_a, _ = _packed_views(correction, d, k, client.rank)
    n_factors = client.params.size - k
    grad_factors, factor_correction = grads[:n_factors], correction[:n_factors]

    with _quiet_overflow():
        for batches in _shard_batches(client, config, round_index):
            np.subtract(global_cb, client.controls.c_b, out=correction_b)
            np.subtract(global_ca, client.controls.c_a, out=correction_a)
            if track_controls:
                sum_ga = np.zeros_like(client.controls.c_a)
                sum_gb = np.zeros_like(client.controls.c_b)
            for idx in batches:
                loss, *_ = factored_loss_and_grads(
                    base_logits[idx],
                    client.features[idx],
                    adapter.b_factor,
                    adapter.a_factor,
                    adapter.scaling,
                    client.bias,
                    client.labels[idx],
                    grad_views,  # out: the gradients land in the packed buffer
                )
                if not np.isfinite(loss):
                    raise RoundAbortedError(round_index, client.client_id, f"loss={loss}")
                if track_controls:
                    sum_ga += grad_a
                    sum_gb += grad_b
                grad_factors += factor_correction
                try:
                    adamw_step(client.params, grads, client.opt_state, out=client.params)
                except NonFiniteGradientError as exc:
                    raise RoundAbortedError(round_index, client.client_id, str(exc)) from exc
            if track_controls:
                # control refresh per epoch, using the epoch-mean raw gradient
                mean_ga = sum_ga / len(batches)
                mean_gb = sum_gb / len(batches)
                delta_a, client.controls.c_a = local_control_update(mean_ga, client.controls.c_a)
                delta_b, client.controls.c_b = local_control_update(mean_gb, client.controls.c_b)
                round_delta_a += delta_a
                round_delta_b += delta_b

    deltas = (round_delta_a, round_delta_b) if track_controls else None
    return ClientUpdate(
        client_id=client.client_id,
        adapter=adapter.copy(),
        sample_count=client.n_samples,
        control_deltas=deltas,
    )


def run_round(
    server: ServerState,
    clients: list[ClientState],
    config: FederationConfig,
) -> tuple[ServerState, RoundMetrics]:
    """Execute one communication round, phase by phase; mutates client states in place."""
    t = server.round_index + 1
    threaded = server.theta0.size >= _OVERLAP_MIN_WEIGHT_SIZE
    sampled = _sample(clients, config, t)
    bytes_down = _broadcast(server, sampled, config)
    with _quiet_overflow():
        updates, grad_het = _train_and_diagnose(server, sampled, config, t, threaded)
        try:
            truncation_error, bytes_up = _aggregate(server, sampled, config, updates)
        except NonFiniteError as exc:
            raise RoundAbortedError(t, None, f"nonfinite aggregate: {exc}") from exc
        metrics = _evaluate(server, sampled, config, t, threaded, truncation_error, grad_het)
    server.round_index = t
    return server, RoundMetrics(round=t, **metrics, bytes_down=bytes_down, bytes_up=bytes_up)


def _sample(clients, config, round_index) -> list[ClientState]:
    """The clients that take part in round ``round_index``, in id order."""
    n_sampled = sampled_count(config.n_clients, config.participation)
    sampled_ids = range(config.n_clients)
    if n_sampled < config.n_clients:
        rng = np.random.default_rng([config.train_seed, _TAG_SAMPLING, round_index])
        sampled_ids = sorted(
            int(i) for i in rng.choice(config.n_clients, size=n_sampled, replace=False)
        )
    return [clients[i] for i in sampled_ids]


def _broadcast(server, sampled, config) -> int:
    """Install the global state in each sampled client; returns the round's ``bytes_down``.

    Slices are copied into the packed parameters, so the factor and bias
    views, and the optimizer state over them, stay bound. In round 1 a client
    keeps the init slice it already holds.
    """
    traits = METHOD_TRAITS[config.method]
    first_round = server.round_index == 0
    bytes_down = 0
    for client in sampled:
        payload = (client.adapter.b_factor, client.adapter.a_factor)
        if not first_round:
            incoming = _broadcast_adapter(server, client.rank)
            client.adapter.b_factor[...] = incoming.b_factor
            client.adapter.a_factor[...] = incoming.a_factor
            client.adapter.scaling = incoming.scaling
            client.bias[...] = server.global_bias
            if traits.fusion != "qr":
                # the factor means / the whole stack ship; clients slice locally
                payload = server.broadcast_factors
        if traits.controls:
            payload += (server.global_controls.c_a, server.global_controls.c_b)
        bytes_down += sum(p.size for p in payload) * BYTES_PER_FLOAT
    return bytes_down


def _train_and_diagnose(server, sampled, config, round_index, threaded) -> tuple[list, float]:
    """Pair 1: the sampled clients' updates and the round-start ``grad_heterogeneity``.

    ``threaded``, the clients train on the helper while the calling thread
    runs the diagnostic on copies of the broadcast B, A and bias, which
    training moves in place.
    """
    # filled here, so two threads never race on the lazy fill
    _frozen_logits(server)
    factors = [(c.adapter.b_factor, c.adapter.a_factor, c.bias) for c in sampled]
    if threaded:
        factors = [tuple(x.copy() for x in client_factors) for client_factors in factors]
    return alongside(
        lambda: [_train_client(client, server, config, round_index) for client in sampled],
        lambda: _gradient_heterogeneity(server, sampled, factors),
        threaded,
    )


def _evaluate(server, sampled, config, round_index, threaded, truncation_error, grad_het) -> dict:
    """Pair 2: the record's metric fields, checked finite, once the aggregate is installed.

    ``threaded``, the held-out forward runs on the helper while the calling
    thread computes ``drift`` and the training-set metrics. A nonfinite
    value raises ``RoundAbortedError``.
    """
    heldout_acc, (drift, train_loss, train_acc) = alongside(
        lambda: _heldout_accuracy(server, config),
        lambda: _train_metrics(server, sampled, config),
        threaded,
    )
    checked = {
        "train_loss": train_loss,
        "drift": drift,
        "truncation_error": truncation_error,
        "grad_heterogeneity": grad_het,
    }
    nonfinite = [f"{name}={value!r}" for name, value in checked.items() if not np.isfinite(value)]
    if nonfinite:
        raise RoundAbortedError(round_index, None, "nonfinite " + ", ".join(nonfinite))
    return {**checked, "train_accuracy": train_acc, "heldout_accuracy": heldout_acc}


def _heldout_accuracy(server, config) -> float | None:
    if server.heldout is None:
        return None
    return logit_accuracy(_global_logits(server, config, "heldout"), server.heldout[1])


def _train_metrics(server, sampled, config) -> tuple[float, float, float]:
    """``drift`` over the sampled clients, then the training-set loss and accuracy."""
    drift = float(np.mean([_distance(c.effective_weight(), server.global_model) for c in sampled]))
    train_logits = _global_logits(server, config, "train")
    return (drift, *logit_loss_and_accuracy(train_logits, server.pooled_train[1]))


def _gradient_heterogeneity(
    server: ServerState,
    sampled: list[ClientState],
    factors: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> float:
    """Mean distance of per-client full-shard gradients from their weighted mean.

    Each client's gradient is the dense X_c^T G_c; its logits come from the
    frozen-logit cache plus the client's low-rank term, with the (B, A, bias)
    that ``factors`` holds for it.
    """
    base_logits = _frozen_logits(server)[0]
    grads = []
    counts = []
    for client, (b_factor, a_factor, bias) in zip(sampled, factors):
        logits = factored_logits(
            base_logits[client.rows],
            client.features,
            b_factor,
            a_factor,
            client.adapter.scaling,
            bias,
        )
        _, delta = logit_loss_and_grad(logits, client.labels)
        grads.append(client.features.T @ delta)
        counts.append(client.n_samples)
    weights = np.asarray(counts, dtype=np.float64)
    weights /= weights.sum()
    mean_grad = leading_sum(grads[0].shape, grads, weights)
    return float(np.mean([_distance(g, mean_grad) for g in grads]))


def _distance(scratch: np.ndarray, other: np.ndarray) -> float:
    """Frobenius norm of ``scratch - other``, formed and squared in ``scratch``'s buffer."""
    scratch -= other
    return frobenius_norm(scratch, out=scratch)


def _aggregate(server, sampled, config, updates) -> tuple[float, int]:
    """The server step: fusion, the control and bias folds, and the global model.

    Every client-to-server fold is a ``linalg.leading_sum``. Returns the
    truncation error actually incurred and the round's ``bytes_up``.
    """
    traits = METHOD_TRAITS[config.method]
    truncation_error = 0.0  # the baselines' global updates are not truncated
    if traits.fusion == "mean":
        # pads to the federation-wide max rank so any later-sampled client
        # fits; with equal ranks nothing pads
        server.broadcast_factors = factor_means(updates, max(config.client_ranks))
        server.last_result = None
    else:
        # full_stack clients re-derive their slices from the shipped stack;
        # this server-side QR is numerically identical to that computation
        b_stack, a_stack = baseline_full_stack(updates)
        result = qr_compress(stack_product(b_stack, a_stack), config.server_rank)
        server.last_result = result
        if traits.fusion == "qr":
            server.broadcast_factors = (result.q, result.r)
            truncation_error = result.truncation_error
        else:
            server.broadcast_factors = (b_stack, a_stack)
    if traits.controls:
        controls = server.global_controls
        server.global_controls = ControlVariates(
            c_a=server_control_aggregate(controls.c_a, [u.control_deltas[0] for u in updates]),
            c_b=server_control_aggregate(controls.c_b, [u.control_deltas[1] for u in updates]),
            r_ref=config.server_rank,
        )
    b_global, a_global = server.broadcast_factors
    server.global_model = low_rank_update(
        server.base_frozen, b_global, a_global, config.global_scale
    )
    weights = np.array([u.sample_count for u in updates], dtype=np.float64)
    weights /= weights.sum()
    server.global_bias = leading_sum(server.global_bias.shape, [c.bias for c in sampled], weights)
    bytes_up = BYTES_PER_FLOAT * sum(
        u.adapter.b_factor.size + u.adapter.a_factor.size
        + sum(d.size for d in u.control_deltas or ())
        for u in updates
    )
    return truncation_error, bytes_up


def _frozen_logits(server: ServerState) -> tuple[np.ndarray, np.ndarray | None]:
    """The server's frozen-logit cache: ``logit_blocks`` of its training and held-out splits.

    The frozen base never changes during a federation, so this is formed
    once, on first use in round 1 (which evaluates the global model anyway),
    not in ``init_federation``. Clients read row views of the training block.
    """
    if server.frozen_logits is None:
        if server.pooled_train is None:
            raise ValueError("server state has no pooled training set; see init_federation")
        heldout = None if server.heldout is None else server.heldout[0]
        server.frozen_logits = logit_blocks(server.base_frozen, server.pooled_train[0], heldout)
    return server.frozen_logits


def logit_blocks(base: np.ndarray, *features: np.ndarray | None) -> tuple:
    """Read-only ``x @ base`` for each feature matrix ``x`` (None stays None).

    Every block is allocated first, in order, then each is one
    ``linalg.product_into``, cut across two threads when it is large enough.
    """
    blocks = [None if x is None else np.empty((x.shape[0], base.shape[1])) for x in features]
    for x, block in zip(features, blocks):
        if block is not None:
            product_into(block, x, base)
            block.flags.writeable = False
    return tuple(blocks)


def _global_logits(server: ServerState, config: FederationConfig, split: str) -> np.ndarray:
    """Global-model logits on the "train" (pooled) or "heldout" split, in factored form.

    The global update is ``server.broadcast_factors``, scaled by
    ``global_scale`` as in ``server.global_model``.
    """
    train_logits, heldout_logits = _frozen_logits(server)
    if split == "train":
        features, base_logits = server.pooled_train[0], train_logits
    else:
        features, base_logits = server.heldout[0], heldout_logits
    b_factor, a_factor = server.broadcast_factors
    return factored_logits(
        base_logits, features, b_factor, a_factor, config.global_scale, server.global_bias
    )


def run_federation(
    config: FederationConfig,
    dataset: Dataset,
    eval_dataset: Dataset | None = None,
) -> list[RoundMetrics]:
    """Run a full federation; fully deterministic given the config seeds."""
    server, clients = init_federation(config, dataset, eval_dataset=eval_dataset)
    metrics = []
    for _ in range(config.rounds):
        server, round_metrics = run_round(server, clients, config)
        metrics.append(round_metrics)
    return metrics
