import dataclasses
import json
import sys
import threading
import warnings

import numpy as np
import pytest

from fedqr import adapter, federation, linalg, model, oracle
from fedqr.config import PRESETS, preset_spec
from fedqr.data import dirichlet_partition, generate_blobs
from fedqr.federation import (
    METHOD_TRAITS,
    METHODS,
    ConfigError,
    FederationConfig,
    RoundAbortedError,
    RoundContext,
    account_communication,
    init_federation,
    run_federation,
    run_round,
    sampled_count,
)
from fedqr.linalg import frobenius_norm, leading_qr, subspace_residual, thin_qr
from fedqr.oracle import head_accuracy, head_loss_and_grads


def small_config(**overrides):
    base = dict(
        n_clients=4,
        client_ranks=(2, 3, 4, 4),
        server_rank=4,
        method="ilora",
        local_epochs=1,
        batch_size=16,
        rounds=3,
        lr=0.02,
        dirichlet_alpha=0.5,
        lora_scaling=1.0,
        data_seed=1,
        partition_seed=2,
        train_seed=3,
    )
    base.update(overrides)
    return FederationConfig(**base)


def method_ranks(method):
    """Mixed ranks, or equal ones for a method that needs them."""
    return (2, 3, 4, 4) if METHOD_TRAITS[method].mixed_ranks else (4, 4, 4, 4)


def small_dataset(config, classes=8, spc=25, d_in=16, spread=0.3):
    return generate_blobs(classes, spc, d_in, spread, config.data_seed)


def owned_bytes(*objects) -> int:
    """Bytes of the distinct buffers behind every reachable array; views count once."""
    owners = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj.nbytes
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                visit(getattr(obj, f.name))
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)

    visit(objects)
    return sum(owners.values())


class TestConfigValidation:
    def test_rank_list_length(self):
        with pytest.raises(ConfigError):
            small_config(client_ranks=(2, 3))

    def test_client_rank_exceeds_server(self):
        with pytest.raises(ConfigError):
            small_config(client_ranks=(2, 3, 4, 5))

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            small_config(method="fedavg")

    def test_participation_bounds(self):
        with pytest.raises(ConfigError):
            small_config(participation=0.0)
        with pytest.raises(ConfigError):
            small_config(participation=1.5)

    def test_participation_too_small_to_sample(self):
        with pytest.raises(ConfigError):
            small_config(participation=0.1)  # floor(0.1 * 4) = 0

    def test_fedit_needs_homogeneous_ranks(self):
        with pytest.raises(ConfigError, match="^fedit_avg requires homogeneous client ranks$"):
            small_config(method="fedit_avg")
        small_config(method="fedit_avg", client_ranks=(4, 4, 4, 4))

    def test_fractional_rank_rejected(self):
        with pytest.raises(ConfigError, match="client ranks must be integers"):
            FederationConfig(n_clients=2, client_ranks=(4, 2.9), server_rank=4)
        for rank in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="client ranks must be integers"):
                FederationConfig(n_clients=2, client_ranks=(4, rank), server_rank=4)
        ranks = FederationConfig(n_clients=2, client_ranks=(4, 2.0), server_rank=4).client_ranks
        assert ranks == (4, 2) and all(type(r) is int for r in ranks)

    def test_floor_guard_against_float_droop(self):
        assert sampled_count(10, 0.7) == 7
        assert sampled_count(15, 0.8) == 12


class TestInit:
    def test_reconstructed_global_model_is_theta0(self):
        config = small_config()
        server, _ = init_federation(config, small_dataset(config))
        assert frobenius_norm(server.global_model - server.theta0) <= 1e-9

    def test_bit_identical_reinit(self):
        config = small_config()
        ds = small_dataset(config)
        server_a, clients_a = init_federation(config, ds)
        server_b, clients_b = init_federation(config, ds)
        assert server_a.global_model.tobytes() == server_b.global_model.tobytes()
        for ca, cb in zip(clients_a, clients_b):
            assert ca.adapter.b_factor.tobytes() == cb.adapter.b_factor.tobytes()
            assert ca.features.tobytes() == cb.features.tobytes()

    def test_matches_per_client_initialization(self):
        from fedqr.adapter import qr_orthogonal_init

        config = small_config()
        server, clients = init_federation(config, small_dataset(config))
        for client in clients:
            base, adapter = qr_orthogonal_init(
                server.theta0, client.rank, config.server_rank, scaling=1.0
            )
            assert np.array_equal(adapter.b_factor, client.adapter.b_factor)
            assert np.array_equal(adapter.a_factor, client.adapter.a_factor)
            assert np.allclose(base.frozen, client.base.frozen, atol=1e-12)

    def test_clients_and_server_share_one_read_only_base(self):
        config = small_config()
        server, clients = init_federation(config, small_dataset(config))
        for client in clients:
            assert client.base.frozen is server.base_frozen
        for array in (server.base_frozen, server.theta0):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_state_does_not_grow_with_clients_times_weight(self):
        # d x k = 64 x 32 dwarfs a rank-1 client's adapter, optimizer and controls
        d, k = 64, 32
        sizes = {}
        for n in (2, 8):
            config = small_config(
                n_clients=n, client_ranks=(1,) * n, server_rank=1, hidden_dim=d
            )
            ds = generate_blobs(k, 8, k, 0.3, config.data_seed)
            sizes[n] = owned_bytes(init_federation(config, ds))
        per_client = (sizes[8] - sizes[2]) / 6
        assert per_client < d * k * 8

    def test_client_shards_are_row_views_of_the_pooled_training_set(self):
        config = small_config()
        ds = small_dataset(config)
        plan = dirichlet_partition(
            ds, config.n_clients, config.dirichlet_alpha, config.partition_seed
        )
        server, clients = init_federation(config, ds, plan)
        features, labels = server.pooled_train
        start = 0
        for client in clients:
            rows = slice(start, start + client.n_samples)
            assert np.shares_memory(client.features, features)
            assert np.shares_memory(client.labels, labels)
            assert client.features.ctypes.data == features[rows].ctypes.data
            assert client.labels.ctypes.data == labels[rows].ctypes.data
            idx = plan.client_indices(client.client_id)
            assert np.array_equal(client.features, ds.features[idx])
            assert np.array_equal(client.labels, ds.labels[idx])
            start = rows.stop
        assert start == features.shape[0] == labels.shape[0] == len(ds)

    def test_initial_updates_confined_to_leading_subspace(self):
        config = small_config()
        server, clients = init_federation(config, small_dataset(config))
        q0, _ = thin_qr(server.theta0)
        for client in clients:
            diff = client.effective_weight() - server.theta0
            assert subspace_residual(q0[:, : config.server_rank], diff) <= 1e-9

    def test_single_client_first_gradient_is_centralized_gradient(self):
        config = small_config(n_clients=1, client_ranks=(4,), participation=1.0)
        ds = small_dataset(config)
        server, clients = init_federation(config, ds)
        client = clients[0]
        # with matching ranks and unit scaling the initial model is theta0
        _, local_grad, _ = head_loss_and_grads(
            client.effective_weight(), client.bias, client.features, client.labels
        )
        _, central_grad, _ = head_loss_and_grads(
            server.theta0, np.zeros((1, ds.n_classes)), ds.features, ds.labels
        )
        assert np.max(np.abs(local_grad - central_grad)) <= 1e-9


class TestRounds:
    def test_zero_lr_is_a_fixed_point(self):
        config = small_config(client_ranks=(4, 4, 4, 4), rounds=2, batch_size=1000)
        # a config rejects lr = 0; set after validation, it isolates the
        # round's own arithmetic from the optimizer's steps
        config.lr = 0.0
        ds = small_dataset(config)
        server, clients = init_federation(config, ds)
        server, m1 = run_round(server, clients, config)
        first = server.global_model.copy()
        assert frobenius_norm(first - server.theta0) <= 1e-9
        server, m2 = run_round(server, clients, config)
        assert frobenius_norm(server.global_model - first) <= 1e-9
        assert abs(m1.truncation_error - m2.truncation_error) <= 1e-12

    def test_server_adapter_orthonormal_every_round(self):
        config = small_config(rounds=4)
        ds = small_dataset(config)
        server, clients = init_federation(config, ds)
        for _ in range(4):
            server, _ = run_round(server, clients, config)
            b = server.last_result.server_adapter.b_factor
            assert np.max(np.abs(b.T @ b - np.eye(b.shape[1]))) <= 1e-10

    def test_client_relabeling_leaves_trajectory_invariant(self):
        config = small_config(rounds=3, client_ranks=(2, 3, 4, 4))
        ds = small_dataset(config)

        def trajectory(relabel):
            server, clients = init_federation(config, ds)
            if relabel:
                order = [2, 0, 3, 1]
                clients = [clients[i] for i in order]
                for new_id, client in enumerate(clients):
                    client.client_id = new_id  # shard, rank and rng travel along
            models = []
            for _ in range(config.rounds):
                server, _ = run_round(server, clients, config)
                models.append(server.global_model.copy())
            return models

        for a, b in zip(trajectory(False), trajectory(True)):
            assert frobenius_norm(a - b) <= 1e-9

    def test_global_metrics_match_per_client_vstack_evaluation(self):
        config = small_config(hidden_dim=10, method="ilora_s", participation=0.5, rounds=3)
        ds = small_dataset(config, d_in=12)
        heldout = generate_blobs(8, 10, 12, 0.3, 999)
        server, clients = init_federation(config, ds, eval_dataset=heldout)
        for _ in range(config.rounds):
            server, metrics = run_round(server, clients, config)
            features = np.vstack([c.features for c in clients])
            labels = np.concatenate([c.labels for c in clients])
            weight, bias = server.global_model, server.global_bias
            expected = dataclasses.replace(
                metrics,
                train_loss=head_loss_and_grads(weight, bias, features, labels)[0],
                train_accuracy=head_accuracy(weight, bias, features, labels),
            )
            assert json.dumps(metrics.to_dict()) == json.dumps(expected.to_dict())

    def test_heldout_accuracy_is_none_without_heldout_split(self):
        config = small_config(rounds=2)
        metrics = run_federation(config, small_dataset(config))
        for m in metrics:
            assert m.heldout_accuracy is None
            assert json.loads(json.dumps(m.to_dict()))["heldout_accuracy"] is None

    def test_nonfinite_loss_aborts_with_context(self):
        config = small_config()
        ds = small_dataset(config)
        server, clients = init_federation(config, ds)
        clients[1].features[0, 0] = np.nan
        with pytest.raises(RoundAbortedError) as excinfo:
            run_round(server, clients, config)
        assert excinfo.value.client_id == 1
        assert excinfo.value.round_index == 1

    def test_server_side_overflow_aborts_without_numpy_warnings(self):
        spec = preset_spec("canonical-noniid")
        config = dataclasses.replace(spec.federation, global_scale=1e308)
        train, heldout = spec.build_datasets()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RoundAbortedError) as excinfo:
                run_federation(config, train, heldout)
        assert excinfo.value.client_id is None
        assert excinfo.value.round_index == 1

    @pytest.mark.parametrize("method", ["ilora", "ilora_s", "full_stack"])
    def test_nonfinite_aggregate_aborts_server_side(self, monkeypatch, method):
        # finite uploads whose fused product overflows to Inf reach the QR
        spec = preset_spec("canonical-noniid")
        config = dataclasses.replace(spec.federation, method=method)
        train_client = federation._train_client

        def huge_factors(*args, **kwargs):
            update = train_client(*args, **kwargs)
            update.adapter.b_factor = np.full_like(update.adapter.b_factor, 1e200)
            update.adapter.a_factor = np.full_like(update.adapter.a_factor, 1e200)
            return update

        monkeypatch.setattr(federation, "_train_client", huge_factors)
        train, heldout = spec.build_datasets()
        server, clients = init_federation(config, train, eval_dataset=heldout)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RoundAbortedError) as excinfo:
                run_round(server, clients, config)
        assert excinfo.value.client_id is None
        assert excinfo.value.round_index == 1
        assert "nonfinite aggregate" in str(excinfo.value)

    @pytest.mark.parametrize("global_scale", [1.0, 0.5])
    @pytest.mark.parametrize("participation", [1.0, 0.5])
    @pytest.mark.parametrize("method", METHODS)
    def test_global_model_is_base_plus_scaled_factor_pair(
        self, method, participation, global_scale
    ):
        # every method keeps its global update as one factor pair, and the
        # global model is exactly base + global_scale * B_g A_g
        ranks = method_ranks(method)
        config = small_config(
            method=method, client_ranks=ranks, participation=participation,
            global_scale=global_scale,
        )
        server, clients = init_federation(config, small_dataset(config))
        for _ in range(config.rounds):
            server, _ = run_round(server, clients, config)
            b_global, a_global = server.broadcast_factors
            want = server.base_frozen + global_scale * (b_global @ a_global)
            assert server.global_model.tobytes() == want.tobytes()
            if method in federation.QR_METHODS:
                assert b_global is server.last_result.q
                assert a_global is server.last_result.r
            assert (server.last_result is None) == (METHOD_TRAITS[method].fusion == "mean")

    @pytest.mark.parametrize("participation", [1.0, 0.5])
    def test_fedit_avg_is_zero_pad_at_equal_ranks(self, participation):
        # the two differ only in fedit_avg's rank rule
        heldout = generate_blobs(8, 10, 16, 0.3, 999)
        records = []
        for method in ("fedit_avg", "zero_pad"):
            config = small_config(
                method=method, client_ranks=(4, 4, 4, 4), participation=participation,
                rounds=4, lora_scaling=None,
            )
            metrics = run_federation(config, small_dataset(config), heldout)
            records.append([json.dumps(m.to_dict()) for m in metrics])
        assert records[0] == records[1]

    @pytest.mark.parametrize("participation", [1.0, 0.5])
    @pytest.mark.parametrize("method", METHODS)
    def test_lora_scaling_shapes_round_one_only(self, method, participation):
        # lora_alpha / rank scales the initial slices; every later broadcast
        # is in weight units and installs scaling 1
        config = small_config(
            method=method, client_ranks=method_ranks(method), participation=participation,
            lora_scaling=None,
        )
        server, clients = init_federation(config, small_dataset(config))
        assert [c.adapter.scaling for c in clients] == [16.0 / c.rank for c in clients]
        server, _ = run_round(server, clients, config)
        steps = [c.opt_state.step for c in clients]
        server, _ = run_round(server, clients, config)
        sampled = [c for c, step in zip(clients, steps) if c.opt_state.step != step]
        assert sampled and all(c.adapter.scaling == 1.0 for c in sampled)
        # what round 3 installs: the leading r-slice of the kept Q/R, or of
        # the factor means when no QR is kept
        result = server.last_result
        b_kept, a_kept = server.broadcast_factors if result is None else (result.q, result.r)
        for rank in sorted(set(config.client_ranks)):
            incoming = federation._broadcast_adapter(server, rank)
            assert incoming.scaling == 1.0
            product = incoming.b_factor @ incoming.a_factor
            assert product.tobytes() == (b_kept[:, :rank] @ a_kept[:rank]).tobytes()

    @pytest.mark.parametrize("method", ["ilora", "ilora_s"])
    def test_projection_overflow_aborts_server_side(self, monkeypatch, method):
        # a finite aggregate whose last column projects past the float range
        # onto Q's first column: leading_qr returns an Inf in R, not an error
        spec = preset_spec("canonical-noniid")
        config = dataclasses.replace(spec.federation, method=method)
        qr_compress = federation.qr_compress
        fused = []

        def overflowing_delta(delta, server_rank):
            q, _ = thin_qr(delta[:, :server_rank])
            delta[:, -1] = 1e308 * np.sign(q[:, 0])
            fused.append(delta)
            return qr_compress(delta, server_rank)

        monkeypatch.setattr(federation, "qr_compress", overflowing_delta)
        train, heldout = spec.build_datasets()
        server, clients = init_federation(config, train, eval_dataset=heldout)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RoundAbortedError) as excinfo:
                run_round(server, clients, config)
        assert excinfo.value.client_id is None
        assert excinfo.value.round_index == 1
        (delta,) = fused
        assert np.all(np.isfinite(delta))
        assert not np.all(np.isfinite(leading_qr(delta, config.server_rank)[1]))


def dense_oracle_guard(monkeypatch):
    """Make every dense-head function raise while local training runs."""
    train = federation._train_client

    def forbidden(*args, **kwargs):
        raise AssertionError("local training formed a d x k weight or weight gradient")

    def guarded(*args, **kwargs):
        with monkeypatch.context() as patch:
            for module in (federation, adapter, model, oracle):
                for name in ("effective_weight", "head_loss_and_grads", "factor_gradients"):
                    if hasattr(module, name):
                        patch.setattr(module, name, forbidden)
            return train(*args, **kwargs)

    monkeypatch.setattr(federation, "_train_client", guarded)


class TestFactoredHead:
    """Local training and global metrics run on the frozen-logit cache."""

    def test_local_training_forms_no_dense_weight(self, monkeypatch):
        config = small_config(method="ilora_s", hidden_dim=10, rounds=2, local_epochs=2)
        ds = small_dataset(config, d_in=12)
        expected = run_federation(config, ds)
        dense_oracle_guard(monkeypatch)
        guarded = run_federation(config, ds)
        assert [m.to_dict() for m in guarded] == [m.to_dict() for m in expected]

    def test_cache_is_filled_once_read_only_and_exact(self, monkeypatch, started_threads):
        fills = []
        frozen_logits = federation._frozen_logits

        def count_fill(server):
            if server.frozen_logits is None:
                before = len(started_threads)
                frozen_logits(server)
                fills.append(len(started_threads) - before)
            return frozen_logits(server)

        monkeypatch.setattr(federation, "_frozen_logits", count_fill)
        # (hidden units, classes, samples per class, helper threads of the
        # fill): 256 rows x 1024 x 128 is above linalg.SPLIT_MIN_WORK, so each
        # block is cut across a helper; the small layer's blocks stay whole
        for hidden_dim, classes, spc, fill_threads in ((10, 8, 25, 0), (1024, 128, 2, 2)):
            config = small_config(hidden_dim=hidden_dim, rounds=3)
            d_in = max(12, classes)  # the blobs' simplex layout needs d_in >= classes
            ds = small_dataset(config, classes=classes, spc=spc, d_in=d_in)
            heldout = generate_blobs(classes, spc, d_in, 0.3, 999)
            server, clients = init_federation(config, ds, eval_dataset=heldout)
            assert server.frozen_logits is None  # not filled at init
            fills.clear()
            server, _ = run_round(server, clients, config)
            assert fills == [fill_threads]
            cache = server.frozen_logits
            train_block, heldout_block = cache
            for block, features in (
                (train_block, server.pooled_train[0]),
                (heldout_block, server.heldout[0]),
            ):
                assert block.tobytes() == (features @ server.base_frozen).tobytes()
                assert not block.flags.writeable
                with pytest.raises(ValueError):
                    block[0, 0] = 1.0
            for _ in range(2):
                server, _ = run_round(server, clients, config)
                assert server.frozen_logits is cache
                assert server.frozen_logits[0] is train_block
                assert server.frozen_logits[1] is heldout_block

    def test_clients_read_row_views_of_the_cache(self, monkeypatch):
        config = small_config(rounds=1)
        server, clients = init_federation(config, small_dataset(config))
        batches = []
        factored = federation.factored_loss_and_grads

        def record(base_logits, features, *args):
            batches.append((base_logits, features))
            return factored(base_logits, features, *args)

        monkeypatch.setattr(federation, "factored_loss_and_grads", record)
        run_round(server, clients, config)
        train_block = server.frozen_logits[0]
        pooled = server.pooled_train[0]
        for client in clients:
            assert np.shares_memory(train_block[client.rows], train_block)
            assert client.features.ctypes.data == pooled[client.rows].ctypes.data
        # each batch's base logits are the cached rows of that batch's samples
        cached = {x.tobytes(): row.tobytes() for x, row in zip(pooled, train_block)}
        assert len(cached) == pooled.shape[0]
        assert batches
        for base_logits, features in batches:
            for x, row in zip(features, base_logits):
                assert cached[x.tobytes()] == row.tobytes()

    @pytest.mark.parametrize("participation", [1.0, 0.5])
    @pytest.mark.parametrize("method", METHODS)
    def test_global_metrics_match_dense_evaluation(self, method, participation):
        ranks = method_ranks(method)
        config = small_config(
            method=method, client_ranks=ranks, participation=participation,
            hidden_dim=10, rounds=3, global_scale=0.5,
        )
        ds = small_dataset(config, d_in=12)
        heldout = generate_blobs(8, 10, 12, 0.3, 999)
        server, clients = init_federation(config, ds, eval_dataset=heldout)
        records = []
        for _ in range(config.rounds):
            server, metrics = run_round(server, clients, config)
            weight, bias = server.global_model, server.global_bias
            loss = head_loss_and_grads(weight, bias, *server.pooled_train)[0]
            accuracy = head_accuracy(weight, bias, *server.pooled_train)
            assert metrics.train_loss == pytest.approx(loss, rel=1e-12, abs=0.0)
            assert metrics.train_accuracy == pytest.approx(accuracy, abs=1e-12)
            assert metrics.heldout_accuracy == pytest.approx(
                head_accuracy(weight, bias, *server.heldout), abs=1e-12
            )
            records.append(json.dumps(metrics.to_dict()))
        rerun = run_federation(config, ds, heldout)
        assert [json.dumps(m.to_dict()) for m in rerun] == records


def overlap_every_layer(monkeypatch):
    """Make run_round use its helper thread at every layer size."""
    monkeypatch.setattr(federation, "_OVERLAP_MIN_WEIGHT_SIZE", 0)


def client_states(clients) -> list[tuple]:
    return [
        tuple(
            x.tobytes()
            for x in (c.params, c.opt_state.m, c.opt_state.v, c.controls.c_a, c.controls.c_b)
        )
        + (c.opt_state.step,)
        for c in clients
    ]


class TestOverlappedRound:
    """run_round's helper thread moves work between threads, never a bit."""

    @pytest.mark.parametrize("hidden_dim", [None, 24])
    @pytest.mark.parametrize("participation", [1.0, 0.5])
    @pytest.mark.parametrize("method", METHODS)
    def test_records_match_the_serial_path(
        self, monkeypatch, method, participation, hidden_dim
    ):
        config = small_config(
            method=method, client_ranks=method_ranks(method), participation=participation,
            hidden_dim=hidden_dim, rounds=3,
        )
        ds = small_dataset(config)
        heldout = generate_blobs(8, 10, 16, 0.3, 999)
        serial = [json.dumps(m.to_dict()) for m in run_federation(config, ds, heldout)]

        overlap_every_layer(monkeypatch)
        trained_on = set()
        train_client = federation._train_client

        def record_thread(*args, **kwargs):
            trained_on.add(threading.get_ident())
            return train_client(*args, **kwargs)

        monkeypatch.setattr(federation, "_train_client", record_thread)
        threads = threading.active_count()
        overlapped = [json.dumps(m.to_dict()) for m in run_federation(config, ds, heldout)]
        assert threading.active_count() == threads
        assert trained_on and threading.get_ident() not in trained_on
        assert overlapped == serial

    def test_records_match_under_fast_thread_switching(self, monkeypatch):
        # the diagnostic must read copies of the broadcast state: with the
        # interpreter switching threads every microsecond, it would otherwise
        # see factors that the helper's training has already moved
        config = small_config(method="ilora_s", hidden_dim=24, local_epochs=2, rounds=3)
        ds = small_dataset(config)
        serial = [json.dumps(m.to_dict()) for m in run_federation(config, ds)]
        overlap_every_layer(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            overlapped = [json.dumps(m.to_dict()) for m in run_federation(config, ds)]
        finally:
            sys.setswitchinterval(interval)
        assert sys.getswitchinterval() == interval
        assert overlapped == serial

    def test_client_abort_matches_the_serial_path(self, monkeypatch):
        def aborted_round():
            config = small_config(method="ilora_s", local_epochs=2)
            server, clients = init_federation(config, small_dataset(config))
            server, _ = run_round(server, clients, config)
            clients[2].features[-1, 0] = np.nan
            threads = threading.active_count()
            with pytest.raises(RoundAbortedError) as excinfo:
                run_round(server, clients, config)
            assert threading.active_count() == threads
            return excinfo.value, client_states(clients)

        serial_error, serial_states = aborted_round()
        overlap_every_layer(monkeypatch)
        error, states = aborted_round()
        assert (error.round_index, error.client_id) == (2, 2)
        assert str(error) == str(serial_error)
        # the client after the failing one never trained
        assert states == serial_states

    def test_server_abort_joins_the_helper_without_numpy_warnings(self, monkeypatch):
        # the held-out forward runs on the helper, and its scaled low-rank
        # term overflows: numpy's error state must be quiet on that thread too
        overlap_every_layer(monkeypatch)
        spec = preset_spec("canonical-noniid")
        config = dataclasses.replace(spec.federation, global_scale=1e308)
        train, heldout = spec.build_datasets()
        heldout.features *= 1e3
        server, clients = init_federation(config, train, eval_dataset=heldout)
        threads = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RoundAbortedError) as excinfo:
                run_round(server, clients, config)
        assert threading.active_count() == threads
        assert excinfo.value.client_id is None
        assert excinfo.value.round_index == 1

    def test_helper_exception_is_raised_first(self):
        def background():
            raise KeyError("helper")

        def foreground():
            raise ValueError("caller")

        threads = threading.active_count()
        with pytest.raises(KeyError):
            linalg.alongside(background, foreground, threaded=True)
        assert threading.active_count() == threads
        with pytest.raises(ValueError):
            linalg.alongside(background, foreground, threaded=False)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_no_preset_starts_a_thread(self, monkeypatch, preset):
        # linalg starts every thread of the package: the round's helper and
        # the split products' alike
        def no_thread(*args, **kwargs):
            raise AssertionError(f"{preset} started a thread")

        monkeypatch.setattr(linalg.threading, "Thread", no_thread)
        spec = preset_spec(preset)
        train, heldout = spec.build_datasets()
        server, clients = init_federation(spec.federation, train, eval_dataset=heldout)
        for _ in range(2):
            server, _ = run_round(server, clients, spec.federation)

    def test_wide_layer_round_starts_only_the_round_helpers(self, started_threads):
        # wide_hetero's shape: 1024 x 128, 16 clients of rank 4/8/16 at half
        # participation. Set-up cuts both hidden maps across a helper; round
        # 1 cuts both frozen-logit products, and every round runs its two
        # pairs; no other round product is large enough to cut
        spec = preset_spec("paper-hetero")
        config = dataclasses.replace(
            spec.federation, n_clients=16, client_ranks=tuple((4, 8, 16)[i % 3] for i in range(16)),
            server_rank=16, method="ilora_s", participation=0.5, local_epochs=1,
            batch_size=32, hidden_dim=1024, rounds=2,
        )
        data = dataclasses.replace(
            spec.data, classes=128, samples_per_class=16, input_dim=128,
            eval_samples_per_class=20,
        )
        train, heldout = dataclasses.replace(spec, federation=config, data=data).build_datasets()
        server, clients = init_federation(config, train, eval_dataset=heldout)
        assert len(started_threads) == 2
        threads = threading.active_count()
        per_round = []
        for _ in range(config.rounds):
            before = len(started_threads)
            server, _ = run_round(server, clients, config)
            per_round.append(len(started_threads) - before)
        assert per_round == [4, 2]
        assert threading.active_count() == threads


ROUND_PHASES = ("_sample", "_broadcast", "_train_and_diagnose", "_aggregate", "_evaluate")


class TestRoundPhases:
    """run_round is its five phase functions, called once each, in order."""

    @pytest.mark.parametrize("overlap", [False, True])
    def test_each_phase_runs_once_per_round_in_order(
        self, monkeypatch, started_threads, overlap
    ):
        config = small_config(method="ilora_s", participation=0.5, hidden_dim=24, rounds=3)
        ds = small_dataset(config)
        heldout = generate_blobs(8, 10, 16, 0.3, 999)
        if overlap:
            overlap_every_layer(monkeypatch)
        unwrapped = [json.dumps(m.to_dict()) for m in run_federation(config, ds, heldout)]

        calls = []

        def recording(name, phase):
            def record(*args, **kwargs):
                calls.append(name)
                return phase(*args, **kwargs)
            return record

        for name in ROUND_PHASES:
            monkeypatch.setattr(federation, name, recording(name, getattr(federation, name)))
        wrapped = [json.dumps(m.to_dict()) for m in run_federation(config, ds, heldout)]
        assert calls == list(ROUND_PHASES) * config.rounds
        assert wrapped == unwrapped
        # over both runs, two helpers a round when overlapped (one per pair),
        # none otherwise
        assert len(started_threads) == (2 * 2 * config.rounds if overlap else 0)


class TestSplitProducts:
    """Cutting the server's products across two threads changes no record."""

    @pytest.mark.parametrize("hidden_dim", [None, 192])
    @pytest.mark.parametrize("participation", [1.0, 0.5])
    @pytest.mark.parametrize("method", METHODS)
    def test_records_match_the_whole_products(
        self, monkeypatch, started_threads, method, participation, hidden_dim
    ):
        # d = 128 or 192 rows: once forced, every base + g B A (the frozen
        # base, the global model and each client's weight in drift) is cut at
        # 64 or 128 rows. d * k is far below the round helper's threshold,
        # so every thread started is a split product's
        config = small_config(
            method=method, client_ranks=method_ranks(method), participation=participation,
            hidden_dim=hidden_dim, rounds=3,
        )
        ds = small_dataset(config, d_in=128)
        heldout = generate_blobs(8, 10, 128, 0.3, 999)
        monkeypatch.setattr(linalg, "SPLIT_MIN_WORK", 2**62)
        whole = [json.dumps(m.to_dict()) for m in run_federation(config, ds, heldout)]

        assert started_threads == []
        monkeypatch.setattr(linalg, "SPLIT_MIN_WORK", 0)
        threads = threading.active_count()
        split = [json.dumps(m.to_dict()) for m in run_federation(config, ds, heldout)]
        assert threading.active_count() == threads
        assert started_threads
        assert split == whole


class TestRunFederation:
    def test_round_count_and_determinism(self):
        config = small_config(rounds=3, method="ilora_s", local_epochs=2)
        ds = small_dataset(config)
        heldout = generate_blobs(8, 10, 16, 0.3, 999)
        a = run_federation(config, ds, heldout)
        b = run_federation(config, ds, heldout)
        assert len(a) == 3
        assert [m.round for m in a] == [1, 2, 3]
        dumps = lambda ms: "\n".join(json.dumps(m.to_dict()) for m in ms)
        assert dumps(a) == dumps(b)

    def test_single_round_matches_run_round(self):
        config = small_config(rounds=1)
        ds = small_dataset(config)
        via_loop = run_federation(config, ds)
        server, clients = init_federation(config, ds)
        _, direct = run_round(server, clients, config)
        assert json.dumps(via_loop[0].to_dict()) == json.dumps(direct.to_dict())

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_runs(self, method):
        ranks = method_ranks(method)
        config = small_config(method=method, client_ranks=ranks, rounds=2)
        ds = small_dataset(config)
        metrics = run_federation(config, ds)
        assert len(metrics) == 2

    def test_frozen_hidden_layer_variant(self):
        config = small_config(hidden_dim=10, rounds=2, method="ilora_s", local_epochs=2)
        ds = small_dataset(config, d_in=12)
        server, clients = init_federation(config, ds)
        assert server.theta0.shape == (10, 8)  # head operates on hidden features
        metrics = run_federation(config, ds, generate_blobs(8, 10, 12, 0.3, 999))
        assert all(np.isfinite(m.train_loss) for m in metrics)


class TestCommunicationModel:
    def test_single_client_matching_ranks_symmetric(self):
        config = small_config(n_clients=1, client_ranks=(4,))
        ctx = RoundContext(sampled_ranks=(4,), d=16, k=8, first_round=False)
        down, up = account_communication(config, ctx)
        assert down == up == 4 * (16 + 8) * 8

    def test_doubling_dimensions_doubles_bytes(self):
        config = small_config()
        base = RoundContext(sampled_ranks=(2, 3, 4, 4), d=16, k=8)
        double = RoundContext(sampled_ranks=(2, 3, 4, 4), d=32, k=16)
        d1, u1 = account_communication(config, base)
        d2, u2 = account_communication(config, double)
        assert (d2, u2) == (2 * d1, 2 * u1)

    def test_full_stack_ratio_grows_linearly_in_clients(self):
        ratios = []
        for s in (2, 4, 8):
            ranks = (3,) * s
            stack = FederationConfig(
                n_clients=s, client_ranks=ranks, server_rank=3, method="full_stack",
                participation=1.0, rounds=1,
            )
            sliced = FederationConfig(
                n_clients=s, client_ranks=ranks, server_rank=3, method="ilora",
                participation=1.0, rounds=1,
            )
            ctx = RoundContext(sampled_ranks=ranks, d=16, k=8, first_round=False)
            stack_down, _ = account_communication(stack, ctx)
            sliced_down, _ = account_communication(sliced, ctx)
            ratios.append(stack_down / sliced_down)
        assert ratios == [2.0, 4.0, 8.0]

    def test_control_traffic_added_for_drift_corrected_variant(self):
        plain = small_config(method="ilora", client_ranks=(4, 4, 4, 4))
        corrected = small_config(method="ilora_s", client_ranks=(4, 4, 4, 4))
        ctx = RoundContext(sampled_ranks=(4, 4, 4, 4), d=16, k=8)
        span = (16 + 8) * 8
        plain_down, plain_up = account_communication(plain, ctx)
        corr_down, corr_up = account_communication(corrected, ctx)
        assert corr_down - plain_down == 4 * 4 * span  # r_s-sized controls per client
        assert corr_up - plain_up == sum((4, 4, 4, 4)) * span  # deltas at client rank
