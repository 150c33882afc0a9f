"""The benchmark's workloads, each driven through fedqr's public API.

A run repeats units. A unit is a set-up (repeated, see run.SETUPS_PER_UNIT)
followed by a fixed list of rounds on one of five input sets; unit u of a run with seed n uses the set at
position (n + u) mod 5, and a run lasts at least five units, so every run
covers all five. The final_* metrics are deterministic functions of the inputs, and
averaging them over the same five sets keeps them equal across seeds, so a
change in them is a change in the arithmetic, not a different draw. Every
unit with the same input set gets the same inputs, so its per-round records
must repeat byte for byte. The runner times ``setup`` and ``step``
only; ``prepare`` (input generation) and ``check`` (output checks) run outside
the timed spans.

Functions are looked up as module attributes at call time (``federation.
run_round``, not an imported name), so the traced run's rebinding sees the
benchmark's own calls as well as the library's internal ones.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from fedqr import adapter, aggregation, config, data, federation, linalg, optim, verify

from harness import computed_bytes, qr_flops

# relative tolerance of every output check, the verify gate of the drift oracle
GATE = 1e-9


def _relative_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(got), abs(want), 1e-8)


def _array_gap(got: np.ndarray, want: np.ndarray) -> float:
    return linalg.frobenius_norm(got - want) / max(linalg.frobenius_norm(want), 1e-300)


class Workload:
    """Unit u uses input set ``sets[(seed + u) % len(sets)]``; min_units covers them all."""

    def __init__(self, seed: int, sets=(1, 2, 3, 4, 5)):
        self.sets = tuple(sets)
        self.first = seed % len(self.sets)
        self.min_units = len(self.sets)

    def unit_key(self, unit: int) -> int:
        return self.sets[(self.first + unit) % len(self.sets)]

    def finish(self, unit: int, records: list[dict]) -> list[tuple[int, str]]:
        """Unit-level checks: (round index, problem) pairs."""
        return []


class FederationWorkload(Workload):
    """Units of whole federations: datasets, partition, init, then run_round."""

    def unit_specs(self, unit: int) -> list[config.ExperimentSpec]:
        raise NotImplementedError

    def setup(self, unit: int):
        feds = []
        for spec in self.unit_specs(unit):
            fc = spec.federation
            train, heldout = spec.build_datasets()
            plan = data.dirichlet_partition(
                train, fc.n_clients, fc.dirichlet_alpha, fc.partition_seed
            )
            server, clients = federation.init_federation(fc, train, plan, heldout)
            feds.append([fc, server, clients])
        return feds

    def rounds(self, unit: int) -> int:
        return sum(spec.federation.rounds for spec in self.unit_specs(unit))

    def final_rounds(self, unit: int) -> list[int]:
        ends, total = [], 0
        for spec in self.unit_specs(unit):
            total += spec.federation.rounds
            ends.append(total - 1)
        return ends

    def _federation_at(self, state, index: int):
        for fed in state:
            if index < fed[0].rounds:
                return fed
            index -= fed[0].rounds
        raise IndexError(index)

    def prepare(self, state, index: int):
        fed = self._federation_at(state, index)
        # a client was sampled this round iff its optimizer stepped
        return fed, tuple(c.state_a.step for c in fed[2])

    def step(self, state, inputs):
        fed, _ = inputs
        fc, server, clients = fed
        fed[1], metrics = federation.run_round(server, clients, fc)
        return metrics

    def check(self, state, inputs, metrics) -> tuple[dict, list[str]]:
        (fc, server, clients), steps_before = inputs
        record = metrics.to_dict()
        problems = []
        floats = [v for v in record.values() if isinstance(v, float)]
        if not all(math.isfinite(v) for v in floats):
            problems.append(f"nonfinite round metrics {record}")
        for key in ("train_accuracy", "heldout_accuracy"):
            if not 0.0 <= record[key] <= 1.0:
                problems.append(f"{key} {record[key]} outside [0, 1]")
        sampled = [c for c, before in zip(clients, steps_before) if c.state_a.step != before]
        d, k = server.theta0.shape
        ctx = federation.RoundContext(
            sampled_ranks=tuple(c.rank for c in sampled), d=d, k=k,
            first_round=metrics.round == 1,
        )
        expected = federation.account_communication(fc, ctx)
        if (metrics.bytes_down, metrics.bytes_up) != expected:
            problems.append(
                f"bytes {(metrics.bytes_down, metrics.bytes_up)} != analytic {expected}"
            )
        if fc.method in federation.QR_METHODS:
            top = server.last_result.server_adapter
            applied = server.base_frozen + fc.global_scale * (top.b_factor @ top.a_factor)
            gap = _array_gap(server.global_model, applied)
            if gap > GATE:
                problems.append(f"global model is not base + aggregate (gap {gap:.2e})")
        return record, problems

    def state_of(self, state):
        return [(server, clients) for _, server, clients in state]


class CanonicalWorkload(FederationWorkload):
    """canonical-noniid, 30 rounds, ilora then ilora_s, checked against the drift oracle.

    The input sets are the oracle seeds s under the oracle's scheme (data s,
    partition 100+s, train 200+s), so every run checks the whole oracle.
    """

    methods = ("ilora", "ilora_s")

    def __init__(self, seed: int):
        self.oracle = verify.load_drift_oracle()
        super().__init__(seed, self.oracle["seeds"])

    def unit_specs(self, unit: int) -> list[config.ExperimentSpec]:
        s = self.unit_key(unit)
        specs = []
        for method in self.methods:
            spec = config.preset_spec("canonical-noniid")
            spec.federation = replace(
                spec.federation, method=method,
                data_seed=s, partition_seed=100 + s, train_seed=200 + s,
            )
            specs.append(spec)
        return specs

    def finish(self, unit: int, records: list[dict]) -> list[tuple[int, str]]:
        position = self.sets.index(self.unit_key(unit))
        problems = []
        for method, end in zip(self.methods, self.final_rounds(unit)):
            final = records[end]
            for key, oracle_key in (
                ("drift", "final_drift"),
                ("train_loss", "final_train_loss"),
                ("heldout_accuracy", "final_heldout_accuracy"),
            ):
                want = self.oracle[method][oracle_key][position]
                if _relative_gap(final[key], want) > GATE:
                    problems.append((end, (
                        f"{method} seed {self.unit_key(unit)} {key} {final[key]!r} "
                        f"!= oracle {want!r}"
                    )))
        return problems


class WideHeteroWorkload(FederationWorkload):
    """ilora_s on a frozen tanh layer: d x k = 1024 x 128, 16 mixed-rank clients.

    Input set s seeds data with s, the partition with 100+s and training with
    200+s, as the drift oracle does.
    """

    def unit_specs(self, unit: int) -> list[config.ExperimentSpec]:
        s = self.unit_key(unit)
        spec = config.preset_spec("paper-hetero")
        spec.federation = replace(
            spec.federation,
            n_clients=16,
            client_ranks=tuple((4, 8, 16)[i % 3] for i in range(16)),
            server_rank=16,
            method="ilora_s",
            participation=0.5,
            local_epochs=1,
            batch_size=32,
            lr=0.02,
            dirichlet_alpha=0.5,
            hidden_dim=1024,
            rounds=10,
            data_seed=s,
            partition_seed=100 + s,
            train_seed=200 + s,
        )
        spec.data = replace(
            spec.data, classes=128, samples_per_class=16, input_dim=128,
            eval_samples_per_class=20,
        )
        return [spec]


@dataclass
class LoraAggState:
    key: int
    sample_counts: list[int]
    server: federation.ServerState


class LoraAggWorkload(Workload):
    """Server-only fusion at a 1024 x 1024 layer with control deltas attached.

    A round runs concat_reconstruct, qr_compress, personalize per client,
    apply_global, then pad_delta and server_control_aggregate. Input set s
    seeds the pre-trained weight and the sample counts; round j of a unit gets
    fresh client updates seeded by (s, j).
    """

    d = k = 1024
    ranks = (16, 8) * 4
    server_rank = 32
    rounds_per_unit = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        fc = federation.FederationConfig(
            n_clients=len(self.ranks), client_ranks=self.ranks,
            server_rank=self.server_rank, method="ilora_s",
        )
        ctx = federation.RoundContext(sampled_ranks=self.ranks, d=self.d, k=self.k)
        self.bytes_down, self.bytes_up = federation.account_communication(fc, ctx)

    def rounds(self, unit: int) -> int:
        return self.rounds_per_unit

    def final_rounds(self, unit: int) -> list[int]:
        return [self.rounds_per_unit - 1]

    def setup(self, unit: int) -> LoraAggState:
        key = self.unit_key(unit)
        rng = np.random.default_rng([key, 1])
        counts = [int(n) for n in rng.integers(50, 500, size=len(self.ranks))]
        theta0 = rng.standard_normal((self.d, self.k)) / np.sqrt(self.d)
        base, _ = adapter.qr_orthogonal_init(theta0, max(self.ranks), self.server_rank)
        server = federation.ServerState(
            theta0=theta0,
            base_frozen=base.frozen,
            global_model=theta0.copy(),
            global_bias=np.zeros((1, self.k)),
            global_controls=optim.zero_controls(self.d, self.k, self.server_rank),
        )
        return LoraAggState(key, counts, server)

    def prepare(self, state: LoraAggState, index: int) -> list[aggregation.ClientUpdate]:
        rng = np.random.default_rng([state.key, 2, index])
        updates = []
        for cid, (r, n) in enumerate(zip(self.ranks, state.sample_counts)):
            b = rng.standard_normal((self.d, r)) / np.sqrt(self.d)
            a = rng.standard_normal((r, self.k)) / np.sqrt(self.k)
            deltas = (
                0.01 * rng.standard_normal((r, self.k)),
                0.01 * rng.standard_normal((self.d, r)),
            )
            lora = adapter.LoraAdapter(b, a, r, adapter.DEFAULT_LORA_ALPHA / r)
            updates.append(aggregation.ClientUpdate(cid, lora, n, deltas))
        return updates

    def step(self, state: LoraAggState, updates):
        server = state.server
        r_s = self.server_rank
        delta = aggregation.concat_reconstruct(updates)
        result = aggregation.qr_compress(delta, r_s)
        personal = [aggregation.personalize(result, u.adapter.rank) for u in updates]
        server.global_model = aggregation.apply_global(server.base_frozen, result)
        padded_a = [optim.pad_delta(u.control_deltas[0], r_s, axis=0) for u in updates]
        padded_b = [optim.pad_delta(u.control_deltas[1], r_s, axis=1) for u in updates]
        previous = server.global_controls
        server.global_controls = optim.ControlVariates(
            c_a=optim.server_control_aggregate(previous.c_a, padded_a),
            c_b=optim.server_control_aggregate(previous.c_b, padded_b),
            r_ref=r_s,
        )
        server.last_result = result
        return delta, result, personal, previous

    def check(self, state: LoraAggState, updates, output) -> tuple[dict, list[str]]:
        delta, result, personal, previous = output
        server = state.server
        r_s = self.server_rank
        problems = []
        total = float(sum(state.sample_counts))
        dense = np.zeros((self.d, self.k))
        sum_a = np.zeros((r_s, self.k))
        sum_b = np.zeros((self.d, r_s))
        for u in updates:
            lora = u.adapter
            dense += (u.sample_count / total) * lora.scaling * (lora.b_factor @ lora.a_factor)
            sum_a[: lora.rank, :] += u.control_deltas[0]
            sum_b[:, : lora.rank] += u.control_deltas[1]
        gap = _array_gap(delta, dense)
        if gap > GATE:
            problems.append(f"fused update differs from the dense sum by {gap:.2e}")
        basis = result.q[:, :r_s]
        for u, p in zip(updates, personal):
            residual = linalg.subspace_residual(basis, p.b_factor)
            if residual > GATE * linalg.frobenius_norm(p.b_factor):
                problems.append(f"client {u.client_id} slice leaves Q's span ({residual:.2e})")
        top = result.server_adapter
        gap = _array_gap(server.global_model, server.base_frozen + top.b_factor @ top.a_factor)
        if gap > GATE:
            problems.append(f"global model is not base + aggregate (gap {gap:.2e})")
        n = len(updates)
        for got, old, summed in (
            (server.global_controls.c_a, previous.c_a, sum_a),
            (server.global_controls.c_b, previous.c_b, sum_b),
        ):
            gap = _array_gap(got, old + summed / n)
            if gap > GATE:
                problems.append(f"global controls differ from the mean delta by {gap:.2e}")
        digest = hashlib.sha256()
        for array in (top.b_factor, top.a_factor, server.global_model,
                      server.global_controls.c_a, server.global_controls.c_b,
                      *(x for p in personal for x in (p.b_factor, p.a_factor))):
            digest.update(np.ascontiguousarray(array).tobytes())
        error = result.truncation_error
        record = {
            # no model here: the slot holds the server fit's relative squared loss
            "train_loss": (error / linalg.frobenius_norm(delta)) ** 2,
            "truncation_error": error,
            "bytes_down": self.bytes_down,
            "bytes_up": self.bytes_up,
            "sha256": digest.hexdigest(),
        }
        return record, problems

    def state_of(self, state: LoraAggState):
        return state.server


WORKLOADS = {
    "canonical": CanonicalWorkload,
    "lora_agg": LoraAggWorkload,
    "wide_hetero": WideHeteroWorkload,
}


def _out_bytes(args, result) -> dict:
    return {"out_bytes": computed_bytes(result)}


def _qr_kept(args, result) -> dict:
    return {
        "out_bytes": computed_bytes(result),
        "kept": result.server_adapter.rank,
        "computed": result.q.shape[1],
    }


def _qr_work(args, result) -> dict:
    return {"flop": qr_flops(*args[0].shape)}


def trace_targets() -> list[tuple]:
    """(module, attribute, span name, counter) for every name the traced run rebinds.

    A function is rebound in each module that looks it up while the benchmark
    runs: ``federation`` for the library's own calls inside a round, the
    defining module for the benchmark's direct calls.
    """
    targets = [
        (config, "generate_blobs", "data.generate_blobs", None),
        (data, "dirichlet_partition", "data.dirichlet_partition", None),
        (federation, "init_federation", "federation.init_federation", None),
        (federation, "run_round", "federation.run_round", None),
        (federation, "head_loss_and_grads", "model.head_loss_and_grads", None),
        (federation, "head_accuracy", "model.head_accuracy", None),
        (federation, "effective_weight", "adapter.effective_weight", None),
        (federation, "factor_gradients", "adapter.factor_gradients", None),
        (federation, "adamw_step", "optim.adamw_step", None),
        (aggregation, "thin_qr", "linalg.thin_qr", _qr_work),
    ]
    for attr in ("corrected_gradient", "local_control_update", "slice_controls",
                 "pad_delta", "server_control_aggregate"):
        targets.append((federation, attr, "optim.controls", None))
    for attr in ("pad_delta", "server_control_aggregate"):
        targets.append((optim, attr, "optim.controls", None))
    for module in (federation, aggregation):
        targets += [
            (module, "concat_reconstruct", "aggregation.concat_reconstruct", _out_bytes),
            (module, "qr_compress", "aggregation.qr_compress", _qr_kept),
            (module, "personalize", "aggregation.personalize", _out_bytes),
            (module, "apply_global", "aggregation.apply_global", _out_bytes),
        ]
    return targets
