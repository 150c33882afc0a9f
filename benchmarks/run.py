"""Run one fedqr benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload canonical --seed 1 --seconds 20 --trace 0

Run it from the repository root or anywhere else: fedqr is imported from the
``src`` directory next to this one, never from an installed copy. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run's
details and provenance.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs every unit twice, untraced and then with every name in
``workloads.trace_targets()`` rebound to a span recorder, checks that both
produced byte-identical per-round records, and reports the per-module metrics
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread. With two on a 2-CPU host shared with other processes, the
# first threaded LAPACK QR of a process stalled for 0.8-1.3 s with hundreds
# of involuntary context switches, against 10-13 ms single-threaded; that
# was the cause of wide_hetero's 0.17-1.1 s set-up spread across processes.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Each unit sets up this many times and runs its rounds on the last state.
# The repeats give setup_s, a median, enough samples in both host states.
SETUPS_PER_UNIT = 3

# per-module span metrics: (span name, quantity, divided by set-ups or rounds)
SPAN_METRICS = (
    ("data.generate_blobs", "ms", "setup"),
    ("data.dirichlet_partition", "ms", "setup"),
    ("federation.init_federation", "ms", "setup"),
    ("federation.run_round", "self_ms", "round"),
    ("model.head_loss_and_grads", "calls", "round"),
    ("model.head_loss_and_grads", "ms", "round"),
    ("model.head_accuracy", "calls", "round"),
    ("model.head_accuracy", "ms", "round"),
    ("adapter.effective_weight", "calls", "round"),
    ("adapter.effective_weight", "ms", "round"),
    ("adapter.factor_gradients", "ms", "round"),
    ("optim.adamw_step", "calls", "round"),
    ("optim.adamw_step", "ms", "round"),
    ("optim.controls", "ms", "round"),
    ("aggregation.concat_reconstruct", "ms", "round"),
    ("aggregation.qr_compress", "self_ms", "round"),
    ("aggregation.personalize", "ms", "round"),
    ("aggregation.apply_global", "ms", "round"),
    ("linalg.thin_qr", "calls", "round"),
    ("linalg.thin_qr", "ms", "round"),
    ("linalg.thin_qr", "gflop", "round"),
)
QUANTITY_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "gflop": "GFLOP"}


class Adjusted(NamedTuple):
    setup_s: list
    round_s: list
    scale: float  # slow-state time over fast-state time for identical work
    fast_setups: int
    fast_rounds: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    units: int = 0
    setup_s: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    setup_probe: list = field(default_factory=list)  # slower of the host probes around each set-up
    round_probe: list = field(default_factory=list)  # and around each timed round
    round_group: list = field(default_factory=list)  # (unit key, round index) of each round
    records: list = field(default_factory=list)
    finals: dict = field(default_factory=dict)  # unit key -> final-round records
    state_bytes: int | None = None
    problems: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(message, file=sys.stderr)

    def adjusted(self) -> Adjusted:
        """Set-up and round times, the slow-state ones divided by the run's scale.

        A time is fast-state when both host probes around it are within
        FAST_STATE_RATIO of the run's fastest probe. The scale is measured on
        the rounds, which repeat identical work far more often than set-ups
        do, and applies to both.
        """
        from harness import fast_flags, slow_scale

        floor = min(self.setup_probe + self.round_probe)
        setup_fast = fast_flags(self.setup_probe, floor)
        round_fast = fast_flags(self.round_probe, floor)
        scale = slow_scale(self.round_s, round_fast, self.round_group)

        def scaled(times, fast):
            return [t if is_fast else t / scale for t, is_fast in zip(times, fast)]

        return Adjusted(scaled(self.setup_s, setup_fast), scaled(self.round_s, round_fast),
                        scale, sum(setup_fast), sum(round_fast))


def run_unit(workload, unit: int, tally: Tally, references: dict, tracer=None) -> None:
    from harness import computed_bytes, host_probe, maybe_span

    for _ in range(SETUPS_PER_UNIT):
        state = None  # the previous state is freed before the next set-up
        before = host_probe()
        with maybe_span(tracer, "bench.setup"):
            start = time.perf_counter()
            state = workload.setup(unit)
            tally.setup_s.append(time.perf_counter() - start)
        tally.setup_probe.append(max(before, host_probe()))
    tally.units += 1
    if tally.state_bytes is None:
        tally.state_bytes = computed_bytes(workload.state_of(state))

    records, lines, failed = [], [], set()
    n_rounds = workload.rounds(unit)
    for index in range(n_rounds):
        inputs = workload.prepare(state, index)
        tally.attempted += 1
        try:
            before = host_probe()
            with maybe_span(tracer, "bench.round"):
                start = time.perf_counter()
                output = workload.step(state, inputs)
                elapsed = time.perf_counter() - start
            probe = max(before, host_probe())
            record, problems = workload.check(state, inputs, output)
        except Exception:
            # the unit cannot go on: this round and the ones it would have
            # run count as attempted and failed; the run goes on
            skipped = n_rounds - index - 1
            tally.attempted += skipped
            tally.failed += len(failed) + 1 + skipped
            tally.fail(f"unit {unit} round {index} raised:\n{traceback.format_exc()}")
            return
        tally.round_s.append(elapsed)
        tally.round_probe.append(probe)
        tally.round_group.append((workload.unit_key(unit), index))
        records.append(record)
        lines.append(json.dumps({"index": index, **record}, sort_keys=True))
        for problem in problems:
            failed.add(index)
            tally.fail(f"unit {unit} round {index}: {problem}")

    for index, problem in workload.finish(unit, records):
        failed.add(index)
        tally.fail(f"unit {unit}: {problem}")
    key = workload.unit_key(unit)
    reference = references.setdefault(key, lines)
    for index, (line, want) in enumerate(zip(lines, reference)):
        if line != want:
            failed.add(index)
            tally.fail(f"unit {unit} round {index} record differs from the first run of "
                       f"unit key {key}: {line} != {want}")
    tally.failed += len(failed)
    tally.records += records
    tally.finals[key] = [records[i] for i in workload.final_rounds(unit)]


def run_units(workload, tally: Tally, references: dict, seconds: float) -> None:
    """Run units until ``seconds`` have passed and at least min_units ran."""
    deadline = time.perf_counter() + seconds
    unit = 0
    while unit < workload.min_units or time.perf_counter() < deadline:
        run_unit(workload, unit, tally, references)
        unit += 1


def run_paired(workload, untraced: Tally, traced: Tally, references: dict,
               seconds: float, tracer) -> None:
    """Run each unit untraced, then again traced, until ``seconds`` have passed.

    Alternating unit by unit exposes both tallies to the same machine state,
    so their ratio measures the tracing overhead rather than the host.
    """
    from workloads import trace_targets

    deadline = time.perf_counter() + seconds
    unit = 0
    while unit < workload.min_units or time.perf_counter() < deadline:
        run_unit(workload, unit, untraced, references)
        with tracer.rebound(trace_targets()):
            run_unit(workload, unit, traced, references, tracer)
        unit += 1


def _mean(values) -> float | None:
    """The mean, or None when every unit that would give a value failed."""
    return sum(values) / len(values) if values else None


def _final(tally: Tally, key: str) -> float | None:
    return _mean([r[key] for finals in tally.finals.values() for r in finals])


def end_to_end(tally: Tally) -> dict:
    """The end-to-end metrics; a value of None is left out of the result.

    The time metrics are scaled to the host's fast state (``Tally.adjusted``).
    """
    from harness import tail_percentile

    adjusted = tally.adjusted()
    setups, rounds = adjusted.setup_s, adjusted.round_s
    tail, _ = tail_percentile(rounds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "round_ms_p50": (1e3 * statistics.median(rounds), "ms"),
        "round_ms_tail": (1e3 * tail, "ms"),
        "rounds_per_s": (len(rounds) / sum(rounds), "1/s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        "final_train_loss": (_final(tally, "train_loss"), "loss"),
        "final_truncation_error": (_final(tally, "truncation_error"), "norm"),
    }


def per_layer(spans, untraced: Tally, traced: Tally) -> tuple[dict, dict]:
    from harness import MIB, SpanTotals, totals_under

    n_rounds, by_round = totals_under(spans, "bench.round")
    n_setups, by_setup = totals_under(spans, "bench.setup")
    metrics = {}
    for name, quantity, per in SPAN_METRICS:
        totals = (by_setup if per == "setup" else by_round).get(name, SpanTotals())
        count = n_setups if per == "setup" else n_rounds
        value = {
            "calls": totals.calls,
            "ms": totals.ns / 1e6,
            "self_ms": totals.self_ns / 1e6,
            "gflop": totals.counters.get("flop", 0.0) / 1e9,
        }[quantity]
        metrics[f"{name}.{quantity}"] = (value / count, QUANTITY_UNITS[quantity])

    out_bytes = sum(t.counters.get("out_bytes", 0) for n, t in by_round.items()
                    if n.startswith("aggregation."))
    qr = by_round.get("aggregation.qr_compress", SpanTotals())
    computed = qr.counters.get("computed", 0)
    metrics["federation.state_mb"] = (traced.state_bytes / MIB, "MiB")
    metrics["federation.bytes_down"] = (_mean([r["bytes_down"] for r in traced.records]), "bytes")
    metrics["federation.bytes_up"] = (_mean([r["bytes_up"] for r in traced.records]), "bytes")
    metrics["aggregation.out_mb"] = (out_bytes / MIB / n_rounds, "MiB")
    metrics["aggregation.qr_kept_ratio"] = (
        qr.counters.get("kept", 0) / computed if computed else 0.0, "ratio")

    untraced_rounds, traced_rounds = untraced.adjusted().round_s, traced.adjusted().round_s
    untraced_rate = len(untraced_rounds) / sum(untraced_rounds)
    traced_rate = len(traced_rounds) / sum(traced_rounds)
    rounds = by_round["bench.round"]
    unexplained = rounds.self_ns + by_round.get("federation.run_round", SpanTotals()).self_ns
    metrics["trace.slowdown"] = (untraced_rate / traced_rate, "ratio")
    metrics["trace.unexplained_share"] = (unexplained / rounds.ns, "ratio")
    overhead = {
        "untraced_rounds_per_s": untraced_rate,
        "traced_rounds_per_s": traced_rate,
        "traced_rounds": n_rounds,
        "traced_setups": n_setups,
        "spans": len(spans),
    }
    return metrics, overhead


def _summary(tally: Tally) -> dict:
    from harness import TAIL_BEYOND, tail_percentile

    summary = {
        "units": tally.units,
        "setups": len(tally.setup_s),
        "setup_first_s": tally.setup_s[0] if tally.setup_s else None,
        "setup_samples_s": tally.setup_s,
        "rounds": len(tally.round_s),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted if tally.attempted else None,
    }
    if len(tally.round_s) >= 2 * TAIL_BEYOND:
        adjusted = tally.adjusted()
        summary["tail_percentile"] = tail_percentile(adjusted.round_s)[1]
        summary["host_state"] = {
            "probe_floor_ms": 1e3 * min(tally.setup_probe + tally.round_probe),
            "fast_setups": adjusted.fast_setups,
            "fast_rounds": adjusted.fast_rounds,
            "scale": adjusted.scale,
            "unscaled_setup_s": statistics.median(tally.setup_s),
            "unscaled_round_ms_p50": 1e3 * statistics.median(tally.round_s),
            "unscaled_rounds_per_s": len(tally.round_s) / sum(tally.round_s),
        }
    return summary


def main(argv=None) -> int:
    if not (SRC / "fedqr" / "__init__.py").is_file():
        print(f"fedqr sources not found at {SRC / 'fedqr'}", file=sys.stderr)
        return 2
    # before the first numpy import, so the BLAS library reads them
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import fedqr
    from harness import TAIL_BEYOND, Tracer, provenance
    from workloads import WORKLOADS

    if Path(fedqr.__file__).resolve().parent != SRC / "fedqr":
        print(f"imported fedqr from {fedqr.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    references: dict = {}
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace}
    if args.trace:
        untraced, traced, tracer = Tally(), Tally(), Tracer()
        run_paired(workload, untraced, traced, references, args.seconds, tracer)
        tallies = (untraced, traced)
        details["untraced"] = _summary(untraced)
        details["traced"] = _summary(traced)
    else:
        tally = Tally()
        run_units(workload, tally, references, args.seconds)
        tallies = (tally,)
        details["run"] = _summary(tally)
    details["provenance"] = provenance(
        ROOT, BLAS_THREADS, {var: os.environ[var] for var in BLAS_ENV}
    )

    # even the median, the lowest tail percentile, needs TAIL_BEYOND rounds beyond it
    if any(len(t.round_s) < 2 * TAIL_BEYOND for t in tallies):
        print(json.dumps({"details": details}))
        print("too few successful rounds to report metrics", file=sys.stderr)
        return 1
    if args.trace:
        metrics, details["trace_overhead"] = per_layer(tracer.spans, *tallies)
    else:
        metrics = end_to_end(tally)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    details["problems"] = [p for t in tallies for p in t.problems][:20]
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and all(v is not None for v, _ in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
