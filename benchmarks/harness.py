"""Measurement primitives for the fedqr benchmark.

Holds the tail-percentile rule, the span tracer that rebinds
module attributes for the traced run, the self-time arithmetic, computed array
sizes and the provenance block. Nothing here imports fedqr: the tracer is
handed the modules whose names it rebinds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import platform
import statistics
import subprocess
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10
# candidate tail percentiles, low to high
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

MIB = float(1 << 20)

# The host probe: a fixed loop of tiny numpy operations, timed just before and
# just after every set-up and round. On a shared host the CPU alternates,
# every few seconds, between a fast state and a slow one, and the share of
# time spent in each drifts over tens of minutes. The slow state makes the
# probe about 1.7 times slower and fedqr's rounds 1.05-1.4 times slower; the
# probe's time tells the two states apart.
PROBE_STEPS = 400
# a sample is fast-state when both its probes are within this factor of the
# run's fastest probe
FAST_STATE_RATIO = 1.25
# fewest groups of identical work, seen in both states, to estimate the
# slow/fast ratio from; with fewer, samples are left unscaled
MIN_PAIRED_GROUPS = 3

MACHINE_SETTINGS = (
    "none applied: no CPU pinning, frequency control or cache dropping; "
    "machine settings are out of scope, so figures include noise from other "
    "processes on the host"
)


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Highest percentile of TAIL_LADDER with at least ``beyond`` samples above it.

    Returns ``(value, percentile)``. The value is the nearest-rank order
    statistic: position ceil(p * n / 100) in sorted order, counting from 1.
    """
    ordered = sorted(samples)
    n = len(ordered)
    chosen = None
    for percentile in TAIL_LADDER:
        index = math.ceil(percentile * n / 100.0) - 1
        if n - 1 - index >= beyond:
            chosen = (ordered[index], percentile)
    if chosen is None:
        raise ValueError(f"{n} samples leave fewer than {beyond} beyond every percentile")
    return chosen


def host_probe() -> float:
    """Seconds taken by PROBE_STEPS tiny numpy operations; independent of fedqr."""
    a = np.zeros((8, 4))
    start = time.perf_counter()
    for _ in range(PROBE_STEPS):
        a = a * 0.5 + 1.0
    return time.perf_counter() - start


def fast_flags(probes, floor: float) -> list[bool]:
    """Whether each probe time is at most FAST_STATE_RATIO times ``floor``."""
    return [probe <= FAST_STATE_RATIO * floor for probe in probes]


def slow_scale(samples, fast, groups) -> float:
    """How many times longer identical work took in the host's slow state.

    Samples in one group did identical work; ``fast`` flags the fast-state
    ones. The scale is the median, over the groups seen in both states, of
    the slow-state median over the fast-state median, and at least 1. With
    fewer than MIN_PAIRED_GROUPS such groups it is 1.
    """
    by_group: dict = {}
    for sample, group, is_fast in zip(samples, groups, fast):
        by_group.setdefault(group, ([], []))[0 if is_fast else 1].append(sample)
    ratios = [statistics.median(slow) / statistics.median(quick)
              for quick, slow in by_group.values() if quick and slow]
    return max(1.0, statistics.median(ratios)) if len(ratios) >= MIN_PAIRED_GROUPS else 1.0


@dataclass(slots=True)
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index of the enclosing span in Tracer.spans
    counters: dict | None = None


class Tracer:
    """In-memory span stack; spans are appended in opening order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` adds counters."""

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index].counters = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def rebound(self, targets):
        """Rebind each ``(module, attribute, span name, count)`` target; restore on exit."""
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def maybe_span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    result = []
    for index, span in enumerate(spans):
        clipped = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[index]
        )
        covered = 0
        run_start = run_end = None
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        result.append(span.end - span.start - covered)
    return result


@dataclass
class SpanTotals:
    calls: int = 0
    ns: int = 0
    self_ns: int = 0
    counters: dict = field(default_factory=dict)


def totals_under(spans: list[Span], root_name: str) -> tuple[int, dict[str, SpanTotals]]:
    """Number of root spans named ``root_name`` and per-name totals of their trees."""
    selfs = self_times(spans)
    roots: list[int] = []
    n_roots = 0
    totals: dict[str, SpanTotals] = {}
    for index, span in enumerate(spans):
        root = index if span.parent is None else roots[span.parent]
        roots.append(root)
        if spans[root].name != root_name:
            continue
        if span.parent is None:
            n_roots += 1
        entry = totals.setdefault(span.name, SpanTotals())
        entry.calls += 1
        entry.ns += span.end - span.start
        entry.self_ns += selfs[index]
        for key, value in (span.counters or {}).items():
            entry.counters[key] = entry.counters.get(key, 0) + value
    return n_roots, totals


def computed_bytes(*objects) -> int:
    """Bytes of the arrays reachable through dataclass fields and containers.

    A view is resolved to the array that owns its memory, so arrays sharing a
    buffer count once.
    """
    owners: dict[int, np.ndarray] = {}

    def visit(obj):
        if isinstance(obj, np.ndarray):
            owner = obj
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            owners[id(owner)] = owner
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                visit(getattr(obj, f.name))
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                visit(item)

    for obj in objects:
        visit(obj)
    return sum(a.nbytes for a in owners.values())


def qr_flops(m: int, n: int) -> float:
    """Leading-order LAPACK flop count of a thin QR: geqrf plus orgqr.

    For an m x n input with k = min(m, n), geqrf costs 2 max(m, n) k^2 - 2k^3/3
    and forming the m x k factor Q costs 2 m k^2 - 2k^3/3.
    """
    k = min(m, n)
    return 2.0 * max(m, n) * k * k + 2.0 * m * k * k - 4.0 * k**3 / 3.0


def _git_commit(root: Path) -> str | None:
    """HEAD of the git work tree rooted at ``root``; None outside one."""
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def source_digest(package_dir: Path) -> str:
    """SHA-256 over the package's files, so a checkout without git is identified."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package_dir)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_config() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    return {
        part: {
            key: deps.get(part, {}).get(key)
            for key in ("name", "version", "openblas configuration")
        }
        for part in ("blas", "lapack")
    }


def provenance(root: Path, blas_threads: int, blas_env: dict) -> dict:
    return {
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src" / "fedqr"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_config(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas_env": blas_env,
        "platform": platform.platform(),
        "machine_settings": MACHINE_SETTINGS,
    }
