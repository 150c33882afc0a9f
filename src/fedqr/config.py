"""Experiment specification: flat key-value config files, presets, metrics I/O.

The config format is intentionally plain: one ``section.key = value`` pair per
line, ``#`` comments, no nesting. A spec round-trips losslessly through
``serialize_spec``/``parse_config``. Any key can also be overridden through
the environment with prefix ``FEDQR_`` and dots spelled as double underscores
(``FEDQR_FEDERATION__ROUNDS=30``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass, field, replace

from .data import Dataset, generate_blobs
from .federation import ConfigError, FederationConfig, RoundMetrics, check_ranges, ranged

ENV_PREFIX = "FEDQR_"

# heterogeneity grid exercised by the rank-spread preset
PAPER_HETERO_ALPHA_GRID = (0.1, 0.5, 1.0)


class ConfigParseError(ValueError):
    """A config line failed to parse; message carries the line number(s).

    ``line_no`` is one line, or the ascending lines of every key an invariant
    spans; the attribute keeps the first.
    """

    def __init__(self, line_no: int | list[int], message: str):
        lines = [line_no] if isinstance(line_no, int) else line_no
        where = "line" if len(lines) == 1 else "lines"
        super().__init__(f"{where} {', '.join(map(str, lines))}: {message}")
        self.line_no = lines[0]


@dataclass
class DataParams:
    """Synthetic dataset parameters for the training and held-out splits."""

    classes: int = ranged(8, lambda v: v >= 1, ">= 1")
    samples_per_class: int = ranged(60, lambda v: v >= 1, ">= 1")
    input_dim: int = 16  # >= classes: class c's mean sits on axis c
    spread: float = ranged(0.35, lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
    eval_samples_per_class: int = ranged(50, lambda v: v >= 1, ">= 1")
    eval_seed: int = ranged(9999, lambda v: v >= 0, ">= 0")

    def __post_init__(self):
        check_ranges(self)
        if self.input_dim < self.classes:
            raise ConfigError(f"input_dim {self.input_dim} must be >= classes {self.classes}")


@dataclass
class ExperimentSpec:
    federation: FederationConfig = field(default_factory=FederationConfig)
    data: DataParams = field(default_factory=DataParams)
    output_path: str = "metrics.jsonl"
    preset: str = "default"

    def build_datasets(self) -> tuple[Dataset, Dataset]:
        train = generate_blobs(
            self.data.classes,
            self.data.samples_per_class,
            self.data.input_dim,
            self.data.spread,
            self.federation.data_seed,
        )
        heldout = generate_blobs(
            self.data.classes,
            self.data.eval_samples_per_class,
            self.data.input_dim,
            self.data.spread,
            self.data.eval_seed,
        )
        return train, heldout


def experiment_seeds(seed: int) -> dict[str, int]:
    """The three stream seeds one experiment seed fans out to.

    Data ``seed``, partition ``100 + seed``, training ``200 + seed``: the
    scheme behind the CLI's ``--seed`` and the committed drift oracle.
    """
    return {"data_seed": seed, "partition_seed": 100 + seed, "train_seed": 200 + seed}


def _default_spec() -> ExperimentSpec:
    # appendix-style defaults: homogeneous rank 4, one local epoch, five rounds
    return ExperimentSpec(
        federation=FederationConfig(
            n_clients=8,
            client_ranks=(4,) * 8,
            server_rank=4,
            method="ilora",
            local_epochs=1,
            rounds=5,
            lr=1e-4,
        )
    )


def _paper_spec() -> ExperimentSpec:
    # main mixed-rank setting: client rank 4 under a rank-6 server budget,
    # LoRA alpha 16, damped global updates
    spec = _default_spec()
    spec.federation = replace(
        spec.federation,
        server_rank=6,
        lora_alpha=16.0,
        lora_scaling=None,
        global_scale=0.5,
    )
    spec.preset = "paper"
    return spec


def _paper_hetero_spec() -> ExperimentSpec:
    # rank-spread setting: client ranks cycle through 2/8/16; pair with any
    # alpha from PAPER_HETERO_ALPHA_GRID (default is the grid midpoint)
    ranks = tuple([2, 8, 16][i % 3] for i in range(9))
    return ExperimentSpec(
        federation=FederationConfig(
            n_clients=9,
            client_ranks=ranks,
            server_rank=16,
            method="ilora",
            local_epochs=1,
            rounds=5,
            lr=1e-4,
            dirichlet_alpha=0.5,
        ),
        data=DataParams(classes=16, samples_per_class=30, input_dim=24, spread=0.35),
        preset="paper-hetero",
    )


def _canonical_noniid_spec() -> ExperimentSpec:
    # drift-study preset: softmax regression, 8 clients, Dir(0.3), two local
    # epochs, thirty rounds; hyperparameters pinned by the committed oracle run
    return ExperimentSpec(
        federation=FederationConfig(
            n_clients=8,
            client_ranks=(4,) * 8,
            server_rank=4,
            method="ilora",
            participation=1.0,
            local_epochs=2,
            batch_size=16,
            rounds=30,
            lr=0.015,
            dirichlet_alpha=0.3,
            lora_scaling=1.0,
            data_seed=1,
            partition_seed=101,
            train_seed=201,
        ),
        data=DataParams(
            classes=8,
            samples_per_class=50,
            input_dim=16,
            spread=0.25,
            eval_samples_per_class=125,
        ),
        preset="canonical-noniid",
    )


def _canonical_iid_spec() -> ExperimentSpec:
    spec = _canonical_noniid_spec()
    spec.federation = replace(spec.federation, dirichlet_alpha=1e6)
    spec.preset = "canonical-iid"
    return spec


PRESETS = {
    "default": _default_spec,
    "paper": _paper_spec,
    "paper-hetero": _paper_hetero_spec,
    "canonical-noniid": _canonical_noniid_spec,
    "canonical-iid": _canonical_iid_spec,
}


def preset_spec(name: str) -> ExperimentSpec:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    spec = PRESETS[name]()
    spec.preset = name
    return spec


# --- key-value schema -------------------------------------------------------

def _optional(parse):
    return lambda text: None if text.lower() == "none" else parse(text)


def _format_optional(value) -> str:
    return "none" if value is None else repr(value)


# one (parse, format) pair per field type a config section may declare;
# ranks are a comma list
_CODECS = {
    int: (int, str),
    float: (float, repr),
    str: (str, str),
    tuple[int, ...]: (
        lambda text: tuple(int(part) for part in text.split(",") if part.strip()),
        lambda ranks: ",".join(str(r) for r in ranks),
    ),
    float | None: (_optional(float), _format_optional),
    int | None: (_optional(int), _format_optional),
}


def _section_schema(section: str, cls) -> dict[str, tuple[str, str, object, object]]:
    """``section.field`` -> (section, field, parse, format), in field order.

    A field whose type has no codec raises here, at import, so no field can
    be left out of the config format.
    """
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        if hints[f.name] not in _CODECS:
            raise TypeError(f"{cls.__name__}.{f.name}: no config codec for {hints[f.name]}")
        schema[f"{section}.{f.name}"] = (section, f.name, *_CODECS[hints[f.name]])
    return schema


# key -> (section attr, field name, parse, format); the section is None for
# keys stored on the spec itself
_SCHEMA: dict[str, tuple[str | None, str, object, object]] = {
    **_section_schema("federation", FederationConfig),
    **_section_schema("data", DataParams),
    "output.path": (None, "output_path", str, str),
}


def _parse_value(key: str, raw: str):
    """Parse ``raw`` as the value of ``key``; a ValueError names the key."""
    if key not in _SCHEMA:
        raise ValueError(f"unknown key {key!r}")
    _, _, parse, _ = _SCHEMA[key]
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {exc}") from exc


def _apply_updates(spec: ExperimentSpec, updates: dict[str, object], blame) -> ExperimentSpec:
    """Apply parsed key/value pairs in one shot per section.

    Grouping matters: dataclass validation runs on every ``replace``, and it
    must see the final field combination, not a half-updated one. When a
    section's combined update fails, ``blame(keys, message)`` builds the
    error raised, given that section's updated keys.
    """
    grouped: dict[str, dict[str, object]] = {}
    for key, value in updates.items():
        section, name, _, _ = _SCHEMA[key]
        if section is None:
            setattr(spec, name, value)
        else:
            grouped.setdefault(section, {})[name] = value
    for section, fields_ in grouped.items():
        try:
            setattr(spec, section, replace(getattr(spec, section), **fields_))
        except ValueError as exc:
            keys = [f"{section}.{name}" for name in fields_]
            raise blame(keys, str(exc)) from exc
    return spec


def parse_config(text: str) -> ExperimentSpec:
    """Parse the flat ``section.key = value`` format into a validated spec.

    A ``preset = <name>`` line (if any) is applied first; remaining keys
    override its values. A key may be given once. Errors carry the offending
    line number; when a section's combined values fail validation, the lines
    of every key given for that section: ``lines 1, 3: ...``.
    """
    pairs: list[tuple[int, str, str]] = []
    preset_name = "default"
    seen: dict[str, int] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigParseError(i, f"expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in seen:
            raise ConfigParseError(i, f"{key} given twice, on lines {seen[key]} and {i}")
        seen[key] = i
        if key == "preset":
            if raw not in PRESETS:
                raise ConfigParseError(i, f"unknown preset {raw!r}")
            preset_name = raw
        else:
            pairs.append((i, key, raw))
    spec = preset_spec(preset_name)
    updates = {}
    for line_no, key, raw in pairs:
        try:
            updates[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigParseError(line_no, str(exc)) from exc

    def blame(keys, message):
        return ConfigParseError([seen[key] for key in keys], message)

    return _apply_updates(spec, updates, blame)


def apply_env_overrides(spec: ExperimentSpec, environ=None) -> ExperimentSpec:
    """Override spec keys from FEDQR_-prefixed environment variables.

    An error names the variable whose value failed to parse, or every
    variable of a section whose combined update fails validation:
    ``FEDQR_FEDERATION__LR: lr must be finite and > 0, got -1.0``.
    """
    environ = os.environ if environ is None else environ
    updates = {}
    variables = {}
    for env_key, raw in sorted(environ.items()):
        if not env_key.startswith(ENV_PREFIX):
            continue
        key = env_key[len(ENV_PREFIX) :].lower().replace("__", ".")
        if key == "preset":
            continue
        try:
            updates[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ValueError(f"{env_key}: {exc}") from exc
        variables[key] = env_key

    def blame(keys, message):
        return ValueError(f"{', '.join(variables[key] for key in keys)}: {message}")

    return _apply_updates(spec, updates, blame)


def serialize_spec(spec: ExperimentSpec) -> str:
    """Emit every key explicitly; parsing the result reproduces the spec."""
    out = [f"preset = {spec.preset}"]
    for key in _SCHEMA:
        section, name, _, fmt = _SCHEMA[key]
        holder = spec if section is None else getattr(spec, section)
        out.append(f"{key} = {fmt(getattr(holder, name))}")
    return "\n".join(out) + "\n"


def write_metrics(metrics: list[RoundMetrics], path: str) -> None:
    """One JSON object per round, in round order."""
    with open(path, "w", encoding="ascii") as fh:
        for record in metrics:
            fh.write(json.dumps(record.to_dict()) + "\n")


def read_metrics(path: str) -> list[dict]:
    with open(path, "r", encoding="ascii") as fh:
        return [json.loads(line) for line in fh if line.strip()]
