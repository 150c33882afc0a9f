import argparse
import dataclasses
import json
import math
import pathlib
import warnings

import pytest

from fedqr import cli, config
from fedqr.config import (
    ENV_PREFIX,
    PAPER_HETERO_ALPHA_GRID,
    ConfigParseError,
    DataParams,
    apply_env_overrides,
    experiment_seeds,
    parse_config,
    preset_spec,
    read_metrics,
    serialize_spec,
)
from fedqr.federation import ConfigError, FederationConfig, RoundAbortedError


class TestParseConfig:
    def test_empty_config_is_default_preset(self):
        assert parse_config("") == preset_spec("default")

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_config("# a comment\n\nfederation.rounds = 7  # trailing\n")
        assert spec.federation.rounds == 7

    def test_round_trip(self):
        spec = preset_spec("canonical-noniid")
        spec.output_path = "out/metrics.jsonl"
        reparsed = parse_config(serialize_spec(spec))
        assert reparsed == spec

    def test_round_trip_all_presets(self):
        for name in ("default", "paper", "paper-hetero", "canonical-noniid", "canonical-iid"):
            spec = preset_spec(name)
            assert parse_config(serialize_spec(spec)) == spec

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigParseError, match="line 3"):
            parse_config("\n\nfederation.bogus = 1\n")

    def test_type_error_reports_line(self):
        with pytest.raises(ConfigParseError, match="line 1"):
            parse_config("federation.rounds = soon\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigParseError, match="line 2"):
            parse_config("# fine\nfederation.rounds 3\n")

    def test_invariant_violation_surfaces(self):
        text = "federation.client_ranks = 9,9,9,9,9,9,9,9\nfederation.server_rank = 4\n"
        with pytest.raises(ConfigParseError, match="server rank"):
            parse_config(text)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigParseError, match="preset"):
            parse_config("preset = nope\n")

    def test_preset_then_overrides(self):
        spec = parse_config("preset = canonical-noniid\nfederation.rounds = 3\n")
        assert spec.federation.rounds == 3
        assert spec.federation.dirichlet_alpha == 0.3

    def test_optional_values(self):
        spec = parse_config("federation.lora_scaling = none\nfederation.hidden_dim = 12\n")
        assert spec.federation.lora_scaling is None
        assert spec.federation.hidden_dim == 12

    def test_failed_one_key_section_names_its_line(self):
        with pytest.raises(ConfigParseError) as info:
            parse_config("federation.lr = -1\n")
        assert str(info.value) == "line 1: lr must be finite and > 0, got -1.0"
        assert info.value.line_no == 1
        with pytest.raises(ConfigParseError) as info:
            parse_config("federation.rounds = 3\n\ndata.spread = -1\n")
        assert str(info.value) == "line 3: spread must be finite and >= 0, got -1.0"

    def test_failed_two_key_section_names_both_lines(self):
        text = "federation.client_ranks = 9,9,9,9,9,9,9,9\n# cap\nfederation.server_rank = 4\n"
        with pytest.raises(ConfigParseError) as info:
            parse_config(text)
        assert str(info.value).startswith("lines 1, 3: ")
        assert "server rank" in str(info.value)
        assert info.value.line_no == 1

    def test_cli_reports_the_failing_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("federation.lr = -1\n")
        out = tmp_path / "m.jsonl"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: line 1: lr must be finite and > 0, got -1.0\n"
        assert not out.exists()

    def test_key_given_twice_names_both_lines(self):
        with pytest.raises(ConfigParseError, match="given twice, on lines 1 and 3"):
            parse_config("federation.rounds = 3\n# again\nfederation.rounds = 7\n")
        with pytest.raises(ConfigParseError, match="preset given twice, on lines 1 and 2"):
            parse_config("preset = paper\npreset = default\n")


# a valid value other than the default preset's for every config key, as
# (text, parsed value); n_clients needs a rank list of its length
NON_DEFAULT = {
    "federation.n_clients": ("3", 3),
    "federation.client_ranks": ("2,3,4,4,4,4,4,4", (2, 3, 4, 4, 4, 4, 4, 4)),
    "federation.server_rank": ("6", 6),
    "federation.method": ("ilora_s", "ilora_s"),
    "federation.participation": ("0.5", 0.5),
    "federation.local_epochs": ("2", 2),
    "federation.batch_size": ("16", 16),
    "federation.rounds": ("7", 7),
    "federation.lr": ("0.003", 0.003),
    "federation.beta1": ("0.5", 0.5),
    "federation.beta2": ("0.99", 0.99),
    "federation.eps": ("1e-06", 1e-06),
    "federation.weight_decay": ("0.01", 0.01),
    "federation.lora_alpha": ("8.0", 8.0),
    "federation.lora_scaling": ("2.5", 2.5),
    "federation.global_scale": ("-0.5", -0.5),
    "federation.dirichlet_alpha": ("1.5", 1.5),
    "federation.hidden_dim": ("12", 12),
    "federation.data_seed": ("5", 5),
    "federation.partition_seed": ("105", 105),
    "federation.train_seed": ("205", 205),
    "data.classes": ("12", 12),
    "data.samples_per_class": ("20", 20),
    "data.input_dim": ("24", 24),
    "data.spread": ("0.5", 0.5),
    "data.eval_samples_per_class": ("30", 30),
    "data.eval_seed": ("7", 7),
    "output.path": ("out/run.jsonl", "out/run.jsonl"),
}
COMPANIONS = {"federation.n_clients": {"federation.client_ranks": ("4,4,4", (4, 4, 4))}}

DEFAULT_TEXT = """preset = default
federation.n_clients = 8
federation.client_ranks = 4,4,4,4,4,4,4,4
federation.server_rank = 4
federation.method = ilora
federation.participation = 1.0
federation.local_epochs = 1
federation.batch_size = 64
federation.rounds = 5
federation.lr = 0.0001
federation.beta1 = 0.9
federation.beta2 = 0.999
federation.eps = 1e-08
federation.weight_decay = 0.0
federation.lora_alpha = 16.0
federation.lora_scaling = none
federation.global_scale = 1.0
federation.dirichlet_alpha = 0.3
federation.hidden_dim = none
federation.data_seed = 0
federation.partition_seed = 1
federation.train_seed = 2
data.classes = 8
data.samples_per_class = 60
data.input_dim = 16
data.spread = 0.35
data.eval_samples_per_class = 50
data.eval_seed = 9999
output.path = metrics.jsonl
"""


def key_value(spec, key):
    if key == "output.path":
        return spec.output_path
    section, name = key.split(".")
    return getattr(getattr(spec, section), name)


class TestSchema:
    def test_keys_follow_the_field_declarations(self):
        expected = (
            [f"federation.{f.name}" for f in dataclasses.fields(FederationConfig)]
            + [f"data.{f.name}" for f in dataclasses.fields(DataParams)]
            + ["output.path"]
        )
        assert list(config._SCHEMA) == expected
        assert len(expected) == 28

    def test_default_serialization_is_pinned(self):
        assert serialize_spec(preset_spec("default")) == DEFAULT_TEXT

    def test_field_without_codec_fails(self):
        @dataclasses.dataclass
        class Odd:
            weights: list[float] = dataclasses.field(default_factory=list)

        with pytest.raises(TypeError, match="Odd.weights"):
            config._section_schema("odd", Odd)

    @pytest.mark.parametrize("key", list(config._SCHEMA))
    def test_key_round_trips(self, key):
        updates = {key: NON_DEFAULT[key], **COMPANIONS.get(key, {})}
        spec = parse_config("".join(f"{k} = {text}\n" for k, (text, _) in updates.items()))
        default = preset_spec("default")
        for k, (_, value) in updates.items():
            assert key_value(spec, k) == value != key_value(default, k)
        assert parse_config(serialize_spec(spec)) == spec
        environ = {
            ENV_PREFIX + k.upper().replace(".", "__"): text for k, (text, _) in updates.items()
        }
        assert apply_env_overrides(default, environ) == spec


# field -> (rejected values, accepted boundary values)
FEDERATION_RANGES = {
    "n_clients": ([0, -1], [1]),
    "server_rank": ([0], [8]),
    "method": (["fedavg", ""], ["zero_pad"]),
    "participation": ([0.0, 1.5, math.nan], [1.0]),
    "local_epochs": ([0], [3]),
    "batch_size": ([0], [1]),
    "rounds": ([0, -5], [1]),
    "lr": ([0.0, -1.0, math.nan, math.inf], [1e-12, 1e308]),
    "beta1": ([-0.1, 1.0, math.nan], [0.0, 0.999]),
    "beta2": ([-0.1, 1.0, math.nan], [0.0, 0.9999]),
    "eps": ([-1e-8, math.nan, math.inf], [0.0]),
    "weight_decay": ([-0.01, math.nan, math.inf], [0.0, 0.5]),
    "lora_alpha": ([0.0, -16.0, math.nan, math.inf], [1e-3]),
    "lora_scaling": ([0.0, -1.0, math.nan, math.inf], [None, 1e300]),
    "global_scale": ([math.nan, math.inf, -math.inf], [-2.0, 0.0, 1e308]),
    "dirichlet_alpha": ([0.0, -0.5, math.nan, math.inf], [1e6]),
    "hidden_dim": ([0, -3], [None, 1]),
    "data_seed": ([-1], [0]),
    "partition_seed": ([-1], [0]),
    "train_seed": ([-3], [0]),
}
DATA_RANGES = {
    "classes": ([0, -1], [1]),
    "samples_per_class": ([0], [1]),
    "eval_samples_per_class": ([0], [1]),
    "input_dim": ([7], [8]),  # the default has 8 classes
    "spread": ([-0.1, math.nan, math.inf], [0.0]),
    "eval_seed": ([-3], [0]),
}


class TestFieldRanges:
    @pytest.mark.parametrize(
        "cls, ranges, name",
        # the seed rows last, so every other row keeps its test id
        sorted(
            [(FederationConfig, FEDERATION_RANGES, n) for n in FEDERATION_RANGES]
            + [(DataParams, DATA_RANGES, n) for n in DATA_RANGES],
            key=lambda param: param[2].endswith("_seed"),
        ),
    )
    def test_field_range(self, cls, ranges, name):
        rejected, accepted = ranges[name]
        # n_clients is changed together with a rank list of its length
        ranks = {"client_ranks": (1,)} if name == "n_clients" else {}
        for value in rejected:
            with pytest.raises(ConfigError, match=name):
                dataclasses.replace(cls(), **{name: value})
        for value in accepted:
            assert getattr(dataclasses.replace(cls(), **ranks, **{name: value}), name) == value

    @pytest.mark.parametrize(
        "env, args",
        [
            ({"FEDQR_FEDERATION__LR": "-1"}, []),
            ({"FEDQR_FEDERATION__BETA1": "1.0"}, []),
            ({"FEDQR_FEDERATION__LORA_SCALING": "nan"}, []),
            ({"FEDQR_DATA__SPREAD": "-1"}, []),
            # found only at set-up: the server rank exceeds min(d, k) = 8,
            # and 2 samples cannot go to 8 clients
            (
                {"FEDQR_FEDERATION__SERVER_RANK": "12",
                 "FEDQR_FEDERATION__CLIENT_RANKS": "4,4,4,4,4,4,4,4"},
                [],
            ),
            ({"FEDQR_DATA__CLASSES": "2", "FEDQR_DATA__SAMPLES_PER_CLASS": "1"}, []),
            # negative seeds would reach numpy's generators
            ({"FEDQR_FEDERATION__TRAIN_SEED": "-3"}, []),
            ({}, ["--seed", "-1"]),
        ],
        ids=[
            "lr", "beta1", "lora_scaling", "spread", "server_rank", "partition",
            "train_seed", "seed",
        ],
    )
    def test_cli_config_error_exits_2(self, tmp_path, monkeypatch, capsys, env, args):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "m.jsonl"
        argv = ["run", "--preset", "default", "--rounds", "3", "--out", str(out), *args]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()


class TestPresets:
    def test_paper_hetero_rank_spread(self):
        spec = preset_spec("paper-hetero")
        assert set(spec.federation.client_ranks) == {2, 8, 16}
        assert PAPER_HETERO_ALPHA_GRID == (0.1, 0.5, 1.0)
        assert spec.federation.dirichlet_alpha in PAPER_HETERO_ALPHA_GRID

    def test_default_mirrors_documented_defaults(self):
        fed = preset_spec("default").federation
        assert fed.client_ranks == (4,) * 8
        assert fed.server_rank == 4
        assert fed.lr == 1e-4
        assert fed.local_epochs == 1
        assert fed.rounds == 5
        assert fed.participation == 1.0

    def test_paper_preset_damps_global_updates(self):
        fed = preset_spec("paper").federation
        assert fed.global_scale == 0.5
        assert fed.server_rank == 6
        assert fed.lora_alpha == 16.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_spec("missing")


class TestEnvOverrides:
    def test_env_key_mapping(self):
        spec = preset_spec("default")
        spec = apply_env_overrides(
            spec, {"FEDQR_FEDERATION__ROUNDS": "9", "FEDQR_DATA__SPREAD": "0.5"}
        )
        assert spec.federation.rounds == 9
        assert spec.data.spread == 0.5

    def test_unknown_env_key_rejected(self):
        with pytest.raises(ValueError, match="FEDQR_FEDERATION__BOGUS"):
            apply_env_overrides(preset_spec("default"), {"FEDQR_FEDERATION__BOGUS": "1"})

    def test_unrelated_env_ignored(self):
        spec = apply_env_overrides(preset_spec("default"), {"PATH": "/bin"})
        assert spec == preset_spec("default")

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("FEDQR_FEDERATION__LR", "-1", "lr must be finite and > 0, got -1.0"),
            (
                "FEDQR_FEDERATION__ROUNDS",
                "abc",
                "bad value for federation.rounds: invalid literal for int() with base 10: 'abc'",
            ),
            ("FEDQR_FEDERATION__CLIENT_RANKS", "4,4", "2 client ranks for 8 clients"),
        ],
        ids=["out_of_range", "unparsable", "invalid_combination"],
    )
    def test_cli_error_names_the_variable(
        self, tmp_path, monkeypatch, capsys, name, value, message
    ):
        monkeypatch.setenv(name, value)
        out = tmp_path / "m.jsonl"
        assert cli.main(["run", "--preset", "default", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {name}: {message}\n"
        assert not out.exists()

    def test_failed_section_names_all_its_variables(self):
        environ = {
            "FEDQR_FEDERATION__ROUNDS": "3",
            "FEDQR_FEDERATION__CLIENT_RANKS": "4,4",
            "FEDQR_DATA__SPREAD": "0.5",
        }
        with pytest.raises(ValueError) as info:
            apply_env_overrides(preset_spec("default"), environ)
        assert str(info.value) == (
            "FEDQR_FEDERATION__CLIENT_RANKS, FEDQR_FEDERATION__ROUNDS: "
            "2 client ranks for 8 clients"
        )


def fast_spec(tmp_path, rounds=2):
    spec = preset_spec("default")
    spec.federation = spec.federation.__class__(
        n_clients=3,
        client_ranks=(2, 3, 3),
        server_rank=3,
        method="ilora",
        rounds=rounds,
        lr=0.01,
        batch_size=16,
        lora_scaling=1.0,
    )
    spec.data.classes = 4
    spec.data.samples_per_class = 12
    spec.data.input_dim = 8
    spec.data.eval_samples_per_class = 10
    spec.output_path = str(tmp_path / "metrics.jsonl")
    return spec


class TestRunExperiment:
    def test_writes_one_record_per_round(self, tmp_path):
        spec = fast_spec(tmp_path, rounds=2)
        assert cli.run_experiment(spec) == 0
        records = read_metrics(spec.output_path)
        assert len(records) == 2
        assert [r["round"] for r in records] == [1, 2]

    def test_reruns_are_byte_identical(self, tmp_path):
        spec = fast_spec(tmp_path)
        cli.run_experiment(spec)
        first = pathlib.Path(spec.output_path).read_bytes()
        cli.run_experiment(spec)
        assert pathlib.Path(spec.output_path).read_bytes() == first

    def test_records_have_nonnegative_diagnostics(self, tmp_path):
        spec = fast_spec(tmp_path, rounds=3)
        cli.run_experiment(spec)
        for record in read_metrics(spec.output_path):
            assert record["drift"] >= 0.0
            assert record["truncation_error"] >= 0.0

    def test_abort_writes_diagnostic_and_fails(self, tmp_path, monkeypatch):
        spec = fast_spec(tmp_path)

        def explode(*args, **kwargs):
            raise RoundAbortedError(2, 1, "loss=nan")

        monkeypatch.setattr(cli, "run_federation", explode)
        assert cli.run_experiment(spec) == 1
        record = json.loads(pathlib.Path(spec.output_path).read_text())
        assert record["aborted"] is True
        assert record["round"] == 2
        assert record["client"] == 1

    def test_nonfinite_global_metrics_abort_server_side(self, tmp_path):
        spec = fast_spec(tmp_path)
        spec.federation = dataclasses.replace(spec.federation, global_scale=1e308)
        assert cli.run_experiment(spec) == 1
        text = pathlib.Path(spec.output_path).read_text()
        assert "NaN" not in text and "Infinity" not in text
        record = json.loads(text)
        assert record["aborted"] is True
        assert record["round"] == 1
        assert record["client"] is None
        assert record["error"].startswith("round 1, server: nonfinite train_loss=")


    def test_client_side_overflow_aborts_with_client_record(self, tmp_path):
        # a huge LoRA scaling overflows AdamW's second moment in client 0's
        # first step; the round aborts there, before any numpy warning
        spec = preset_spec("canonical-noniid")
        spec.federation = dataclasses.replace(spec.federation, lora_scaling=1e300)
        spec.output_path = str(tmp_path / "overflow.jsonl")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run_experiment(spec) == 1
        record = json.loads(pathlib.Path(spec.output_path).read_text())
        assert record["aborted"] is True
        assert record["round"] == 1
        assert record["client"] == 0
        assert record["error"] == (
            "round 1, client 0: second moment overflows: gradient squared is not finite"
        )


class TestCliMain:
    def test_run_with_config_file(self, tmp_path, capsys):
        spec = fast_spec(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(serialize_spec(spec))
        out_path = tmp_path / "cli_metrics.jsonl"
        code = cli.main(["run", "--config", str(config_path), "--out", str(out_path)])
        assert code == 0
        assert len(read_metrics(out_path)) == 2
        assert "rounds ->" in capsys.readouterr().out

    def test_run_flag_overrides(self, tmp_path):
        spec = fast_spec(tmp_path)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(serialize_spec(spec))
        out_path = tmp_path / "m.jsonl"
        code = cli.main(
            [
                "run",
                "--config", str(config_path),
                "--rounds", "1",
                "--method", "ilora_s",
                "--seed", "4",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert len(read_metrics(out_path)) == 1

    def test_seed_fans_out_to_stream_seeds(self):
        args = argparse.Namespace(
            config=None, preset="default", method=None, rounds=None, seed=4, out=None
        )
        fed = cli._load_spec(args).federation
        assert (fed.data_seed, fed.partition_seed, fed.train_seed) == (4, 104, 204)
        assert experiment_seeds(4) == {"data_seed": 4, "partition_seed": 104, "train_seed": 204}

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("federation.rounds = many\n")
        assert cli.main(["run", "--config", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("aborts", [False, True])
    def test_unwritable_out_exits_2(self, tmp_path, monkeypatch, capsys, aborts):
        # both the metrics file and the abort record go to --out
        if aborts:
            def explode(*args, **kwargs):
                raise RoundAbortedError(2, 1, "loss=nan")

            monkeypatch.setattr(cli, "run_federation", explode)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(serialize_spec(fast_spec(tmp_path)))
        out_path = tmp_path / "missing" / "m.jsonl"
        assert cli.main(["run", "--config", str(config_path), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out_path) in err
        assert not out_path.parent.exists()

    def test_verify_suite_dispatch(self, capsys):
        assert cli.main(["verify", "--suite", "bias"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] factor_averaging_bias_witness" in out

    def test_verify_unknown_suite(self, capsys):
        assert cli.main(["verify", "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err


class TestIoDiscipline:
    def test_inner_modules_do_no_file_io(self):
        # the experiment surface (cli/config) owns file handling; the dataset
        # text format in data.py is its documented external interface
        package = pathlib.Path(cli.__file__).parent
        for name in ("linalg", "adapter", "model", "optim", "aggregation", "federation"):
            source = (package / f"{name}.py").read_text()
            assert "open(" not in source, f"{name}.py performs file I/O"
