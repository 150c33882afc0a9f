import argparse
import dataclasses
import json
import pathlib
import warnings

import pytest

from fedqr import cli
from fedqr.config import (
    PAPER_HETERO_ALPHA_GRID,
    ConfigParseError,
    apply_env_overrides,
    experiment_seeds,
    parse_config,
    preset_spec,
    read_metrics,
    serialize_spec,
)
from fedqr.federation import RoundAbortedError


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
