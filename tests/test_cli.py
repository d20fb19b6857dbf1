"""Tests for the ``python -m repro`` command-line interface."""

import json
import pathlib
import zipfile

import numpy as np
import pytest

from repro.__main__ import (
    build_main_parser,
    build_parser,
    config_from_args,
    main,
)


class TestArgumentParsing:
    def parse(self, argv):
        return config_from_args(build_parser().parse_args(argv))

    def test_defaults(self):
        config = self.parse([])
        assert config.dataset == "cifar10"
        assert not config.non_iid
        assert config.staleness_mix is None
        assert config.mobility_modes is None

    def test_non_iid_flag(self):
        assert self.parse(["--non-iid"]).non_iid

    def test_participants_override(self):
        assert self.parse(["--participants", "7"]).num_participants == 7

    def test_staleness_mixes(self):
        severe = self.parse(["--staleness", "severe"])
        assert severe.staleness_mix == (0.3, 0.4, 0.2, 0.1)
        slight = self.parse(["--staleness", "slight"])
        assert slight.staleness_mix[0] == 0.9

    def test_staleness_policy(self):
        config = self.parse(["--staleness", "severe", "--staleness-policy", "throw"])
        assert config.staleness_policy == "throw"

    def test_mobility_modes(self):
        config = self.parse(["--mobility", "bus", "car"])
        assert config.mobility_modes == ("bus", "car")

    def test_paper_profile(self):
        config = self.parse(["--profile", "paper"])
        assert config.batch_size == 256
        assert config.search_rounds == 6000

    def test_round_overrides(self):
        config = self.parse(["--warmup-rounds", "3", "--search-rounds", "9"])
        assert config.warmup_rounds == 3
        assert config.search_rounds == 9

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "imagenet"])

    def test_backend_flags(self):
        config = self.parse(
            ["--backend", "process", "--workers", "4", "--task-timeout", "12.5"]
        )
        assert config.backend == "process"
        assert config.num_workers == 4
        assert config.task_timeout_s == 12.5

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "quantum"])

    def test_socket_backend_flags(self):
        config = self.parse(
            [
                "--backend", "socket",
                "--socket-workers", "127.0.0.1:7000", "127.0.0.1:7001",
                "--task-retries", "2",
                "--wire-compression", "zlib",
                "--wire-dtype", "float32",
                "--measure-wire",
            ]
        )
        assert config.backend == "socket"
        assert config.socket_workers == ("127.0.0.1:7000", "127.0.0.1:7001")
        assert config.task_retries == 2
        assert config.socket_compression == "zlib"
        assert config.socket_wire_dtype == "float32"
        assert config.measure_wire_bytes is True

    def test_socket_defaults(self):
        config = self.parse([])
        assert config.socket_workers is None
        assert config.task_retries == 1
        assert config.socket_compression == "none"
        assert config.socket_wire_dtype == "float64"
        assert config.measure_wire_bytes is False

    def test_backend_defaults_unchanged(self):
        config = self.parse([])
        assert config.backend == "serial"
        assert config.num_workers == 0

    def test_fault_and_checkpoint_flags(self):
        config = self.parse(
            [
                "--faults", "plan.json",
                "--checkpoint", "run.ckpt",
                "--checkpoint-every", "5",
            ]
        )
        assert config.fault_plan_path == "plan.json"
        assert config.checkpoint_path == "run.ckpt"
        assert config.checkpoint_every == 5

    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            self.parse(["--checkpoint-every", "5"])

    def test_robustness_defaults(self):
        config = self.parse([])
        assert config.fault_plan_path is None
        assert config.checkpoint_every == 0


#: ``repro run``'s options, frozen: option -> (type, choices, default,
#: nargs).  Generated from the config fields' metadata since PR 20; the
#: list is PR 19's hand-written one minus ``--tape-fusion`` and
#: ``--no-validation``.
RUN_OPTIONS = {
    "--backend": (None, ("serial", "process", "socket"), None, None),
    "--checkpoint": (None, None, None, None),
    "--checkpoint-every": (int, None, None, None),
    "--churn-plan": (None, None, None, None),
    "--cohort-size": (int, None, None, None),
    "--cohort-strategy": (None, ("uniform", "weighted"), None, None),
    "--compute-dtype": (None, ("float64", "float32"), None, None),
    "--config": (None, None, None, None),
    "--dataset": (None, ("cifar10", "svhn", "cifar100"), None, None),
    "--faults": (None, None, None, None),
    "--measure-wire": (None, None, False, 0),
    "--metrics": (None, None, False, 0),
    "--mobility": (None, None, None, "*"),
    "--network-faults": (None, None, None, None),
    "--no-telemetry": (None, None, False, 0),
    "--non-iid": (None, None, False, 0),
    "--participants": (int, None, None, None),
    "--population": (int, None, None, None),
    "--profile": (None, ("small", "paper"), "small", None),
    "--resume": (None, None, None, None),
    "--retrain": (None, ("federated", "centralized"), "federated", None),
    "--search-rounds": (int, None, None, None),
    "--seed": (int, None, None, None),
    "--socket-workers": (None, None, None, "+"),
    "--staleness": (None, ("none", "severe", "slight"), None, None),
    "--staleness-policy": (None, ("compensate", "use", "throw"), None, None),
    "--task-retries": (int, None, None, None),
    "--task-timeout": (float, None, None, None),
    "--telemetry-log": (None, None, None, None),
    "--trace-ops": (None, None, False, 0),
    "--tracing": (None, None, False, 0),
    "--warmup-rounds": (int, None, None, None),
    "--wire-compression": (None, ("none", "zlib"), None, None),
    "--wire-dtype": (None, ("float16", "float32", "float64"), None, None),
    "--workers": (int, None, None, None),
}


def test_run_options_are_frozen():
    actual = {
        action.option_strings[0]: (
            action.type,
            tuple(action.choices) if action.choices else None,
            action.default,
            action.nargs,
        )
        for action in build_parser()._actions
        if action.dest != "help"
    }
    assert actual == RUN_OPTIONS


class TestSubcommands:
    def test_run_subcommand_parses(self):
        args = build_main_parser().parse_args(["run", "--participants", "5"])
        assert args.command == "run"
        assert config_from_args(args).num_participants == 5

    def test_trace_subcommand_parses(self):
        args = build_main_parser().parse_args(["trace", "run.jsonl", "--top", "3"])
        assert args.command == "trace"
        assert args.path == "run.jsonl"
        assert args.top == 3

    def test_run_rejects_trace_arguments(self):
        with pytest.raises(SystemExit):
            build_main_parser().parse_args(["run", "run.jsonl"])

    def test_serve_subcommand_parses(self):
        args = build_main_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "7000",
             "--idle-timeout", "60"]
        )
        assert args.command == "serve"
        assert args.host == "0.0.0.0"
        assert args.port == 7000
        assert args.idle_timeout == 60.0

    def test_serve_defaults(self):
        args = build_main_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.idle_timeout is None

    def test_trace_on_missing_file_errors(self, capsys):
        assert main(["trace", "/nonexistent/run.jsonl"]) == 1
        assert "cannot read run log" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [[], ["--non-iid", "--participants", "4"]], ids=["empty", "run-flags"]
    )
    def test_a_missing_subcommand_is_a_usage_error(self, capsys, monkeypatch, argv):
        """No subcommand, with or without ``run``'s flags: the usage line
        and status 2; nothing runs."""
        import repro.__main__ as cli

        monkeypatch.setattr(cli, "run_main", lambda args: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro") and "{run,trace,serve}" in err


class TestConfigFile:
    def write_config(self, tmp_path, values):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(values), encoding="utf-8")
        return str(path)

    def parse(self, argv):
        return config_from_args(build_parser().parse_args(argv))

    def test_file_values_override_profile(self, tmp_path):
        path = self.write_config(tmp_path, {"num_participants": 9, "seed": 42})
        config = self.parse(["--config", path])
        assert config.num_participants == 9
        assert config.seed == 42

    def test_cli_flags_override_file(self, tmp_path):
        path = self.write_config(tmp_path, {"num_participants": 9, "seed": 42})
        config = self.parse(["--config", path, "--participants", "3"])
        assert config.num_participants == 3  # CLI wins
        assert config.seed == 42  # file still wins over profile

    def test_unknown_key_in_file_rejected(self, tmp_path):
        path = self.write_config(tmp_path, {"num_participnts": 9})
        with pytest.raises(ValueError, match="num_participnts"):
            self.parse(["--config", path])

    def test_wrong_type_in_file_rejected(self, tmp_path):
        path = self.write_config(tmp_path, {"num_participants": "nine"})
        with pytest.raises(ValueError, match="num_participants"):
            self.parse(["--config", path])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read config file"):
            self.parse(["--config", str(tmp_path / "nope.json")])

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON object"):
            self.parse(["--config", str(path)])

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid JSON"):
            self.parse(["--config", str(path)])

    @pytest.mark.parametrize(
        "key,value",
        [
            ("backend", "quantum"),
            # checked by a sub-config, not by ExperimentConfig's own bounds
            ("compensation_lambda", -1),
            # used to surface one layer deeper, as a traceback
            ("batch_size", 0),
            ("staleness_threshold", -1),
        ],
    )
    def test_config_error_exits_2(self, tmp_path, capsys, key, value):
        path = self.write_config(tmp_path, {key: value})
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err


class TestEndToEnd:
    def test_main_runs_tiny_pipeline(self, capsys):
        code = main(
            [
                "run",
                "--participants", "2",
                "--warmup-rounds", "2",
                "--search-rounds", "3",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "searched architecture" in out
        assert "test accuracy" in out

    def test_run_subcommand_with_process_backend(self, capsys):
        code = main(
            [
                "run",
                "--participants", "2",
                "--warmup-rounds", "1",
                "--search-rounds", "2",
                "--seed", "1",
                "--backend", "process",
                "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend=process" in out
        assert "test accuracy" in out

    def test_injected_crash_exits_3_then_resume_completes(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {"seed": 0, "faults": [{"kind": "crash_server", "round_start": 2}]}
            ),
            encoding="utf-8",
        )
        ckpt = tmp_path / "run.ckpt"
        code = main(
            [
                "run",
                "--participants", "2",
                "--warmup-rounds", "1",
                "--search-rounds", "3",
                "--seed", "1",
                "--faults", str(plan),
                "--checkpoint", str(ckpt),
                "--checkpoint-every", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "forced a server crash at round 2" in captured.err
        assert "--resume" in captured.err
        assert ckpt.exists()

        code = main(["run", "--resume", str(ckpt)])
        captured = capsys.readouterr()
        assert code == 0
        assert "resumed from" in captured.out
        assert "test accuracy" in captured.out

    def test_resume_with_bogus_path_exits_2(self, tmp_path, capsys):
        code = main(["run", "--resume", str(tmp_path / "nope.ckpt")])
        assert code == 2
        assert "cannot resume" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "no-theta"])
    def test_resume_from_corrupt_checkpoint_exits_2(self, tmp_path, capsys, damage):
        """A checkpoint that is not a zip, is cut short, or lacks a member
        is an ``error:`` line and exit 2 — never a traceback."""
        golden = pathlib.Path(__file__).with_name("golden_checkpoint.ckpt")
        ckpt = tmp_path / "bad.ckpt"
        if damage == "garbage":
            ckpt.write_text("garbage\n")
        elif damage == "truncated":
            ckpt.write_bytes(golden.read_bytes()[:2000])
        else:
            with zipfile.ZipFile(golden) as source, zipfile.ZipFile(ckpt, "w") as out:
                for name in source.namelist():
                    if name != "theta.bin":
                        out.writestr(name, source.read(name))
        code = main(["run", "--resume", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: cannot resume from {ckpt}" in err
        assert "Traceback" not in err
