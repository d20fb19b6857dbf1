"""``ExperimentConfig`` serialization, validation, and backend plumbing."""

import dataclasses
import json
import pathlib
import re

import pytest

from repro.core import ExperimentConfig

#: The 17 fields that became constants or sub-config defaults, with the
#: defaults every checkpoint written before their removal embeds.
RETIRED_FIELDS = {
    "breaker_failure_threshold": 3, "breaker_cooldown_s": 2.0,
    "breaker_cooldown_max_s": 30.0, "retry_backoff_base_s": 0.05,
    "retry_backoff_cap_s": 2.0, "adaptive_deadlines": True,
    "deadline_floor_s": 5.0, "hedge_dispatch": True,
    "hedge_threshold_s": 0.0, "task_budget_s": 0.0,
    "update_norm_limit": 1e4, "strike_limit": 3, "quarantine_rounds": 4,
    "quarantine_backoff": 2.0, "telemetry_buffer_size": 65536,
    "population_shard_size": 0, "tape_fusion": False, "validate_updates": True,
}


class TestRoundTrip:
    def test_small_profile_round_trips(self):
        config = ExperimentConfig.small(seed=3)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_paper_profile_round_trips(self):
        config = ExperimentConfig.paper()
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_tuple_fields_round_trip(self):
        config = ExperimentConfig.small(
            staleness_mix=(0.3, 0.4, 0.2, 0.1),
            mobility_modes=("bus", "car"),
            telemetry_log_path="run.jsonl",
            backend="process",
            num_workers=4,
        )
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored == config
        assert isinstance(restored.staleness_mix, tuple)
        assert isinstance(restored.mobility_modes, tuple)

    def test_round_trips_through_json(self):
        config = ExperimentConfig.small(
            non_iid=True, staleness_mix=(0.9, 0.09, 0.009, 0.001)
        )
        blob = json.dumps(config.to_dict())
        assert ExperimentConfig.from_dict(json.loads(blob)) == config

    def test_partial_dict_uses_defaults(self):
        config = ExperimentConfig.from_dict({"dataset": "svhn", "seed": 9})
        assert config.dataset == "svhn"
        assert config.seed == 9
        assert config.num_participants == ExperimentConfig().num_participants


class TestFromDictErrors:
    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError, match="datasset"):
            ExperimentConfig.from_dict({"datasset": "cifar10"})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="dict"):
            ExperimentConfig.from_dict(["dataset", "cifar10"])

    def test_wrong_type_string_for_int(self):
        with pytest.raises(ValueError, match="num_participants"):
            ExperimentConfig.from_dict({"num_participants": "4"})

    def test_wrong_type_bool_for_int(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig.from_dict({"seed": True})

    def test_wrong_type_string_for_bool(self):
        with pytest.raises(ValueError, match="non_iid"):
            ExperimentConfig.from_dict({"non_iid": "yes"})

    def test_wrong_type_number_for_string(self):
        with pytest.raises(ValueError, match="dataset"):
            ExperimentConfig.from_dict({"dataset": 10})

    def test_wrong_type_scalar_for_mix(self):
        with pytest.raises(ValueError, match="staleness_mix"):
            ExperimentConfig.from_dict({"staleness_mix": 0.5})

    def test_int_accepted_for_float_field(self):
        config = ExperimentConfig.from_dict({"theta_grad_clip": 5})
        assert config.theta_grad_clip == 5.0
        assert isinstance(config.theta_grad_clip, float)


class TestRetiredKeys:
    """Configs written before the dict / full-send / eager paths were
    deleted still carry their switches; that is outside input, not a
    knob."""

    def test_retired_switches_load_with_a_deprecation_warning(self):
        with pytest.warns(
            DeprecationWarning, match="delta_dispatch, param_arena, tape_compile"
        ):
            config = ExperimentConfig.from_dict(
                {"seed": 7, "delta_dispatch": True, "param_arena": False,
                 "tape_compile": False}
            )
        assert config == ExperimentConfig(seed=7)
        assert not {"delta_dispatch", "param_arena", "tape_compile"} & set(
            config.to_dict()
        )

    @pytest.mark.parametrize("value", [True, False])
    def test_retired_tape_switch_alone(self, value):
        """Either value loads: off can no longer be honoured, and the
        engine it selected is bit-identical in float64."""
        with pytest.warns(DeprecationWarning, match="tape_compile"):
            config = ExperimentConfig.from_dict(
                {"tape_compile": value, "compute_dtype": "float32"}
            )
        assert config.compute_dtype == "float32"
        with pytest.raises(TypeError):
            ExperimentConfig(tape_compile=True)

    def test_current_configs_load_silently(self, recwarn):
        ExperimentConfig.from_dict(ExperimentConfig.small().to_dict())
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_cli_config_file_with_retired_switches_still_runs(self, tmp_path):
        from repro.__main__ import build_parser, config_from_args

        path = tmp_path / "old.json"
        path.write_text(json.dumps({"seed": 5, "param_arena": True}))
        args = build_parser().parse_args(["--config", str(path)])
        with pytest.warns(DeprecationWarning, match="param_arena"):
            assert config_from_args(args).seed == 5

    def test_parent_commit_checkpoint_carries_both(self):
        """The fixture test_golden_digests resumes bit-identically is a
        real pre-removal checkpoint: its embedded config has the three
        switches and all 18 retired fields, at their defaults, and loads
        with one warning naming every one of them."""
        from repro.checkpoint import read_checkpoint_meta

        fixture = pathlib.Path(__file__).with_name("golden_checkpoint.ckpt")
        embedded = read_checkpoint_meta(fixture)["extra"]["config"]
        assert {"delta_dispatch", "param_arena", "tape_compile"} <= set(embedded)
        assert {k: embedded[k] for k in RETIRED_FIELDS} == RETIRED_FIELDS
        with pytest.warns(DeprecationWarning) as caught:
            ExperimentConfig.from_dict(embedded)
        (warning,) = caught
        assert all(name in str(warning.message) for name in RETIRED_FIELDS)

    @pytest.mark.parametrize(
        "key,value,home",
        [
            ("breaker_cooldown_s", 0.5, "repro.transport.resilience"),
            ("hedge_dispatch", False, "deleted"),
            ("strike_limit", 1, "SearchServerConfig"),
            ("tape_fusion", True, "deleted"),
            ("validate_updates", False, "always"),
        ],
    )
    def test_retired_field_off_its_default_is_refused(self, key, value, home):
        """A value that can no longer be honoured must not vanish
        silently: the error says where it lives now."""
        with pytest.raises(ValueError, match=f"{key}.*{home}"):
            ExperimentConfig.from_dict({key: value})
        with pytest.raises(TypeError):
            ExperimentConfig(**{key: value})


class TestOptionBudget:
    def test_at_most_54_fields(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert len(names) <= 54
        assert not names & set(RETIRED_FIELDS)

    def test_src_reads_no_environment_variable(self):
        src = pathlib.Path(__file__).parent.parent / "src"
        found = {
            f"{path.relative_to(src)}: {hit}"
            for path in src.rglob("*.py")
            for hit in re.findall(
                r"REPRO_[A-Z_]+|os\.environ|getenv", path.read_text("utf-8")
            )
        }
        assert found == set()

    def test_no_environment_default_but_backend(self, monkeypatch):
        """No variable sets a default; the backend case is checked in
        ``TestBackendDefault``."""
        monkeypatch.setenv("REPRO_COMPUTE_DTYPE", "float32")
        monkeypatch.setenv("REPRO_TRACING", "1")
        monkeypatch.setenv("REPRO_NETWORK_FAULTS", "plan.json")
        config = ExperimentConfig()
        assert config.compute_dtype == "float64"
        assert config.tracing_enabled is False
        assert config.network_faults is None


def _just_outside():
    """``(field, value)`` one step outside every declared bound and
    choice set."""
    for f in dataclasses.fields(ExperimentConfig):
        if "ge" in f.metadata:
            yield f.name, f.metadata["ge"] - 1
        if "gt" in f.metadata:
            yield f.name, f.metadata["gt"]
        if "choices" in f.metadata:
            yield f.name, "no-such-choice"


class TestValidation:
    @pytest.mark.parametrize("name,value", list(_just_outside()))
    def test_declared_bound_rejects_the_value_just_outside(self, name, value):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: value})

    def test_declared_bounds_cover_what_the_sub_configs_check(self):
        bounded = {name for name, _ in _just_outside()}
        assert {
            "batch_size", "staleness_threshold", "image_size", "warmup_rounds",
            "search_rounds", "retrain_epochs", "fl_retrain_rounds",
            "num_participants", "cohort_size", "checkpoint_every",
        } <= bounded
        with pytest.raises(ValueError, match="compensation_lambda"):
            ExperimentConfig(compensation_lambda=-1.0)

    def test_bad_staleness_policy(self):
        with pytest.raises(ValueError, match="staleness_policy"):
            ExperimentConfig(staleness_policy="hope")

    def test_bad_transmission_strategy(self):
        with pytest.raises(ValueError, match="transmission_strategy"):
            ExperimentConfig(transmission_strategy="psychic")

    def test_negative_staleness_mix_entry(self):
        with pytest.raises(ValueError, match="non-negative"):
            ExperimentConfig(staleness_mix=(0.5, -0.1, 0.6))

    def test_empty_staleness_mix(self):
        with pytest.raises(ValueError, match="empty"):
            ExperimentConfig(staleness_mix=())

    def test_zero_mass_staleness_mix(self):
        with pytest.raises(ValueError, match="positive mass"):
            ExperimentConfig(staleness_mix=(0.0, 0.0))

    def test_overlong_staleness_mix(self):
        # threshold 2 admits τ = 0, 1, 2 plus one overflow bucket = 4.
        with pytest.raises(ValueError, match="staleness_threshold"):
            ExperimentConfig(
                staleness_threshold=2, staleness_mix=(0.2, 0.2, 0.2, 0.2, 0.2)
            )

    def test_max_length_staleness_mix_accepted(self):
        config = ExperimentConfig(
            staleness_threshold=2, staleness_mix=(0.25, 0.25, 0.25, 0.25)
        )
        assert config.staleness_mix == (0.25, 0.25, 0.25, 0.25)

    def test_unknown_mobility_mode(self):
        with pytest.raises(ValueError, match="mobility mode"):
            ExperimentConfig(mobility_modes=("bus", "teleport"))

    def test_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ExperimentConfig(backend="quantum")

    def test_negative_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            ExperimentConfig(num_workers=-1)

    def test_nonpositive_task_timeout(self):
        with pytest.raises(ValueError, match="task_timeout_s"):
            ExperimentConfig(task_timeout_s=0.0)

    def test_negative_task_retries(self):
        with pytest.raises(ValueError, match="task_retries"):
            ExperimentConfig(task_retries=-1)

    def test_bad_socket_compression(self):
        with pytest.raises(ValueError, match="socket_compression"):
            ExperimentConfig(socket_compression="lz4")

    def test_bad_socket_wire_dtype(self):
        with pytest.raises(ValueError, match="socket_wire_dtype"):
            ExperimentConfig(socket_wire_dtype="int8")

    def test_bad_socket_worker_address(self):
        with pytest.raises(ValueError, match="socket_workers"):
            ExperimentConfig(socket_workers=("localhost",))
        with pytest.raises(ValueError, match="socket_workers"):
            ExperimentConfig(socket_workers=())

    def test_socket_fields_round_trip(self):
        config = ExperimentConfig(
            backend="socket",
            socket_workers=("127.0.0.1:7000", "127.0.0.1:7001"),
            socket_compression="zlib",
            socket_wire_dtype="float32",
            task_retries=2,
            measure_wire_bytes=True,
        )
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.socket_workers == ("127.0.0.1:7000", "127.0.0.1:7001")


class TestBackendDefault:
    def test_default_is_serial(self):
        assert ExperimentConfig().backend == "serial"

    def test_env_var_flips_default(self, monkeypatch):
        """``$REPRO_BACKEND`` is retired: setting it flips nothing."""
        monkeypatch.setenv("REPRO_BACKEND", "socket")
        assert ExperimentConfig().backend == "serial"
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert ExperimentConfig().backend == "serial"
