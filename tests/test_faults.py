"""Tests for deterministic fault injection (repro.faults) and the
server-side validation/quarantine boundary it exercises."""

import numpy as np
import pytest

from repro.controller import ArchitecturePolicy
from repro.data import iid_partition, synth_cifar10
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedServerCrash,
)
from repro.federated import (
    FederatedSearchServer,
    Participant,
    ParticipantUpdate,
    SearchServerConfig,
)
from repro.federated.validation import UpdateValidator
from repro.search_space import Supernet, SupernetConfig

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


def make_server(seed=0, plan=None, config=None):
    train, _ = synth_cifar10(seed=1, train_per_class=10, test_per_class=2, image_size=8)
    shards = iid_partition(train, 3, rng=np.random.default_rng(0))
    supernet = Supernet(TINY, rng=np.random.default_rng(seed + 1))
    policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(seed + 2))
    participants = [
        Participant(k, s, batch_size=8, rng=np.random.default_rng(seed + 10 + k))
        for k, s in enumerate(shards)
    ]
    injector = FaultInjector(plan) if plan is not None else None
    return FederatedSearchServer(
        supernet,
        policy,
        participants,
        config=config,
        rng=np.random.default_rng(seed + 4),
        fault_injector=injector,
    )


def make_update(participant_id=0):
    return ParticipantUpdate(
        participant_id=participant_id,
        gradients={"a.weight": np.ones((2, 3)), "b.weight": np.full((4,), 2.0)},
        reward=0.5,
        num_samples=8,
        compute_time_s=0.1,
        buffers={},
    )


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="drop_update", probability=1.5)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="round_end"):
            FaultSpec(kind="drop_update", round_start=5, round_end=5)

    def test_active_window_half_open(self):
        spec = FaultSpec(kind="drop_update", round_start=2, round_end=4)
        assert [spec.active(t) for t in range(6)] == [
            False, False, True, True, False, False,
        ]

    def test_active_participant_targeting(self):
        spec = FaultSpec(kind="corrupt_nan", participant=1)
        assert spec.active(0, 1)
        assert not spec.active(0, 2)

    def test_dict_roundtrip_every_kind(self):
        for kind in FAULT_KINDS:
            spec = FaultSpec(kind=kind, participant=2, round_start=1, round_end=9)
            assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultSpec.from_dict({"kind": "drop_update", "pineapple": 1})


class TestFaultPlan:
    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            faults=(
                FaultSpec(kind="corrupt_nan", participant=1, round_start=2),
                FaultSpec(kind="drop_update", probability=0.2),
                FaultSpec(kind="crash_server", round_start=5),
            ),
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan key"):
            FaultPlan.from_dict({"seed": 0, "faults": [], "extra": True})

    def test_crash_rounds(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="drop_update"),
                FaultSpec(kind="crash_server", round_start=3),
            )
        )
        assert plan.crash_rounds() == [3]

    def test_missing_file_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read fault plan"):
            FaultPlan.load(tmp_path / "nope.json")


class TestFaultInjector:
    def test_drop(self):
        injector = FaultInjector(FaultPlan(faults=(FaultSpec(kind="drop_update"),)))
        assert injector.transform_update(0, 0, make_update()) == []

    def test_duplicate(self):
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="duplicate_update"),))
        )
        out = injector.transform_update(0, 0, make_update())
        assert len(out) == 2
        np.testing.assert_array_equal(
            out[0].gradients["a.weight"], out[1].gradients["a.weight"]
        )
        assert out[0] is not out[1]

    @pytest.mark.parametrize("kind", ["corrupt_nan", "corrupt_inf"])
    def test_corrupt_nonfinite(self, kind):
        injector = FaultInjector(FaultPlan(faults=(FaultSpec(kind=kind),)))
        original = make_update()
        (damaged,) = injector.transform_update(0, 0, original)
        assert not all(
            np.isfinite(g).all() for g in damaged.gradients.values()
        )
        # deep-copied: the original reply is untouched
        assert all(np.isfinite(g).all() for g in original.gradients.values())

    def test_corrupt_shape(self):
        injector = FaultInjector(FaultPlan(faults=(FaultSpec(kind="corrupt_shape"),)))
        original = make_update()
        (damaged,) = injector.transform_update(0, 0, original)
        shapes = {n: g.shape for n, g in damaged.gradients.items()}
        assert shapes != {n: g.shape for n, g in original.gradients.items()}

    def test_corrupt_norm(self):
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="corrupt_norm", scale=1e6),))
        )
        (damaged,) = injector.transform_update(0, 0, make_update())
        np.testing.assert_allclose(
            damaged.gradients["a.weight"], np.full((2, 3), 1e6)
        )

    def test_participant_targeting(self):
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="drop_update", participant=1),))
        )
        assert injector.transform_update(0, 0, make_update(0)) != []
        assert injector.transform_update(0, 1, make_update(1)) == []

    def test_crash_fires_once(self):
        injector = FaultInjector(
            FaultPlan(faults=(FaultSpec(kind="crash_server", round_start=2),))
        )
        injector.maybe_crash(0)
        injector.maybe_crash(1)
        with pytest.raises(InjectedServerCrash):
            injector.maybe_crash(2)
        injector.maybe_crash(2)  # already fired: no second crash

    def test_mark_resumed_suppresses_past_crashes(self):
        injector = FaultInjector(
            FaultPlan(
                faults=(
                    FaultSpec(kind="crash_server", round_start=2),
                    FaultSpec(kind="crash_server", round_start=9),
                )
            )
        )
        injector.mark_resumed(2)
        injector.maybe_crash(2)  # suppressed
        with pytest.raises(InjectedServerCrash):
            injector.maybe_crash(9)  # future crashes still fire

    def test_probability_rolls_deterministic(self):
        plan = FaultPlan(
            seed=3, faults=(FaultSpec(kind="drop_update", probability=0.5),)
        )

        def decisions(injector):
            return [
                injector.transform_update(t, 0, make_update()) == []
                for t in range(50)
            ]

        a = decisions(FaultInjector(plan))
        b = decisions(FaultInjector(plan))
        assert a == b
        assert any(a) and not all(a)  # actually probabilistic

    def test_state_dict_roundtrip(self):
        plan = FaultPlan(
            seed=3,
            faults=(
                FaultSpec(kind="drop_update", probability=0.5),
                FaultSpec(kind="crash_server", round_start=4),
            ),
        )
        first = FaultInjector(plan)
        for t in range(10):
            first.transform_update(t, 0, make_update())
        state = first.state_dict()

        second = FaultInjector(plan)
        second.load_state_dict(state)
        for t in range(10, 20):
            assert (
                first.transform_update(t, 0, make_update()) == []
            ) == (second.transform_update(t, 0, make_update()) == [])


class TestUpdateValidator:
    """Each rule of the trust boundary, one damaged field at a time."""

    VALIDATOR = UpdateValidator(
        {"a.weight": (2, 3), "b.weight": (4,)},
        {"bn.running_mean": (3,)},
        norm_limit=100.0,
    )

    def update(self, **fields):
        update = make_update()
        update.buffers = {"bn.running_mean": np.zeros(3)}
        for name, value in fields.items():
            setattr(update, name, value)
        return update

    def test_a_clean_update_passes(self):
        assert self.VALIDATOR.validate(self.update()) is None

    @pytest.mark.parametrize(
        "fields,reason",
        [
            ({"reward": float("nan")}, "non_finite_reward"),
            ({"gradients": {"c.weight": np.ones(2)}}, "unknown_parameter"),
            ({"gradients": {"a.weight": np.ones((3, 2))}}, "shape_mismatch"),
            ({"gradients": {"b.weight": np.full(4, np.inf)}}, "non_finite_gradient"),
            ({"gradients": {"b.weight": np.full(4, 1e3)}}, "norm_outlier"),
            ({"buffers": {"bn.running_var": np.ones(3)}}, "unknown_buffer"),
            ({"buffers": {"bn.running_mean": np.ones(1)}}, "buffer_shape_mismatch"),
            ({"buffers": {"bn.running_mean": np.full(3, np.nan)}}, "non_finite_buffer"),
        ],
    )
    def test_each_rule_names_its_reason(self, fields, reason):
        assert self.VALIDATOR.validate(self.update(**fields)) == reason

    def test_buffer_name_and_shape_are_checked_before_finiteness(self):
        """A mis-shaped buffer is refused for its shape even when it is
        also non-finite."""
        bad = {"bn.running_mean": np.full((3, 1), np.nan)}
        assert self.VALIDATOR.validate(self.update(buffers=bad)) == (
            "buffer_shape_mismatch"
        )


def _reason_cases():
    """(id, reward, gradients, buffers, norm_limit, reason) rows."""
    nan, inf = np.nan, np.inf
    clean = {"a.weight": np.ones((2, 3)), "b.weight": np.full(4, 2.0), "s": np.array(0.5)}
    buffers = {"bn.running_mean": np.zeros(3), "bn.count": np.array(1.0)}
    f32 = {k: v.astype(np.float32) for k, v in clean.items()}

    def grads(**changes):
        return {**clean, **changes}

    def bufs(**changes):
        return {**buffers, **changes}

    rows = [("clean", 0.5, clean, buffers, 100.0, None)]
    for bad in (nan, inf, -inf):
        rows += [
            (f"reward={bad}", bad, clean, buffers, 100.0, "non_finite_reward"),
            (f"a.weight={bad}", 0.5, grads(**{"a.weight": np.full((2, 3), bad)}), buffers,
             100.0, "non_finite_gradient"),
            (f"b.weight[3]={bad}", 0.5, grads(**{"b.weight": np.array([1.0, 2.0, 3.0, bad])}),
             buffers, 100.0, "non_finite_gradient"),
            (f"0-d s={bad}", 0.5, grads(s=np.array(bad)), buffers, 100.0, "non_finite_gradient"),
            (f"float32 a.weight={bad}", 0.5, {**f32, "a.weight": np.full((2, 3), bad, np.float32)},
             buffers, 100.0, "non_finite_gradient"),
            (f"no limit, a.weight={bad}", 0.5, grads(**{"a.weight": np.full((2, 3), bad)}),
             buffers, 0.0, "non_finite_gradient"),
            (f"mean[0]={bad}", 0.5, clean, bufs(**{"bn.running_mean": np.array([bad, 0.0, 0.0])}),
             100.0, "non_finite_buffer"),
            (f"0-d count={bad}", 0.5, clean, bufs(**{"bn.count": np.array(bad)}), 100.0,
             "non_finite_buffer"),
        ]
    rows += [
        ("float32 clean", 0.5, f32, buffers, 100.0, None),
        # Finite, but their squares overflow float64: an outlier, not NaN.
        ("squares overflow", 0.5, grads(**{"b.weight": np.full(4, 1e200)}), buffers, 100.0,
         "norm_outlier"),
        ("squares overflow, no limit", 0.5, grads(**{"b.weight": np.full(4, 1e200)}), buffers,
         0.0, None),
        ("0-d squares overflow", 0.5, grads(s=np.array(-1e300)), buffers, 100.0, "norm_outlier"),
        ("buffer squares overflow", 0.5, clean, bufs(**{"bn.running_mean": np.full(3, 1e300)}),
         100.0, None),
        # Squares overflow float32 but not the float64 norm.
        ("float32 squares overflow float32 only", 0.5,
         {**f32, "b.weight": np.full(4, 1e20, np.float32)}, buffers, 1e30, None),
        ("float32 outlier", 0.5, {**f32, "b.weight": np.full(4, 3e38, np.float32)}, buffers,
         100.0, "norm_outlier"),
        # The first fault wins when an update carries several.
        ("reward before gradient", nan, grads(**{"a.weight": np.full((2, 3), nan)}), buffers,
         100.0, "non_finite_reward"),
        ("gradient order: NaN then unknown", 0.5,
         {"a.weight": np.full((2, 3), nan), "c.weight": np.ones(2)}, buffers, 100.0,
         "non_finite_gradient"),
        ("gradient order: unknown then NaN", 0.5,
         {"c.weight": np.ones(2), "a.weight": np.full((2, 3), nan)}, buffers, 100.0,
         "unknown_parameter"),
        ("shape before finiteness", 0.5, grads(**{"a.weight": np.full((3, 2), nan)}), buffers,
         100.0, "shape_mismatch"),
        ("overflow then NaN: the NaN wins", 0.5,
         {"b.weight": np.full(4, 1e200), "a.weight": np.full((2, 3), nan)}, buffers, 100.0,
         "non_finite_gradient"),
        ("outlier before a bad buffer", 0.5, grads(**{"b.weight": np.full(4, 1e3)}),
         bufs(**{"bn.running_mean": np.full(3, nan)}), 100.0, "norm_outlier"),
        ("gradient before buffer", 0.5, grads(s=np.array(inf)),
         bufs(**{"bn.running_var": np.ones(3)}), 100.0, "non_finite_gradient"),
        ("unknown buffer before NaN buffer", 0.5, clean,
         {"bn.running_var": np.ones(3), "bn.running_mean": np.full(3, nan)}, 100.0,
         "unknown_buffer"),
        ("NaN buffer before unknown buffer", 0.5, clean,
         {"bn.running_mean": np.full(3, nan), "bn.running_var": np.ones(3)}, 100.0,
         "non_finite_buffer"),
    ]
    return [pytest.param(*row[1:], id=row[0]) for row in rows]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("reward,gradients,buffers,norm_limit,reason", _reason_cases())
def test_validator_reason_table(reward, gradients, buffers, norm_limit, reason):
    """NaN or inf in every slot, 0-d and float32 arrays, finite values
    whose squares overflow, and several faults in one update: the
    validator names the first fault in check order."""
    validator = UpdateValidator(
        {"a.weight": (2, 3), "b.weight": (4,), "s": ()},
        {"bn.running_mean": (3,), "bn.count": ()},
        norm_limit=norm_limit,
    )
    update = make_update()
    update.reward, update.gradients, update.buffers = reward, gradients, buffers
    assert validator.validate(update) == reason


class TestFaultyRounds:
    """Server-level integration: the ISSUE's acceptance scenario."""

    PLAN = FaultPlan(
        seed=5,
        faults=(
            FaultSpec(kind="corrupt_nan", participant=0),
            FaultSpec(kind="drop_update", participant=1, probability=0.3),
            FaultSpec(kind="offline", participant=2, probability=0.3),
        ),
    )

    def run_rounds(self, rounds=8):
        server = make_server(seed=2, plan=self.PLAN)
        results = server.run(rounds)
        return server, results

    def test_no_nan_reaches_theta_or_alpha(self):
        server, _ = self.run_rounds()
        assert np.isfinite(server.policy.alpha).all()
        for name, param in server.supernet.named_parameters():
            assert np.isfinite(param.data).all(), name
        assert np.isfinite(server.baseline.value)

    def test_offender_is_quarantined(self):
        server, results = self.run_rounds()
        state = server.quarantine.state_dict()
        # participant 0 (the NaN corruptor) served at least one sentence
        assert state["offenses"].get("0", 0) >= 1, state
        assert sum(r.num_rejected for r in results) >= server.config.strike_limit

    def test_deterministic_across_repeats(self):
        server_a, results_a = self.run_rounds()
        server_b, results_b = self.run_rounds()
        # repr comparison: NaN round fields compare unequal directly
        assert repr(results_a) == repr(results_b)
        np.testing.assert_array_equal(server_a.policy.alpha, server_b.policy.alpha)

    def test_crash_propagates_from_run(self):
        plan = FaultPlan(faults=(FaultSpec(kind="crash_server", round_start=2),))
        server = make_server(seed=2, plan=plan)
        with pytest.raises(InjectedServerCrash):
            server.run(5)
        assert server.round == 2  # rounds 0 and 1 completed, round 2 never ran

    def test_all_invalid_round_leaves_model_untouched(self):
        plan = FaultPlan(faults=(FaultSpec(kind="corrupt_nan"),))
        server = make_server(seed=2, plan=plan)
        alpha_before = server.policy.alpha.copy()
        theta_before = {
            name: p.data.copy() for name, p in server.supernet.named_parameters()
        }
        results = server.run(3)
        assert all(r.num_fresh == 0 and r.num_stale_used == 0 for r in results)
        assert any(r.num_rejected > 0 for r in results)
        np.testing.assert_array_equal(server.policy.alpha, alpha_before)
        for name, param in server.supernet.named_parameters():
            np.testing.assert_array_equal(param.data, theta_before[name])

    def test_quarantined_participant_counts_offline(self):
        config = SearchServerConfig(strike_limit=1, quarantine_rounds=4)
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="corrupt_nan", participant=0, round_start=0, round_end=1),
            )
        )
        server = make_server(seed=2, plan=plan, config=config)
        results = server.run(4)
        # round 0's corrupt update earns the only strike -> quarantined
        assert server.quarantine.num_quarantined == 1
        assert any(r.num_offline >= 1 for r in results[1:])
