"""Flat parameter arena and the unified state-access API.

Covers the four contracts the arena redesign makes:

* layout/façade — ``ParameterArena`` flattens parameters + buffers in
  ``state_dict()`` order, ``ArenaStateView`` is a read-only
  dict-compatible Mapping over the live buffer, and wire blobs sliced
  from the arena round-trip bit-exactly;
* state API — ``apply_state``/``LoadResult`` report (never silently
  drop) missing/unexpected/shape-mismatched keys, and the legacy
  ``load_state_dict`` path warns on arena-attached modules;
* one ``Stateful`` protocol for every checkpointed component
  (``Module``, ``FaultInjector``, ``QuarantineTracker``) with a shared
  round-trip;
* bit-identity — the arena paths (optimizer steps over views, the flat
  FedAvg round, the server's in-buffer gradient fold, range-copy CoW
  snapshots) equal small per-name dict oracles that live in this file,
  and seeded ``SearchReport``s agree across backends × tracing.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn as nn
from repro.checkpoint import restore_search_state, save_search_state
from repro.controller import ArchitecturePolicy
from repro.core import (
    ExperimentConfig,
    FederatedModelSearch,
    Stateful,
    capture_states,
    restore_states,
)
from repro.data import iid_partition, synth_cifar10
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.federated import (
    DistributionDelay,
    FedAvgConfig,
    FedAvgTrainer,
    FederatedSearchServer,
    Participant,
    ParameterVersions,
    build_backend,
    split_delta,
)
from repro.federated.validation import QuarantineTracker
from repro.search_space import Supernet, SupernetConfig

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)


def make_model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.GlobalAvgPool(),
        nn.Linear(4, 10, rng=rng),
    )


def make_server(seed=0, backend_name="serial", server_cls=FederatedSearchServer):
    train, _ = synth_cifar10(seed=1, train_per_class=10, test_per_class=2, image_size=8)
    shards = iid_partition(train, 3, rng=np.random.default_rng(0))
    supernet = Supernet(TINY, rng=np.random.default_rng(seed + 1))
    policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(seed + 2))
    participants = [
        Participant(k, s, batch_size=8, rng=np.random.default_rng(seed + 10 + k))
        for k, s in enumerate(shards)
    ]
    backend = build_backend(backend_name, participants, TINY, num_workers=2)
    return server_cls(
        supernet,
        policy,
        participants,
        delay_model=DistributionDelay(
            [0.5, 0.3, 0.1, 0.1],  # τ = 0, 1, 2, and past the threshold (dropped)
            staleness_threshold=2,
            rng=np.random.default_rng(seed + 3),
        ),
        rng=np.random.default_rng(seed + 4),
        backend=backend,
    )


def assert_states_equal(a, b):
    assert list(a) == list(b)
    for name in a:
        np.testing.assert_array_equal(a[name], b[name], err_msg=name)


# ----------------------------------------------------------------------
# Layout + attach/detach
# ----------------------------------------------------------------------
class TestArenaLayout:
    def test_index_follows_state_dict_order(self):
        model = make_model()
        reference_order = list(model.state_dict())
        arena = nn.ParameterArena(model)
        assert list(arena.index) == reference_order
        offset = 0
        for name, entry in arena.index.items():
            assert entry.offset == offset
            assert entry.size == (int(np.prod(entry.shape)) if entry.shape else 1)
            offset += entry.size
        assert arena.size == offset == arena.data.size == arena.grad.size
        assert arena.param_names + arena.buffer_names == reference_order

    def test_attach_rebinds_parameters_and_buffers_onto_buffer(self):
        model = make_model()
        before = {k: v.copy() for k, v in model.state_dict().items()}
        arena = nn.ParameterArena.from_module(model)
        for name, param in model.named_parameters():
            assert np.shares_memory(param.data, arena.data), name
        for name, buf in model.named_buffers():
            assert np.shares_memory(buf, arena.data), name
        assert model._arena is arena
        assert_states_equal(dict(model.state_dict()), before)

    def test_live_mutation_flows_through_views(self):
        model = make_model()
        arena = nn.ParameterArena.from_module(model)
        view = model.state_dict()
        w = model.layers[0].weight
        w.data -= 0.25
        np.testing.assert_array_equal(view["0.weight"], w.data)
        # BN forward updates running stats in place → visible in the view
        model.train()
        model(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        assert np.any(view["1.running_mean"] != 0.0)

    def test_non_float64_entry_rejected(self):
        model = make_model()
        model.layers[1].register_buffer("steps", np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match="float64"):
            nn.ParameterArena(model)

    def test_detach_restores_private_arrays(self):
        model = make_model()
        arena = nn.ParameterArena.from_module(model)
        arena.detach()
        assert model._arena is None
        for _, param in model.named_parameters():
            assert not np.shares_memory(param.data, arena.data)
        assert isinstance(model.state_dict(), dict)

    def test_double_attach_is_idempotent_and_cross_attach_rejected(self):
        model = make_model()
        arena = nn.ParameterArena.from_module(model)
        arena.attach()
        with pytest.raises(ValueError, match="another arena"):
            nn.ParameterArena(model).attach()
        assert model._arena is arena


# ----------------------------------------------------------------------
# Dict-compatible façade
# ----------------------------------------------------------------------
class TestArenaStateView:
    def test_mapping_protocol(self):
        model = make_model()
        arena = nn.ParameterArena.from_module(model)
        view = model.state_dict()
        assert isinstance(view, nn.ArenaStateView)
        assert len(view) == len(arena.index)
        assert "0.weight" in view and "bogus" not in view
        with pytest.raises(KeyError):
            view["bogus"]
        assert_states_equal(dict(view), {k: v for k, v in view.items()})

    def test_views_are_read_only(self):
        model = make_model()
        nn.ParameterArena.from_module(model)
        view = model.state_dict()
        with pytest.raises(ValueError):
            view["0.weight"][...] = 99.0
        # the module itself is untouched by the failed write
        assert not np.any(model.layers[0].weight.data == 99.0)

    def test_savez_consumes_view_like_a_dict(self, tmp_path):
        model = make_model()
        nn.ParameterArena.from_module(model)
        view = model.state_dict()
        path = tmp_path / "state.npz"
        np.savez(str(path), **view)
        with np.load(str(path)) as archive:
            assert_states_equal({k: archive[k] for k in archive.files}, dict(view))

    def test_subset_view_rejects_unknown_names(self):
        arena = nn.ParameterArena.from_module(make_model())
        sub = arena.state_view(["4.weight", "4.bias"])
        assert list(sub) == ["4.weight", "4.bias"]
        with pytest.raises(KeyError):
            arena.state_view(["0.weight", "nope"])


# ----------------------------------------------------------------------
# apply_state / LoadResult / deprecation
# ----------------------------------------------------------------------
class TestStateAPI:
    def test_apply_state_writes_in_place(self):
        model = make_model(seed=0)
        donor = make_model(seed=7)
        arena = nn.ParameterArena.from_module(model)
        before_objects = [p.data for _, p in model.named_parameters()]
        result = model.apply_state(dict(donor.state_dict()))
        assert result.ok
        assert_states_equal(dict(model.state_dict()), dict(donor.state_dict()))
        # same view objects, still arena-bound
        for obj, (_, p) in zip(before_objects, model.named_parameters()):
            assert obj is p.data
            assert np.shares_memory(p.data, arena.data)

    def test_strict_false_reports_mismatched_missing_unexpected(self):
        model = make_model()
        state = dict(make_model(seed=3).state_dict())
        original = np.array(state["0.weight"])
        state["0.weight"] = np.zeros((2, 2))
        del state["4.bias"]
        state["extra"] = np.zeros(3)
        before = model.layers[0].weight.data.copy()
        result = model.apply_state(state, strict=False)
        assert result.missing == ["4.bias"]
        assert result.unexpected == ["extra"]
        assert result.mismatched == [("0.weight", original.shape, (2, 2))]
        assert not result.ok
        # the mismatched key was skipped, not partially written
        np.testing.assert_array_equal(model.layers[0].weight.data, before)

    def test_strict_true_keeps_legacy_errors(self):
        model = make_model()
        state = dict(model.state_dict())
        state["0.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape mismatch for 0.weight"):
            model.apply_state(state, strict=True)
        state = dict(model.state_dict())
        state["extra"] = np.zeros(3)
        with pytest.raises(KeyError):
            model.apply_state(state, strict=True)

    def test_load_state_dict_warns_only_when_arena_attached(self):
        model = make_model()
        state = dict(model.state_dict())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model.load_state_dict(state)  # plain module: no warning
        nn.ParameterArena.from_module(model)
        with pytest.warns(DeprecationWarning, match="apply_state"):
            result = model.load_state_dict(dict(state))
        assert result.ok


# ----------------------------------------------------------------------
# Stateful protocol (checkpointed components, one code path)
# ----------------------------------------------------------------------
class TestStatefulProtocol:
    def components(self, tmp_path):
        model = make_model()
        plan_path = tmp_path / "plan.json"
        FaultPlan(
            seed=3, faults=(FaultSpec(kind="drop_update", round_start=1),)
        ).save(plan_path)
        injector = FaultInjector(FaultPlan.load(plan_path))
        quarantine = QuarantineTracker(strike_limit=1, quarantine_rounds=2)
        quarantine.record_rejection(0, 1)
        return {"model": model, "injector": injector, "quarantine": quarantine}

    def fresh(self, tmp_path):
        rebuilt = self.components(tmp_path)
        for p in rebuilt["model"].parameters():
            p.data += 1.0
        return rebuilt

    def test_every_component_satisfies_the_protocol(self, tmp_path):
        for name, component in self.components(tmp_path).items():
            assert isinstance(component, Stateful), name

    def test_shared_roundtrip_through_one_code_path(self, tmp_path):
        components = self.components(tmp_path)
        states = capture_states(components)
        assert set(states) == set(components)
        rebuilt = self.fresh(tmp_path)
        assert restore_states(rebuilt, states) == []
        for name in components:
            a, b = components[name].state_dict(), rebuilt[name].state_dict()
            if name == "model":
                assert_states_equal(dict(a), dict(b))
            else:
                assert a == b

    def test_capture_keeps_absent_components_as_none(self):
        states = capture_states({"injector": None})
        assert states == {"injector": None}

    def test_restore_reports_mismatches(self, tmp_path):
        components = self.components(tmp_path)
        states = capture_states(components)
        # live component without state, and state without live component
        assert restore_states(
            {"model": components["model"], "injector": components["injector"]},
            {"model": states["model"], "quarantine": states["quarantine"]},
        ) == ["injector", "quarantine"]
        # None on both sides (component absent, nothing recorded) is fine
        assert restore_states({"injector": None}, {"injector": None}) == []

    def test_capture_rejects_non_stateful(self):
        with pytest.raises(TypeError, match="Stateful"):
            capture_states({"thing": object()})


# ----------------------------------------------------------------------
# Array-backed version counters + vectorized split_delta
# ----------------------------------------------------------------------
class TestArrayVersions:
    def test_semantics_match_dict_backed_counters(self):
        versions = ParameterVersions(["a", "b", "c"])
        assert (versions["a"], versions.get("z"), len(versions)) == (1, 0, 3)
        versions.bump(["a", "a", "c"])  # duplicates bump per occurrence
        assert versions.snapshot() == {"a": 3, "b": 1, "c": 2}
        versions.bump(["new"])  # unknown names appended at 1
        assert versions["new"] == 1
        versions.bump_all()
        assert versions.snapshot() == {"a": 4, "b": 2, "c": 3, "new": 2}
        assert versions.subset(["c", "a"]) == {"c": 3, "a": 4}

    def test_lookups_return_plain_python_ints(self):
        versions = ParameterVersions(["a"])
        for value in (
            versions["a"],
            versions.get("a"),
            *versions.subset(["a"]).values(),
            *versions.snapshot().values(),
        ):
            assert type(value) is int

    def test_vector_helpers(self):
        versions = ParameterVersions(["a", "b", "c"])
        versions.bump(["b"])
        pos = versions.positions(["c", "b"])
        np.testing.assert_array_equal(versions.values_at(pos), [1, 2])
        versions.bump_all()
        np.testing.assert_array_equal(versions.values_at(pos), [2, 3])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_split_delta_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"p{i}" for i in range(12)]
        versions = ParameterVersions(names)
        for _ in range(int(rng.integers(0, 4))):
            versions.bump(rng.choice(names, size=5).tolist())
        state = {name: rng.normal(size=3) for name in rng.permutation(names)[:8]}
        acked = {
            name: int(rng.integers(0, 4))
            for name in names
            if rng.random() < 0.6
        }
        delta, refs = split_delta(state, versions.subset(state), acked)
        # scalar reference implementation (the pre-vectorization loop)
        expect_refs = {
            n: versions[n] for n in state if acked.get(n) == versions[n]
        }
        assert refs == expect_refs
        assert set(delta) == set(state) - set(refs)
        assert set(delta) | set(refs) == set(state)

    def test_split_delta_accepts_plain_dict_versions(self):
        state = {"a": np.zeros(2), "b": np.ones(2)}
        delta, refs = split_delta(state, {"a": 5, "b": 2}, {"a": 5, "b": 1})
        assert list(refs) == ["a"] and list(delta) == ["b"]


# ----------------------------------------------------------------------
# Wire blobs sliced straight from the arena buffer
# ----------------------------------------------------------------------
class TestArenaBlob:
    def test_full_roundtrip_bit_exact(self):
        model = make_model(seed=5)
        arena = nn.ParameterArena.from_module(model)
        live = {name: arena.view(name) for name in arena.index}
        blob = nn.pack_state(live, dtype="float64")
        assert blob == nn.pack_state(dict(model.state_dict()), dtype="float64")
        assert_states_equal(nn.unpack_state(blob), dict(model.state_dict()))

    def test_subset_and_compression(self):
        arena = nn.ParameterArena.from_module(make_model(seed=5))
        names = ["4.weight", "0.weight"]  # out of layout order on purpose
        live = {name: arena.view(name) for name in names}
        blob = nn.pack_state(live, dtype="float64", compress=True)
        restored = nn.unpack_state(blob, compressed=True)
        assert list(restored) == names
        for name in names:
            np.testing.assert_array_equal(restored[name], arena.view(name))

    def test_restored_arrays_are_writable(self):
        arena = nn.ParameterArena.from_module(make_model())
        live = {name: arena.view(name) for name in arena.index}
        restored = nn.unpack_state(nn.pack_state(live, dtype="float64"))
        restored["0.weight"][...] = 1.0  # must not raise
        assert not np.shares_memory(restored["0.weight"], arena.data)

    def test_corrupt_blobs_rejected(self):
        arena = nn.ParameterArena.from_module(make_model())
        live = {name: arena.view(name) for name in arena.index}
        blob = nn.pack_state(live, dtype="float64")
        with pytest.raises(ValueError, match="truncated"):
            nn.unpack_state(blob[:-16])  # truncated body
        with pytest.raises(ValueError, match="dtype"):
            nn.unpack_state(blob.replace(b"<f8", b"\xff\xfe8", 1))
        bad = nn.pack_state(live, dtype="float64", compress=True)
        with pytest.raises(ValueError, match="corrupt"):
            nn.unpack_state(bad[:-5], compressed=True)


# ----------------------------------------------------------------------
# CoW snapshots over the flat buffer
# ----------------------------------------------------------------------
def cow_clone_state(state, versions, cache):
    """Dict oracle: per-name CoW (copy iff the version moved)."""
    snapshot = {}
    for name, value in state.items():
        cached = cache.get(name)
        if cached is None or cached[0] != versions[name]:
            cached = cache[name] = (versions[name], np.array(value, copy=True))
        snapshot[name] = cached[1]
    return snapshot


class TestCowSnapshot:
    def test_matches_cow_clone_state_and_shares_unchanged(self):
        model = make_model()
        arena = nn.ParameterArena.from_module(model)
        names = arena.param_names
        versions = ParameterVersions(names + arena.buffer_names)
        dict_cache = {}
        live = {name: arena.view(name) for name in names}

        first = arena.cow_snapshot(versions)
        ref = cow_clone_state(live, versions, dict_cache)
        assert_states_equal(first, ref)

        # mutate two entries, bump their versions
        changed = [names[0], names[-1]]
        for name in changed:
            arena.view(name)[...] += 1.0
        versions.bump(changed)
        second = arena.cow_snapshot(versions)
        assert_states_equal(second, cow_clone_state(live, versions, dict_cache))
        for name in names:
            if name in changed:
                assert second[name] is not first[name]
            else:
                assert second[name] is first[name], name
        # frozen snapshots must not alias the live buffer
        arena.view(changed[0])[...] += 1.0
        assert not np.any(second[changed[0]] == arena.view(changed[0]))


# ----------------------------------------------------------------------
# Bit-identity: optimizer / FedAvg / server / pipeline
# ----------------------------------------------------------------------
class TestBitIdentity:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_masked_training_property(self, seed):
        """Random sparse 'masks' of gradients + SGD steps + mid-sequence
        checkpoint/restore are bit-identical arena on/off."""
        rng = np.random.default_rng(seed)

        def run(arena_mode):
            model = make_model(seed=seed % 97)
            arena = nn.ParameterArena.from_module(model) if arena_mode else None
            optimizer = nn.SGD(
                model.parameters(), lr=0.05, momentum=0.9, weight_decay=3e-4
            )
            local = np.random.default_rng(seed)
            params = list(model.named_parameters())
            saved = None
            for step in range(6):
                optimizer.zero_grad()
                # random subset of parameters receives gradient (a mask)
                for name, p in params:
                    if local.random() < 0.6:
                        p.grad = local.normal(size=p.data.shape)
                nn.clip_grad_norm(model.parameters(), 5.0)
                optimizer.step()
                if step == 2:  # checkpoint mid-sequence…
                    saved = {k: np.array(v) for k, v in model.state_dict().items()}
                if step == 4 and saved is not None:  # …and restore
                    model.apply_state(saved, strict=True)
            return {k: np.array(v) for k, v in model.state_dict().items()}

        assert_states_equal(run(False), run(True))

    def test_fedavg_rounds(self):
        train, _ = synth_cifar10(seed=2, train_per_class=8, test_per_class=2, image_size=8)
        shards = iid_partition(train, 3, rng=np.random.default_rng(0))

        class DictFedAvg(FedAvgTrainer):
            """Dict oracle: the round over per-name state dicts."""

            def run_round(self):
                self.arena.detach()
                selected = self.rng.choice(len(self.shards), len(self.shards), False)
                start = self.model.state_dict()
                states, sizes, accuracies = [], [], []
                for idx in selected:
                    self.model.load_state_dict(start)
                    accuracies.append(self._local_train(int(idx)))
                    states.append(self.model.state_dict())
                    sizes.append(len(self.shards[idx]))
                self.model.load_state_dict({
                    name: sum((n / sum(sizes)) * s[name] for s, n in zip(states, sizes))
                    for name in start
                })
                self.recorder.record("train_accuracy", float(np.mean(accuracies)))

        def run(trainer_cls):
            trainer = trainer_cls(
                make_model(seed=11),
                shards,
                FedAvgConfig(batch_size=8, local_steps=2),
                rng=np.random.default_rng(5),
            )
            for _ in range(3):
                trainer.run_round()
            return (
                {k: np.array(v) for k, v in trainer.model.state_dict().items()},
                trainer.recorder.series,
            )

        state_a, curves_a = run(DictFedAvg)
        state_b, curves_b = run(FedAvgTrainer)
        assert_states_equal(state_a, state_b)
        assert curves_a == curves_b

    def test_server_rounds_with_stragglers(self):
        """Aggregation, staleness compensation, BN folding, and CoW pools
        all run under DistributionDelay — the in-arena gradient fold must
        match a per-name copy-then-add fold exactly."""

        class DictFoldServer(FederatedSearchServer):
            """Dict oracle: detached per-name sums, never the arena's
            gradient buffer, each divided into a copy for the step."""

            def _add_gradients(self, grad_sum, gradients):
                for name, grad in gradients.items():
                    if name in grad_sum:
                        grad_sum[name] = grad_sum[name] + grad
                    else:
                        grad_sum[name] = np.array(grad, copy=True)

            def _step_theta(self, grad_sum, count):
                self.theta_optimizer.zero_grad()
                for name, param in self._params.items():
                    if name in grad_sum:
                        param.grad = grad_sum[name] / count
                nn.clip_grad_norm(self._params.values(), self.config.theta_grad_clip)
                self.theta_optimizer.step()
                self.versions.bump(grad_sum)

        results = {}
        for server_cls in (DictFoldServer, FederatedSearchServer):
            server = make_server(server_cls=server_cls)
            try:
                rounds = server.run(6)
            finally:
                server.backend.close()
            results[server_cls] = (
                rounds,
                {k: np.array(v) for k, v in server.supernet.state_dict().items()},
                np.array(server.policy.alpha),
                server.versions.snapshot(),
            )
        oracle, arena = results[DictFoldServer], results[FederatedSearchServer]
        assert sum(r.num_stale_used for r in arena[0]) > 0  # stragglers happened
        assert repr(oracle[0]) == repr(arena[0])
        assert_states_equal(oracle[1], arena[1])
        np.testing.assert_array_equal(oracle[2], arena[2])
        assert oracle[3] == arena[3]

    def test_dict_checkpoint_resumes_into_arena_server(self, tmp_path):
        """The checkpoint's θ is a per-name npz dict; restoring it writes
        through the arena views in place and the run continues exactly."""
        reference = make_server()
        try:
            all_rounds = reference.run(6)
        finally:
            reference.backend.close()

        first_half = make_server()
        try:
            head = first_half.run(3)
            path = tmp_path / "mid.ckpt"
            save_search_state(first_half, path)
        finally:
            first_half.backend.close()

        second_half = make_server()
        try:
            restore_search_state(second_half, path)
            for name, param in second_half.supernet.named_parameters():
                assert np.shares_memory(param.data, second_half.arena.data), name
            tail = second_half.run(3)
            final = {
                k: np.array(v) for k, v in second_half.supernet.state_dict().items()
            }
        finally:
            second_half.backend.close()

        assert repr(head + tail) == repr(all_rounds)
        assert_states_equal(
            final, {k: np.array(v) for k, v in reference.supernet.state_dict().items()}
        )


def tiny_config(**overrides):
    base = dict(
        num_participants=3,
        train_per_class=6,
        test_per_class=2,
        warmup_rounds=2,
        search_rounds=3,
        retrain_epochs=1,
        fl_retrain_rounds=2,
        batch_size=8,
        seed=9,
        staleness_mix=(0.7, 0.3),
    )
    base.update(overrides)
    return ExperimentConfig.small(**base)


def assert_reports_equal(a, b):
    assert a.genotype == b.genotype
    assert a.test_accuracy == b.test_accuracy
    assert a.model_parameters == b.model_parameters
    assert a.mean_submodel_bytes == b.mean_submodel_bytes
    assert a.simulated_search_time_s == b.simulated_search_time_s
    assert repr(a.warmup_results) == repr(b.warmup_results)
    assert repr(a.search_results) == repr(b.search_results)
    assert set(a.search_recorder.series) == set(b.search_recorder.series)
    for name, values in a.search_recorder.series.items():
        np.testing.assert_array_equal(
            values, b.search_recorder.series[name], err_msg=name
        )
    for name, values in a.retrain_recorder.series.items():
        np.testing.assert_array_equal(
            values, b.retrain_recorder.series[name], err_msg=name
        )


class TestPipelineBitIdentity:
    """SearchReport equality × backend × tracing, against the serial
    untraced run (wire v2: every daemon honours trace contexts, so a
    traced run may not differ from an untraced one anywhere)."""

    @pytest.fixture(scope="class")
    def reference(self):
        pipeline = FederatedModelSearch(
            tiny_config(backend="serial", tracing_enabled=False)
        )
        try:
            return pipeline.run(retrain_mode="federated")
        finally:
            pipeline.close()

    @pytest.mark.parametrize(
        "backend_name,tracing",
        [
            ("serial", False),
            ("serial", True),
            ("process", False),
            ("process", True),
            ("socket", False),
            ("socket", True),
        ],
    )
    def test_search_report_matches(self, reference, backend_name, tracing):
        pipeline = FederatedModelSearch(
            tiny_config(
                backend=backend_name, num_workers=2, tracing_enabled=tracing
            )
        )
        try:
            report = pipeline.run(retrain_mode="federated")
        finally:
            pipeline.close()
        assert_reports_equal(reference, report)

    def test_dict_checkpoint_resumes_into_arena_pipeline(self, tmp_path):
        """A pipeline killed after warm-up resumes from its checkpoint
        (per-name npz θ, applied through the arena views) to the report
        of the run that never stopped."""
        reference = FederatedModelSearch(tiny_config())
        try:
            expected = reference.run(retrain_mode="federated")
        finally:
            reference.close()

        ckpt = tmp_path / "run.ckpt"
        killed = FederatedModelSearch(
            tiny_config(checkpoint_every=1, checkpoint_path=str(ckpt))
        )
        try:
            killed.warm_up()  # killed after warm-up, mid-run
        finally:
            killed.close()
        assert ckpt.exists()

        resumed = FederatedModelSearch.resume(str(ckpt))
        try:
            report = resumed.run(retrain_mode="federated")
        finally:
            resumed.close()
        assert_reports_equal(report, expected)

    def test_resume_rejects_unknown_override(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        pipeline = FederatedModelSearch(
            tiny_config(checkpoint_every=1, checkpoint_path=str(ckpt))
        )
        try:
            pipeline.warm_up()
        finally:
            pipeline.close()
        with pytest.raises(ValueError, match="unknown config override"):
            FederatedModelSearch.resume(str(ckpt), config_overrides={"nope": 1})
