"""Grouped local steps: cohort members that share a mask and θ stack.

The contract under test:

* every :class:`ParticipantUpdate` a grouped step returns — any group
  size up to the cap, the same key again and again — equals the eager
  oracle's (:func:`_run_eager_step`) bit for bit: gradients, buffers,
  reward, ``num_samples`` and ``compute_time_s``;
* a serial round that mixes two masks, and a member whose shard is
  shorter than the batch, still return every update in task order and
  bit-equal to the oracle;
* ``tape.stats()`` counts one step per member;
* chunks are balanced and never exceed the cap;
* the one-node train-mode batch norm is gradchecked at one and three
  stacked members, and each member's slice normalises as it would alone.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.controller import ArchitecturePolicy
from repro.data import ArrayDataset, iid_partition, synth_cifar10
from repro.federated import Participant, SerialBackend, compiled
from repro.federated.participant import (
    LocalStepTask,
    ParticipantSpec,
    _run_eager_step,
    run_local_group,
)
from repro.nn import Tensor, tape
from repro.search_space import Supernet, SupernetConfig

from .gradcheck import assert_gradients_close

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)
BATCH = 8


@pytest.fixture(autouse=True)
def _fresh_engine():
    compiled.reset_cache()
    tape.reset_stats()
    yield
    compiled.reset_cache()
    tape.reset_stats()


@pytest.fixture(scope="module")
def shards():
    train, _ = synth_cifar10(seed=1, train_per_class=12, test_per_class=2, image_size=8)
    parts = iid_partition(train, compiled._MAX_GROUP + 1, rng=np.random.default_rng(0))
    # The last participant's shard is shorter than the batch.
    short = parts[-1]
    parts[-1] = ArrayDataset(short.images[: BATCH - 3], short.labels[: BATCH - 3], short.num_classes)
    return parts


@pytest.fixture(scope="module")
def supernet():
    return Supernet(TINY, rng=np.random.default_rng(0))


def _masks(count, seed=7):
    policy = ArchitecturePolicy(TINY.num_edges, rng=np.random.default_rng(seed))
    return [policy.sample_mask() for _ in range(count)]


def _task(k, mask, state, seed):
    return LocalStepTask(
        participant_id=k, round_index=0, mask=mask, state=state, batch_seed=seed
    )


def _eager(task, spec):
    return _run_eager_step(task, spec.dataset, spec.batch_size, TINY, device=spec.device)


def _assert_bit_equal(ref, got):
    assert got.participant_id == ref.participant_id
    assert set(ref.gradients) == set(got.gradients)
    for name in ref.gradients:
        assert ref.gradients[name].tobytes() == got.gradients[name].tobytes(), name
    assert set(ref.buffers) == set(got.buffers)
    for name in ref.buffers:
        assert ref.buffers[name].tobytes() == got.buffers[name].tobytes(), name
    assert ref.reward == got.reward
    assert ref.num_samples == got.num_samples
    assert ref.compute_time_s == got.compute_time_s


@pytest.mark.parametrize("size", range(1, compiled._MAX_GROUP + 1))
def test_every_group_size_matches_the_eager_oracle(size, shards, supernet):
    """Three groups of one key, one after another."""
    (mask,) = _masks(1)
    state = supernet.submodel_state(mask)
    specs = [ParticipantSpec(k, shards[k], BATCH) for k in range(size)]
    for repeat in range(3):
        tasks = [_task(k, mask, state, 100 * repeat + k) for k in range(size)]
        updates = run_local_group(tasks, specs, TINY)
        assert len(updates) == size
        for task, spec, got in zip(tasks, specs, updates):
            _assert_bit_equal(_eager(task, spec), got)
    assert tape.stats().snapshot() == {"steps": 3 * size, "replays": 0}


def test_members_with_different_batch_shapes_run_one_at_a_time(shards, supernet):
    (mask,) = _masks(1)
    state = supernet.submodel_state(mask)
    specs = [ParticipantSpec(0, shards[0], BATCH), ParticipantSpec(1, shards[-1], BATCH)]
    tasks = [_task(k, mask, state, 40 + k) for k in range(2)]
    updates = run_local_group(tasks, specs, TINY)
    assert [u.num_samples for u in updates] == [BATCH, BATCH - 3]
    for task, spec, got in zip(tasks, specs, updates):
        _assert_bit_equal(_eager(task, spec), got)
    assert tape.stats().snapshot() == {"steps": 2, "replays": 0}


def test_serial_round_mixing_two_masks_and_a_short_shard(shards, supernet):
    """Interleaved masks group by key; results come back in task order."""
    participants = [
        Participant(k, shard, batch_size=BATCH, rng=np.random.default_rng(k))
        for k, shard in enumerate(shards)
    ]
    backend = SerialBackend(participants, TINY)
    masks = _masks(2, seed=11)
    states = [supernet.submodel_state(mask) for mask in masks]
    specs = [ParticipantSpec.from_participant(p) for p in participants]
    seen = []
    for round_index in range(3):
        tasks = [
            _task(k % len(participants), masks[k % 2], states[k % 2], 1000 * round_index + k)
            for k in range(2 * len(participants))
        ]
        # Per mask: the full-batch members stack, the short shard runs alone.
        cap = compiled._MAX_GROUP
        assert sorted(map(len, backend._groups(tasks))) == [1, 1, cap, cap]
        results = backend.run_tasks(tasks)
        assert [r.participant_id for r in results] == [t.participant_id for t in tasks]
        for task, result in zip(tasks, results):
            _assert_bit_equal(_eager(task, specs[task.participant_id]), result.update)
        seen.append(len(tasks))
    assert tape.stats().snapshot() == {"steps": sum(seen), "replays": 0}


def test_a_traced_or_hooked_task_runs_alone(shards, supernet):
    participants = [
        Participant(k, shard, batch_size=BATCH, rng=np.random.default_rng(k))
        for k, shard in enumerate(shards[:3])
    ]
    (mask,) = _masks(1)
    state = supernet.submodel_state(mask)
    tasks = [_task(k, mask, state, k) for k in range(3)]
    assert SerialBackend(participants, TINY)._groups(tasks) == [[0, 1, 2]]
    hooked = SerialBackend(participants, TINY, fault_hook=lambda task: None)
    assert hooked._groups(tasks) == [[0], [1], [2]]
    # A copy of the state is not "the same θ": it does not join the group.
    copied = _task(2, mask, {k: v.copy() for k, v in state.items()}, 2)
    assert SerialBackend(participants, TINY)._groups(tasks[:2] + [copied]) == [[0, 1], [2]]


@pytest.mark.parametrize("count", [1, 4, 5, 9, 12, 100])
def test_chunks_are_balanced_and_capped(count):
    chunks = compiled.group_chunks(list(range(count)))
    assert [i for chunk in chunks for i in chunk] == list(range(count))
    sizes = [len(chunk) for chunk in chunks]
    assert max(sizes) <= compiled._MAX_GROUP
    assert max(sizes) - min(sizes) <= 1
    assert len(chunks) == -(-count // compiled._MAX_GROUP)


@pytest.mark.parametrize("members", [1, 3])
def test_batch_norm_node_gradcheck(members):
    rng = np.random.default_rng(members)
    bn = nn.BatchNorm2d(3, affine=False)
    x = Tensor(rng.standard_normal((2 * members, 3, 3, 3)), requires_grad=True)
    weights = rng.standard_normal(x.shape)
    with tape.members(members):
        assert_gradients_close(lambda: (bn(x) * Tensor(weights)).sum(), [x], atol=1e-6)


def test_batch_norm_members_normalise_alone():
    rng = np.random.default_rng(3)
    members = 3
    x = rng.standard_normal((2 * members, 4, 3, 3))
    stacked = nn.BatchNorm2d(4, affine=False)
    with tape.members(members) as buffer_rows:
        out = stacked(Tensor(x)).data
    assert np.array_equal(stacked.running_mean, np.zeros(4))  # untouched
    for m in range(members):
        alone = nn.BatchNorm2d(4, affine=False)
        sl = slice(2 * m, 2 * m + 2)
        assert out[sl].tobytes() == alone(Tensor(x[sl])).data.tobytes()
        assert buffer_rows[id(stacked.running_mean)][m].tobytes() == alone.running_mean.tobytes()
        assert buffer_rows[id(stacked.running_var)][m].tobytes() == alone.running_var.tobytes()


def test_a_group_the_tape_cannot_stack_runs_one_member_at_a_time(shards):
    """Affine batch norm would sum γ/β gradients over all members: the
    group runs alone per member, each still bit-equal to the oracle."""
    affine = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1, affine=True)
    net = Supernet(affine, rng=np.random.default_rng(0))
    (mask,) = _masks(1)
    state = net.submodel_state(mask)
    specs = [ParticipantSpec(k, shards[k], BATCH) for k in range(2)]
    tasks = [_task(k, mask, state, 70 + k) for k in range(2)]
    updates = run_local_group(tasks, specs, affine)
    for task, spec, got in zip(tasks, specs, updates):
        ref = _run_eager_step(task, spec.dataset, spec.batch_size, affine)
        _assert_bit_equal(ref, got)
    # The stacked attempt counts nothing; the two lone steps count one each.
    assert tape.stats().snapshot() == {"steps": 2, "replays": 0}
