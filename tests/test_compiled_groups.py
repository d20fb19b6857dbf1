"""Grouped local steps: cohort members that share a mask and θ stack.

The contract under test:

* every :class:`ParticipantUpdate` a grouped step returns — any group
  size up to the byte budget's largest, at the cohort and the default
  geometry, the same key again and again — equals the eager
  oracle's (:func:`_run_eager_step`) bit for bit: gradients, buffers,
  reward, ``num_samples`` and ``compute_time_s``;
* a serial round that mixes two masks, and a member whose shard is
  shorter than the batch, still return every update in task order and
  bit-equal to the oracle;
* ``tape.stats()`` counts one step per member;
* two threads stepping at once get the updates they get in turn, and a
  thread inside ``no_grad`` leaves another thread's step its graph;
* chunks are balanced and their stacked input fits the byte budget;
* the one-node train-mode batch norm is gradchecked at one and three
  stacked members, and each member's slice normalises as it would alone.
"""

import sys
import threading

import numpy as np
import pytest

import repro.nn as nn
from repro import ExperimentConfig
from repro.controller import ArchitecturePolicy
from repro.data import ArrayDataset, iid_partition, synth_cifar10
from repro.federated import Participant, SerialBackend, compiled
from repro.federated.participant import (
    LocalStepTask,
    ParticipantSpec,
    _run_eager_step,
    run_local_group,
    run_local_step,
)
from repro.nn import Tensor, tape
from repro.search_space import Supernet, SupernetConfig

from .gradcheck import assert_gradients_close

TINY = SupernetConfig(num_classes=10, init_channels=4, num_cells=2, steps=1)
BATCH = 8


def _member_bytes(batch, image_size):
    """A member's stacked input: batch × 3 × H × W float64."""
    return batch * 3 * image_size * image_size * 8


#: Largest group the budget stacks at the 8x8, batch-8 geometry.
CAP = compiled.group_capacity(_member_bytes(BATCH, 8))


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
    parts = iid_partition(train, CAP + 1, rng=np.random.default_rng(0))
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


@pytest.mark.parametrize("size", range(1, CAP + 1))
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


#: (supernet config, image size, batch) of the ledger's cohort workload
#: and of ``ExperimentConfig()``.
GEOMETRIES = {
    "cohort": (TINY, 8, BATCH),
    "default": (ExperimentConfig().supernet_config(), 16, 16),
}


def test_the_budget_stacks_eight_cohort_members_and_one_default_member():
    assert CAP == compiled.group_capacity(_member_bytes(8, 8)) == 8
    assert compiled.group_capacity(_member_bytes(16, 16)) == 1


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_the_largest_group_matches_the_eager_oracle(geometry):
    """The budget's largest group at each geometry, every member bit for
    bit its lone step."""
    config, image_size, batch = GEOMETRIES[geometry]
    size = compiled.group_capacity(_member_bytes(batch, image_size))
    train, _ = synth_cifar10(seed=2, train_per_class=2 * size, test_per_class=1, image_size=image_size)
    parts = iid_partition(train, size, rng=np.random.default_rng(0))
    net = Supernet(config, rng=np.random.default_rng(1))
    mask = ArchitecturePolicy(config.num_edges, rng=np.random.default_rng(3)).sample_mask()
    state = net.submodel_state(mask)
    specs = [ParticipantSpec(k, parts[k], batch) for k in range(size)]
    tasks = [_task(k, mask, state, 50 + k) for k in range(size)]
    updates = run_local_group(tasks, specs, config)
    for task, spec, got in zip(tasks, specs, updates):
        ref = _run_eager_step(task, spec.dataset, spec.batch_size, config)
        _assert_bit_equal(ref, got)
    assert tape.stats().snapshot() == {"steps": size, "replays": 0}


def test_two_threads_step_concurrently_as_they_would_in_turn(shards, supernet):
    """Two threads run stacked groups of different masks at once, 20
    iterations each, under a 1e-5 s switch interval: each thread steps on
    its own model, so every update is bit for bit the sequential run's."""
    masks = _masks(2, seed=5)
    states = [supernet.submodel_state(mask) for mask in masks]
    specs = [ParticipantSpec(k, shards[k], BATCH) for k in range(3)]
    plans = [
        [
            [_task(k, masks[t], states[t], 1000 * t + 10 * i + k) for k in range(3)]
            for i in range(20)
        ]
        for t in range(2)
    ]
    sequential = [[run_local_group(tasks, specs, TINY) for tasks in plan] for plan in plans]
    concurrent = [None, None]

    def work(t):
        concurrent[t] = [run_local_group(tasks, specs, TINY) for tasks in plans[t]]

    threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for ref_plan, got_plan in zip(sequential, concurrent):
        assert got_plan is not None, "a stepping thread raised"
        for refs, updates in zip(ref_plan, got_plan):
            for ref, got in zip(refs, updates):
                _assert_bit_equal(ref, got)


def test_no_grad_on_another_thread_leaves_a_step_its_graph(shards, supernet):
    """``no_grad`` is per thread: while another thread evaluates under it
    in a loop (1e-5 s switch interval), 100 local steps here still build
    their graph and each gives the update it gives alone."""
    (mask,) = _masks(1)
    spec = ParticipantSpec(0, shards[0], BATCH)
    task = _task(0, mask, supernet.submodel_state(mask), 3)
    ref = run_local_step(task, spec.dataset, BATCH, TINY)
    stop = threading.Event()

    def evaluate():
        x = Tensor(np.ones(4), requires_grad=True)
        while not stop.is_set():
            with nn.no_grad():
                (x * 2.0).sum()

    evaluator = threading.Thread(target=evaluate)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    evaluator.start()
    try:
        updates = [run_local_step(task, spec.dataset, BATCH, TINY) for _ in range(100)]
    finally:
        stop.set()
        evaluator.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not evaluator.is_alive()
    for got in updates:
        _assert_bit_equal(ref, got)


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
        assert sorted(map(len, backend._groups(tasks))) == [1, 1, CAP, CAP]
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
    """Per member size — the cohort and default geometries, a member
    over the budget, a tiny one — the fewest chunks whose stacked input
    fits the budget (one member always runs), sizes within one."""
    budget = compiled._GROUP_INPUT_BYTES
    for member_bytes in (_member_bytes(8, 8), _member_bytes(16, 16), 2 * budget, 100):
        chunks = compiled.group_chunks(list(range(count)), member_bytes)
        assert [i for chunk in chunks for i in chunk] == list(range(count))
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) == 1 or max(sizes) * member_bytes <= budget
        assert max(sizes) - min(sizes) <= 1
        cap = compiled.group_capacity(member_bytes)
        assert cap == max(1, budget // member_bytes)
        assert len(chunks) == -(-count // cap)


@pytest.mark.parametrize("members", [1, 3])
def test_batch_norm_node_gradcheck(members):
    rng = np.random.default_rng(members)
    bn = nn.BatchNorm2d(3, affine=False)
    x = Tensor(
        rng.standard_normal((2 * members, 3, 3, 3)),
        requires_grad=True,
        group=nn.MemberGroup(members),
    )
    weights = rng.standard_normal(x.shape)
    assert_gradients_close(lambda: (bn(x) * Tensor(weights)).sum(), [x], atol=1e-6)


def test_batch_norm_members_normalise_alone():
    rng = np.random.default_rng(3)
    members = 3
    x = rng.standard_normal((2 * members, 4, 3, 3))
    stacked = nn.BatchNorm2d(4, affine=False)
    group = nn.MemberGroup(members)
    out = stacked(Tensor(x, group=group)).data
    buffer_rows = group.buffer_rows
    assert np.array_equal(stacked.running_mean, np.zeros(4))  # untouched
    for m in range(members):
        alone = nn.BatchNorm2d(4, affine=False)
        sl = slice(2 * m, 2 * m + 2)
        assert out[sl].tobytes() == alone(Tensor(x[sl])).data.tobytes()
        assert buffer_rows[id(stacked.running_mean)][m].tobytes() == alone.running_mean.tobytes()
        assert buffer_rows[id(stacked.running_var)][m].tobytes() == alone.running_var.tobytes()


def test_a_group_the_tape_cannot_stack_runs_one_member_at_a_time(shards):
    """Affine batch norm would sum γ/β gradients over all members: the
    group of an affine supernet runs alone per member, each still
    bit-equal to the oracle, and the batch norm refuses a stacked
    input."""
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
    x = Tensor(np.zeros((4, 3, 2, 2)), group=nn.MemberGroup(2))
    with pytest.raises(ValueError, match="affine"):
        nn.BatchNorm2d(3, affine=True)(x)
