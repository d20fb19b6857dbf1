"""Golden digests: the reference the deleted slow paths left behind.

``golden_digests.json`` was recorded at the last commit that still had
the dict layout / full-send / npz wire as its default path.  Every entry
is one seeded warm-up + search run on a small profile, hashed over
final α ‖ θ (parameters and buffers, by name) ‖ genotype ‖ the per-round
``(mean_reward, num_fresh, num_stale_used, num_dropped, num_rejected)``
tuples, and must come out the same on the serial, process and socket
backends.  ``population-soft`` is the one entry recorded *after* the
server's fold order was unified (stale arrivals before fresh ones in
population mode too) — it has no parent-commit counterpart.
``population-converged`` was recorded before cohort members that share a
mask began to run as one stacked step: α is loaded converged before
round 0 (as the ledger's ``cohort-converged`` workload does), so every
cohort draws one mask and the serial backend forms groups.

The file carries the numpy version and machine it was recorded on; on a
different fingerprint float results may legitimately differ in the last
bit, so the test skips instead of failing.

``golden_checkpoint.ckpt`` is a checkpoint that same parent commit
wrote three rounds into a soft-sync search (pending stragglers on board,
both retired config keys in its embedded config); resuming it must land
on the digest the parent's uninterrupted run produced.

Re-record (only ever on purpose):
``PYTHONPATH=src python -m tests.test_golden_digests [mode ... | checkpoint]``
"""

import hashlib
import io
import json
import pathlib
import platform
import struct
import sys
import zipfile

import numpy as np
import pytest

from repro import ExperimentConfig, FederatedModelSearch
from repro.federated import compiled
from repro.nn import functional as F

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_digests.json")
CHECKPOINT_PATH = pathlib.Path(__file__).with_name("golden_checkpoint.ckpt")
CHECKPOINT_KEY = "resumed-checkpoint/classic-soft/seed3"
SEEDS = (0, 1)
BACKENDS = ("serial", "process", "socket")

_SOFT = dict(
    staleness_mix=(0.3, 0.4, 0.2, 0.1),
    staleness_policy="compensate",
    mobility_modes=("foot", "bus", "car", "train"),
)
MODES = {
    "classic-hard": dict(num_participants=4),
    "classic-soft": dict(num_participants=4, **_SOFT),
    "population-hard": dict(population=200, cohort_size=6),
    "population-soft": dict(population=200, cohort_size=6, **_SOFT),
    "population-converged": dict(population=200, cohort_size=12),
}
#: Modes whose policy starts converged (see :func:`converge`).
CONVERGED_MODES = ("population-converged",)
#: Operation per edge of a converged policy (indices into
#: ``repro.search_space.PRIMITIVES``), cycled over the edges of both
#: cell types — the ledger's ``cohort-converged`` choice.
CONVERGED_OPS = (1, 3, 4, 6)


def fingerprint():
    return {"numpy": np.__version__, "machine": platform.machine()}


def build_config(mode: str, seed: int, backend: str) -> ExperimentConfig:
    return ExperimentConfig.small(
        seed=seed,
        warmup_rounds=2,
        search_rounds=6,
        backend=backend,
        num_workers=2,
        **MODES[mode],
    )


def converge(pipeline: FederatedModelSearch) -> None:
    """Load an α that puts +25 on one operation per edge."""
    alpha = np.zeros_like(pipeline.policy.alpha)
    edges = alpha.shape[1]
    for slot in range(alpha.shape[0] * edges):
        alpha[slot // edges, slot % edges, CONVERGED_OPS[slot % len(CONVERGED_OPS)]] = 25.0
    pipeline.policy.load(alpha)


def finish_and_digest(pipeline: FederatedModelSearch) -> str:
    """Run the remaining warm-up + search rounds, hash the outcome."""
    try:
        results = pipeline.warm_up() + pipeline.search()
        sha = hashlib.sha256()
        sha.update(np.ascontiguousarray(pipeline.policy.alpha).tobytes())
        state = pipeline.supernet.state_dict()
        for name in sorted(state):
            sha.update(name.encode())
            sha.update(np.ascontiguousarray(state[name]).tobytes())
        sha.update(pipeline.derive().to_json().encode())
        for r in results:
            sha.update(
                struct.pack(
                    ">dqqqq",
                    r.mean_reward,
                    r.num_fresh,
                    r.num_stale_used,
                    r.num_dropped,
                    r.num_rejected,
                )
            )
        return sha.hexdigest()
    finally:
        pipeline.close()


def run_digest(mode: str, seed: int, backend: str) -> str:
    pipeline = FederatedModelSearch(build_config(mode, seed, backend))
    if mode in CONVERGED_MODES:
        converge(pipeline)
    return finish_and_digest(pipeline)


def load_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    if golden["fingerprint"] != fingerprint():
        pytest.skip(
            f"goldens recorded on {golden['fingerprint']}, "
            f"this host is {fingerprint()}"
        )
    return golden["digests"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", sorted(MODES))
def test_golden_digest_on_every_backend(mode, seed):
    expected = load_golden()[f"{mode}/seed{seed}"]
    for backend in BACKENDS:
        assert run_digest(mode, seed, backend) == expected, (mode, seed, backend)


def test_workers_forked_after_serial_rounds_match_serial():
    """Auto-spawned socket workers fork from this process after its
    serial rounds filled the compiled cache and the conv workspaces;
    what they inherit must not move a bit (MSG_INIT resets it)."""
    serial = run_digest("population-converged", 0, "serial")
    assert compiled._MODELS and vars(F._WORKSPACE)
    assert run_digest("population-converged", 0, "socket") == serial


def test_parent_checkpoint_resumes_bit_identically():
    expected = load_golden()[CHECKPOINT_KEY]
    resumed = FederatedModelSearch.resume(str(CHECKPOINT_PATH))
    assert resumed.server.round == 5
    assert finish_and_digest(resumed) == expected


def pipeline_at_checkpoint() -> FederatedModelSearch:
    pipeline = FederatedModelSearch(build_config("classic-soft", 3, "serial"))
    pipeline.warm_up()
    for _ in range(3):
        pipeline._round_hook("search")(pipeline.server.run_round())
    assert pipeline.server._pending, "checkpoint should carry in-flight stragglers"
    return pipeline


def checkpoint_layout(path) -> dict:
    """Zip member → sorted array keys (``meta.json``: sorted top-level keys)."""
    layout = {}
    with zipfile.ZipFile(path) as archive:
        for name in archive.namelist():
            if name == "meta.json":
                layout[name] = sorted(json.loads(archive.read(name)))
            else:
                with np.load(io.BytesIO(archive.read(name))) as arrays:
                    layout[name] = sorted(arrays.files)
    return layout


def test_checkpoint_layout_is_still_format_2(tmp_path):
    """Same member names, array keys and meta keys as the parent wrote."""
    load_golden()  # skips on a foreign fingerprint
    pipeline = pipeline_at_checkpoint()
    try:
        pipeline.save_checkpoint(str(tmp_path / "now.ckpt"))
    finally:
        pipeline.close()
    assert checkpoint_layout(tmp_path / "now.ckpt") == checkpoint_layout(CHECKPOINT_PATH)


def record_checkpoint() -> str:
    pipeline = pipeline_at_checkpoint()
    pipeline.save_checkpoint(str(CHECKPOINT_PATH))
    return finish_and_digest(pipeline)


def record(modes) -> None:
    golden = (
        json.loads(GOLDEN_PATH.read_text())
        if GOLDEN_PATH.exists()
        else {"fingerprint": fingerprint(), "digests": {}}
    )
    if golden["fingerprint"] != fingerprint():
        raise SystemExit("fingerprint differs from the recorded file; refusing to mix")
    if "checkpoint" in modes:
        modes = [m for m in modes if m != "checkpoint"]
        golden["digests"][CHECKPOINT_KEY] = record_checkpoint()
        print(f"{CHECKPOINT_KEY}: {golden['digests'][CHECKPOINT_KEY]}")
    for mode in modes:
        for seed in SEEDS:
            digests = {b: run_digest(mode, seed, b) for b in BACKENDS}
            if len(set(digests.values())) != 1:
                raise SystemExit(f"{mode}/seed{seed}: backends disagree: {digests}")
            golden["digests"][f"{mode}/seed{seed}"] = digests["serial"]
            print(f"{mode}/seed{seed}: {digests['serial']}")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(sys.argv[1:] or sorted(MODES))
