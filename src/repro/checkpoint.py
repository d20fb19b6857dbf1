"""Checkpointing: persist and resume models and search state.

The paper's search phase runs for thousands of rounds over unreliable
participants; a production deployment must survive server restarts.
This module serialises

* plain models (state dicts) via :func:`save_model` / :func:`load_model`,
* genotypes via :func:`save_genotype` / :func:`load_genotype`,
* the full search-server state via :func:`save_search_state` /
  :func:`restore_search_state`.

Search checkpoints (format version 2) are **crash-consistent and
complete**: the write goes to a temporary file that is fsynced and then
atomically renamed over the target, so a crash mid-save can never leave
a truncated zip at the checkpoint path — the previous checkpoint (if
any) stays intact.  The capture covers everything a bit-identical
resume needs:

* supernet parameters and buffers, ``α``, SGD momentum, the REINFORCE
  baseline, round counter, virtual clock, recorder series;
* every RNG stream the round loop consumes — the server's, the
  policy's, each participant's, and the delay model's (when it has
  one) — so a restored run draws the exact random sequence an
  uninterrupted run would;
* the staleness memory pools (Θ/𝔸/𝔾 snapshots) so in-flight stale
  updates can still be delay-compensated after a restart;
* pending in-flight straggler updates, **in full** (gradients, buffers,
  reward, mask, origin and delivery rounds).  They are re-queued on
  restore and delivered at their original delivery round — nothing is
  re-dispatched and no participant work is lost;
* quarantine state (strikes, sentences, offence counts) and, when a
  fault injector is attached, its RNG state and fired-crash set;
* in population mode, the whole population subsystem — registry record
  arrays (lifecycle state, batch-seed draw counters, dormancy deadlines,
  join rounds) in a ``population.npz`` member plus the cohort-sampler
  and churn RNG states in the metadata — so a resumed run draws the
  exact cohort and churn trajectory an uninterrupted run would.

Formats: ``.npz`` for arrays, ``.json`` for metadata; no pickling, so
checkpoints are portable and safe to load.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from pathlib import Path
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.federated import FederatedSearchServer
from repro.federated.server import _PendingUpdate
from repro.federated.participant import ParticipantUpdate
from repro.nn import Module
from repro.search_space import ArchitectureMask, Genotype

__all__ = [
    "save_model",
    "load_model",
    "save_genotype",
    "load_genotype",
    "save_search_state",
    "restore_search_state",
    "read_checkpoint_meta",
]

PathLike = Union[str, Path]

_FORMAT_VERSION = 2


def save_model(model: Module, path: PathLike) -> None:
    """Write a model's state dict to ``path`` (npz)."""
    state = model.state_dict()
    np.savez(str(path), **state)


def load_model(model: Module, path: PathLike) -> None:
    """Load a state dict saved by :func:`save_model` into ``model``."""
    with np.load(str(path)) as archive:
        state = {name: archive[name] for name in archive.files}
    model.apply_state(state, strict=True)


def save_genotype(genotype: Genotype, path: PathLike) -> None:
    Path(path).write_text(genotype.to_json() + "\n")


def load_genotype(path: PathLike) -> Genotype:
    return Genotype.from_json(Path(path).read_text())


def _arrays_to_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _bytes_to_arrays(payload: bytes) -> Dict[str, np.ndarray]:
    with np.load(io.BytesIO(payload)) as archive:
        return {name: archive[name] for name in archive.files}


def _atomic_write(path: PathLike, writer: Callable[[zipfile.ZipFile], None]) -> None:
    """Write a zip via tmp file + fsync + rename — all or nothing."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            with zipfile.ZipFile(
                handle, "w", compression=zipfile.ZIP_DEFLATED
            ) as archive:
                writer(archive)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _rng_state(rng: Optional[np.random.Generator]):
    return None if rng is None else rng.bit_generator.state


def _load_rng_state(rng: np.random.Generator, state) -> None:
    rng.bit_generator.state = state


def save_search_state(
    server: FederatedSearchServer,
    path: PathLike,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    """Checkpoint a search server mid-run (atomically; see module docs).

    ``extra`` is an arbitrary JSON-serialisable dict stored alongside the
    server state and returned by :func:`restore_search_state` — the
    pipeline uses it to carry its own progress (completed round results,
    the experiment config).
    """
    theta = server.supernet.state_dict()
    velocity = {
        f"velocity.{i}": v
        for i, v in enumerate(server.theta_optimizer._velocity)
        if v is not None
    }

    pools = server.pools
    pool_arrays: Dict[str, np.ndarray] = {}
    pool_masks = []
    for round_t in pools.rounds():
        pool_arrays[f"alpha/{round_t}"] = pools.alpha(round_t)
        for name, value in pools.theta(round_t).items():
            pool_arrays[f"theta/{round_t}/{name}"] = value
        for participant, mask in sorted(pools.masks_for(round_t).items()):
            pool_masks.append(
                {
                    "round": round_t,
                    "participant": participant,
                    "normal": list(mask.normal),
                    "reduce": list(mask.reduce),
                }
            )

    pending_meta = []
    pending_arrays = []
    for item in server._pending:
        update = item.update
        pending_meta.append(
            {
                "origin_round": item.origin_round,
                "delivery_round": item.delivery_round,
                "participant_id": update.participant_id,
                "reward": float(update.reward),
                "num_samples": int(update.num_samples),
                "compute_time_s": float(update.compute_time_s),
                "mask_normal": list(item.mask.normal),
                "mask_reduce": list(item.mask.reduce),
            }
        )
        arrays = {f"grad/{name}": g for name, g in update.gradients.items()}
        arrays.update({f"buf/{name}": b for name, b in update.buffers.items()})
        pending_arrays.append(arrays)

    rng_meta = {
        "server": _rng_state(server.rng),
        "policy": _rng_state(server.policy.rng),
        "participants": [_rng_state(p.rng) for p in server.participants],
        "delay_model": _rng_state(getattr(server.delay_model, "rng", None)),
    }

    # Every auxiliary stateful component is snapshotted through the one
    # repro.core.Stateful code path (lazy import: repro.core imports the
    # pipeline, which imports this module).
    from repro.core.state import capture_states

    stateful = capture_states(
        {"quarantine": server.quarantine, "injector": server.fault_injector}
    )

    # Population subsystem: numpy record arrays go into their own zip
    # member; the (JSON-safe) sampler/churn RNG states ride in the meta.
    population = getattr(server, "population", None)
    population_meta = None
    population_arrays: Optional[Dict[str, np.ndarray]] = None
    if population is not None:
        pop_state = population.state_dict()
        registry_state = pop_state["registry"]
        population_arrays = {
            name: np.asarray(registry_state[name])
            for name in ("state", "draws", "dormant_until", "joined_round")
        }
        population_meta = {
            "registered": int(registry_state["population"]),
            "sampler": pop_state["sampler"],
            "churn": pop_state["churn"],
        }

    meta = {
        "format_version": _FORMAT_VERSION,
        "round": server.round,
        "clock_s": server.clock_s,
        "baseline_value": server.baseline.value,
        "baseline_decay": server.baseline.decay,
        "recorder": server.recorder.series,
        "rng": rng_meta,
        "pools": {"rounds": pools.rounds(), "masks": pool_masks},
        "pending": pending_meta,
        "quarantine": stateful["quarantine"],
        "injector": stateful["injector"],
        "population": population_meta,
        "extra": extra or {},
    }

    def write(archive: zipfile.ZipFile) -> None:
        archive.writestr("theta.npz", _arrays_to_bytes(theta))
        archive.writestr(
            "alpha.npz", _arrays_to_bytes({"alpha": server.policy.alpha})
        )
        archive.writestr("velocity.npz", _arrays_to_bytes(velocity))
        archive.writestr("pools.npz", _arrays_to_bytes(pool_arrays))
        for i, arrays in enumerate(pending_arrays):
            archive.writestr(f"pending_{i}.npz", _arrays_to_bytes(arrays))
        if population_arrays is not None:
            archive.writestr("population.npz", _arrays_to_bytes(population_arrays))
        archive.writestr("meta.json", json.dumps(meta))

    _atomic_write(path, write)
    if server.telemetry.enabled:
        server.telemetry.count("checkpoint.saves")
        server.telemetry.emit(
            "checkpoint.saved",
            path=str(path),
            round=server.round,
            num_pending=len(pending_meta),
        )


def read_checkpoint_meta(path: PathLike) -> Dict[str, object]:
    """Read a checkpoint's metadata (incl. the ``extra`` payload) without
    touching any server — what the pipeline uses to rebuild its config
    before constructing the server to restore into."""
    with zipfile.ZipFile(str(path)) as archive:
        meta = json.loads(archive.read("meta.json"))
    version = meta.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version} (expected "
            f"{_FORMAT_VERSION}); re-create the checkpoint with this release"
        )
    return meta


def restore_search_state(
    server: FederatedSearchServer, path: PathLike
) -> Dict[str, object]:
    """Inverse of :func:`save_search_state` onto a freshly built server.

    The server must have been constructed with the same supernet
    configuration and participant count as the saved one.  Restores the
    complete round-loop state — including every RNG stream — so the
    resumed search is bit-identical to one that never stopped.

    Pending straggler updates are restored verbatim with their original
    delivery rounds: they are **not** re-dispatched (the participant's
    work already happened) and will arrive exactly when they would have.
    If the checkpoint carries fault-injector state but the server has no
    injector attached (or vice versa), that part is skipped with a
    ``checkpoint.injector_mismatch`` telemetry warning — the run
    continues fault-free rather than failing.

    Returns the ``extra`` dict given to :func:`save_search_state`.
    """
    with zipfile.ZipFile(str(path)) as archive:
        meta = json.loads(archive.read("meta.json"))
        version = meta.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version} (expected "
                f"{_FORMAT_VERSION}); re-create the checkpoint with this "
                "release"
            )
        theta = _bytes_to_arrays(archive.read("theta.npz"))
        alpha = _bytes_to_arrays(archive.read("alpha.npz"))["alpha"]
        velocity = _bytes_to_arrays(archive.read("velocity.npz"))
        pool_arrays = _bytes_to_arrays(archive.read("pools.npz"))
        pending_arrays = [
            _bytes_to_arrays(archive.read(f"pending_{i}.npz"))
            for i in range(len(meta["pending"]))
        ]
        population_arrays = (
            _bytes_to_arrays(archive.read("population.npz"))
            if meta.get("population") is not None
            else None
        )

    # In-place application keeps the server's ParameterArena views bound.
    server.supernet.apply_state(theta, strict=True)
    server.policy.load(alpha)
    for i in range(len(server.theta_optimizer._velocity)):
        key = f"velocity.{i}"
        if key in velocity:
            server.theta_optimizer._velocity[i] = velocity[key]
        else:
            server.theta_optimizer._velocity[i] = None
    server.round = int(meta["round"])
    server.clock_s = float(meta["clock_s"])
    server.baseline.value = float(meta["baseline_value"])
    server.baseline.decay = float(meta["baseline_decay"])
    server.recorder.series = {
        name: [float(v) for v in values]
        for name, values in meta["recorder"].items()
    }

    # --- RNG streams --------------------------------------------------
    rng_meta = meta["rng"]
    _load_rng_state(server.rng, rng_meta["server"])
    _load_rng_state(server.policy.rng, rng_meta["policy"])
    saved_participants = rng_meta["participants"]
    if len(saved_participants) != len(server.participants):
        raise ValueError(
            f"checkpoint has {len(saved_participants)} participants, "
            f"server has {len(server.participants)}"
        )
    for participant, state in zip(server.participants, saved_participants):
        _load_rng_state(participant.rng, state)
    delay_rng = getattr(server.delay_model, "rng", None)
    if rng_meta["delay_model"] is not None:
        if delay_rng is None:
            raise ValueError(
                "checkpoint carries delay-model RNG state but the server's "
                "delay model has none; rebuild the server with the delay "
                "model the checkpoint was saved with"
            )
        _load_rng_state(delay_rng, rng_meta["delay_model"])
    elif delay_rng is not None:
        raise ValueError(
            "server's delay model has an RNG but the checkpoint carries no "
            "state for it; rebuild the server with the delay model the "
            "checkpoint was saved with"
        )

    # --- staleness memory pools ---------------------------------------
    pools_meta = meta["pools"]
    server.pools._theta.clear()
    server.pools._alpha.clear()
    server.pools._masks.clear()
    for round_t in pools_meta["rounds"]:
        round_theta = {}
        prefix = f"theta/{round_t}/"
        for key, value in pool_arrays.items():
            if key.startswith(prefix):
                round_theta[key[len(prefix):]] = value
        server.pools.save_round(round_t, round_theta, pool_arrays[f"alpha/{round_t}"])
    for entry in pools_meta["masks"]:
        server.pools.save_mask(
            entry["round"],
            entry["participant"],
            ArchitectureMask(tuple(entry["normal"]), tuple(entry["reduce"])),
        )

    # --- in-flight stragglers ----------------------------------------
    server._pending.clear()
    for entry, arrays in zip(meta["pending"], pending_arrays):
        gradients = {
            key[len("grad/"):]: value
            for key, value in arrays.items()
            if key.startswith("grad/")
        }
        buffers = {
            key[len("buf/"):]: value
            for key, value in arrays.items()
            if key.startswith("buf/")
        }
        server._pending.append(
            _PendingUpdate(
                origin_round=int(entry["origin_round"]),
                delivery_round=int(entry["delivery_round"]),
                mask=ArchitectureMask(
                    tuple(entry["mask_normal"]), tuple(entry["mask_reduce"])
                ),
                update=ParticipantUpdate(
                    participant_id=int(entry["participant_id"]),
                    gradients=gradients,
                    reward=float(entry["reward"]),
                    num_samples=int(entry["num_samples"]),
                    compute_time_s=float(entry["compute_time_s"]),
                    buffers=buffers,
                ),
            )
        )

    # --- quarantine + injector (one Stateful code path) ---------------
    from repro.core.state import restore_states

    injector_state = meta.get("injector")
    mismatched = restore_states(
        {"quarantine": server.quarantine, "injector": server.fault_injector},
        {"quarantine": meta.get("quarantine", {}), "injector": injector_state},
    )
    if "injector" in mismatched:
        server.telemetry.emit(
            "checkpoint.injector_mismatch",
            checkpoint_has_injector=injector_state is not None,
            server_has_injector=server.fault_injector is not None,
        )

    # --- population subsystem -----------------------------------------
    # Unlike the injector, a population mismatch is a hard error: the
    # cohort/churn RNG streams drive which participants compute at all,
    # so restoring across the divide cannot be bit-identical (or even
    # well-defined — the participant sets differ).
    population_meta = meta.get("population")
    population = getattr(server, "population", None)
    if (population_meta is None) != (population is None):
        raise ValueError(
            "checkpoint and server disagree on population mode "
            f"(checkpoint has population state: {population_meta is not None}, "
            f"server has a population: {population is not None}); rebuild the "
            "server with the population settings the checkpoint was saved with"
        )
    if population is not None:
        registry_state = dict(population_arrays)
        registry_state["population"] = int(population_meta["registered"])
        population.load_state_dict(
            {
                "registry": registry_state,
                "sampler": population_meta["sampler"],
                "churn": population_meta["churn"],
            }
        )

    # --- delta-dispatch invalidation ----------------------------------
    # A restored server is a *new* timeline: any parameter version a
    # worker cached against the pre-crash server must never satisfy a
    # delta reference.  Bumping every version forces the first dispatch
    # after resume to ship full state (correctness never depends on
    # cache warmth).
    versions = getattr(server, "versions", None)
    if versions is not None:
        versions.bump_all()

    if server.telemetry.enabled:
        server.telemetry.count("checkpoint.restores")
        server.telemetry.emit(
            "checkpoint.restored",
            path=str(path),
            round=server.round,
            num_pending=len(server._pending),
        )
    return meta.get("extra", {})
