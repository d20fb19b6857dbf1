"""Checkpointing: persist and resume models and search state.

The paper's search phase runs for thousands of rounds over unreliable
participants; a production deployment must survive server restarts.
This module serialises

* plain models (state dicts) via :func:`save_model` / :func:`load_model`,
* genotypes via :func:`save_genotype` / :func:`load_genotype`,
* the full search-server state via :func:`save_search_state` /
  :func:`restore_search_state`.

Search checkpoints (format version 3) are **crash-consistent and
complete**: the write goes to a temporary file that is fsynced and then
atomically renamed over the target, so a crash mid-save can never leave
a truncated zip at the checkpoint path — the previous checkpoint (if
any) stays intact.  What is captured is ``_TABLE``, one row per owner of
round-loop state, each moved through the owner's ``state_dict()`` /
``load_state_dict()`` (:class:`repro.core.Stateful`).  Together the rows
are everything a bit-identical resume needs:

* supernet parameters and buffers, ``α``, SGD momentum, the REINFORCE
  baseline, recorder series, and the staleness memory pools (Θ/𝔸/𝔾) so
  in-flight stale updates can still be delay-compensated after a restart;
* the server's own state: round counter, virtual clock, every RNG stream
  the round loop consumes (server, policy, each participant, the delay
  model's when it has one) and the pending straggler updates **in
  full** — re-queued on restore for their original delivery round, so
  nothing is re-dispatched and no participant work is lost;
* quarantine state, the fault injector's RNG state and fired-crash set
  when one is attached, and in population mode the registry record
  arrays and the cohort-sampler and churn RNG states.

A search checkpoint is a stored zip (its CRC32 still catches bit flips)
of ``meta.json`` plus one ``*.bin`` member per array row in the wire's
packed layout (:func:`repro.nn.serialize.encode_entries`, dtype kept);
only the population row is deflated.  Earlier formats are refused.
Loading one runs no code (JSON and numeric arrays only); model files
are plain npz.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Set, Union

import numpy as np

from repro.federated import FederatedSearchServer
from repro.nn import Module
from repro.nn.serialize import decode_entries, encode_entries
from repro.search_space import Genotype

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

_FORMAT_VERSION = 3
#: suffix of a zip member that holds one row's arrays
_ARRAYS = ".bin"


def save_model(model: Module, path: PathLike) -> None:
    """Write a model's state dict to ``path`` (npz)."""
    state = model.state_dict()
    np.savez(str(path), **state)


def load_model(model: Module, path: PathLike) -> None:
    """Load a state dict saved by :func:`save_model` into ``model``."""
    with np.load(str(path)) as archive:
        model.apply_state({name: archive[name] for name in archive.files}, strict=True)


def save_genotype(genotype: Genotype, path: PathLike) -> None:
    Path(path).write_text(genotype.to_json() + "\n")


def load_genotype(path: PathLike) -> Genotype:
    return Genotype.from_json(Path(path).read_text())


class _Row(NamedTuple):
    """One owner of checkpointed state.  ``pack`` maps its ``state_dict()``
    to file entries (a ``*.bin`` key is a zip member of arrays, any other
    a ``meta.json`` entry); ``unpack`` maps the file's entries back.
    ``deflate`` marks a row whose members zlib (level 1) shrinks a lot."""

    name: str
    owner: Callable[[FederatedSearchServer], object]
    pack: Callable[[Optional[Mapping]], Dict[str, object]]
    unpack: Callable[[Mapping], Optional[Mapping]]
    deflate: bool = False


def _as_is(key: str, owner: Callable[[FederatedSearchServer], object]) -> _Row:
    """An owner whose whole state is the one file entry ``key``."""
    return _Row(key, owner, lambda state: {key: state}, lambda saved: saved[key])


_SERVER_META = ("round", "clock_s", "rng", "pending")


def _pack_server(state: Mapping) -> Dict[str, object]:
    packed = {key: state[key] for key in _SERVER_META}
    for i, arrays in enumerate(state["pending_arrays"]):
        packed[f"pending_{i}.bin"] = arrays
    return packed


def _unpack_server(saved: Mapping) -> Dict[str, object]:
    state = {key: saved[key] for key in _SERVER_META}
    state["pending_arrays"] = [
        saved[f"pending_{i}.bin"] for i in range(len(saved["pending"]))
    ]
    return state


def _pack_population(state: Optional[Mapping]) -> Dict[str, object]:
    if state is None:
        return {"population": None}
    registry = dict(state["registry"])
    meta = {"registered": int(registry.pop("population"))}
    meta.update(sampler=state["sampler"], churn=state["churn"])
    return {"population.bin": registry, "population": meta}


def _unpack_population(saved: Mapping) -> Optional[Dict[str, object]]:
    meta = saved.get("population")  # absent before population mode existed
    if meta is None:
        return None
    registry = {**saved["population.bin"], "population": int(meta["registered"])}
    return {"registry": registry, "sampler": meta["sampler"], "churn": meta["churn"]}


#: Save and restore both walk this table and nothing else; row order is
#: the order of the zip members and of the restore.
_TABLE = (
    _as_is("theta.bin", lambda server: server.arena),
    _as_is("alpha.bin", lambda server: server.policy),
    _as_is("velocity.bin", lambda server: server.theta_optimizer),
    _Row(
        "baseline",
        lambda server: server.baseline,
        lambda state: {f"baseline_{key}": value for key, value in state.items()},
        lambda saved: {key: saved[f"baseline_{key}"] for key in ("value", "decay")},
    ),
    _as_is("recorder", lambda server: server.recorder),
    _Row(
        "pools",
        lambda server: server.pools,
        lambda state: {
            "pools.bin": state["arrays"],
            "pools": {"rounds": state["rounds"], "masks": state["masks"]},
        },
        lambda saved: {**saved["pools"], "arrays": saved["pools.bin"]},
    ),
    _Row("server", lambda server: server, _pack_server, _unpack_server),
    _as_is("quarantine", lambda server: server.quarantine),
    _as_is("injector", lambda server: server.fault_injector),
    _Row(
        "population",
        lambda server: server.population,
        _pack_population,
        _unpack_population,
        deflate=True,
    ),
)


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
    # Lazy import: repro.core imports the pipeline, which imports this module.
    from repro.core.state import capture_states

    states = capture_states({row.name: row.owner(server) for row in _TABLE})
    contents: Dict[str, object] = {"format_version": _FORMAT_VERSION}
    deflated = set()
    for row in _TABLE:
        packed = row.pack(states[row.name])
        contents.update(packed)
        deflated.update(packed if row.deflate else ())
    contents["extra"] = extra or {}
    _write(path, contents, deflated)
    if server.telemetry.enabled:
        server.telemetry.count("checkpoint.saves")
        server.telemetry.emit(
            "checkpoint.saved",
            path=str(path),
            round=server.round,
            num_pending=len(contents["pending"]),
        )


def _write(path: PathLike, contents: Mapping[str, object], deflated: Set[str]) -> None:
    """Write ``contents`` as a zip via tmp file + fsync + rename — all or
    nothing.  Each ``*.bin`` entry is streamed into its own member
    (deflated if its key is in ``deflated``), the rest is ``meta.json``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    meta = {key: value for key, value in contents.items() if not key.endswith(_ARRAYS)}
    try:
        with open(tmp, "wb") as handle:
            with zipfile.ZipFile(handle, "w") as archive:
                for key in [key for key in contents if key not in meta]:
                    info = zipfile.ZipInfo(key)
                    if key in deflated:
                        info.compress_type = zipfile.ZIP_DEFLATED
                        info._compresslevel = 1
                    # Buffered: one zip write per 64 KiB, not two per entry.
                    with io.BufferedWriter(archive.open(info, "w"), 1 << 16) as member:
                        for chunk in encode_entries(contents[key]):
                            member.write(chunk)
                archive.writestr("meta.json", json.dumps(meta))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _read(path: PathLike, members: bool) -> Dict[str, object]:
    """The one checkpoint reader: the ``meta.json`` entries, plus every
    decoded ``*.bin`` member when ``members`` is set.  A file that opens but
    is not a readable format-3 zip is a ``ValueError`` naming ``path``."""
    with open(path, "rb") as handle:
        try:
            with zipfile.ZipFile(handle) as archive:
                contents = json.loads(archive.read("meta.json"))
                version = contents.get("format_version")
                for name in archive.namelist() if members else ():
                    if name.endswith(_ARRAYS) and version == _FORMAT_VERSION:
                        contents[name] = decode_entries(archive.read(name))
        # Damage shows as a bad zip or CRC, an unknown compression method
        # (NotImplementedError), an "encrypted" member (RuntimeError), a
        # seek or read past the file (OSError, EOFError), a missing member
        # or a meta.json that is not an object (AttributeError).
        except (zipfile.BadZipFile, zlib.error, NotImplementedError, RuntimeError,
                EOFError, OSError, KeyError, ValueError, AttributeError) as error:
            raise ValueError(f"{path} is not a readable checkpoint: {error}") from error
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version} (expected "
            f"{_FORMAT_VERSION}); re-create the checkpoint with this release"
        )
    return contents


def read_checkpoint_meta(path: PathLike) -> Dict[str, object]:
    """Read a checkpoint's metadata (incl. the ``extra`` payload) without
    touching any server — what the pipeline uses to rebuild its config
    before constructing the server to restore into."""
    return _read(path, members=False)


def restore_search_state(
    server: FederatedSearchServer, path: PathLike
) -> Dict[str, object]:
    """Inverse of :func:`save_search_state` onto a freshly built server.

    The server must have been built with the same supernet configuration,
    participants, delay model and population settings as the saved one (a
    mismatch is a ``ValueError``); the resumed search is then bit-identical
    to one that never stopped.  If only one of checkpoint and server has a
    fault injector, that part is skipped with a
    ``checkpoint.injector_mismatch`` telemetry warning — the run continues
    fault-free rather than failing.

    Returns the ``extra`` dict given to :func:`save_search_state`.
    """
    from repro.core.state import restore_states

    contents = _read(path, members=True)
    owners = {row.name: row.owner(server) for row in _TABLE}
    try:
        states = {row.name: row.unpack(contents) for row in _TABLE}
    except KeyError as missing:
        raise ValueError(f"checkpoint {path} has no {missing} in it") from missing
    for name in restore_states(owners, states):
        if name != "injector":
            # Cohort and churn streams decide which participants compute
            # at all: a restore across the divide is not even well-defined.
            raise ValueError(
                f"checkpoint and server disagree on {name} mode (checkpoint "
                f"has {name} state: {states[name] is not None}, server has a "
                f"{name}: {owners[name] is not None}); rebuild the server with "
                f"the {name} settings the checkpoint was saved with"
            )
        server.telemetry.emit(
            "checkpoint.injector_mismatch",
            checkpoint_has_injector=states[name] is not None,
            server_has_injector=owners[name] is not None,
        )
    if server.telemetry.enabled:
        server.telemetry.count("checkpoint.restores")
        server.telemetry.emit(
            "checkpoint.restored",
            path=str(path),
            round=server.round,
            num_pending=len(contents["pending"]),
        )
    return contents.get("extra", {})
