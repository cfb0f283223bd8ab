"""Versioned, integrity-checked engine checkpoints.

File format (version 3): one ASCII JSON header line, a newline, then the
pickled payload bytes::

    {"magic": "repro-checkpoint", "version": 3,
     "sha256": "<hex digest of the payload bytes>", "payload_bytes": N}
    <N bytes of pickle>

Version 2 changed the engine payload: synopses shared by several queries
are stored once, in a top-level ``"observers"`` list, each query refers
to its observers by position in that list, and ``"quarantined"`` lists
the positions of observers fault isolation detached.  Version 3 stores a
Bernoulli sample as two arrays over its query's unified index grid —
sorted flat cell ids and their counts, each in the narrowest integer
dtype that holds it — instead of two Python dicts.  Version 1 files (one
state per query attachment) and version 2 files are refused.

The header is what makes a checkpoint *checkable before it is trusted*:
:func:`read_checkpoint` refuses files whose magic/version do not match,
whose payload is truncated, or whose bytes do not hash to the recorded
digest (:class:`~repro.resilience.errors.CheckpointIntegrityError`).
Writes go through a temp-file-then-``os.replace`` dance in the target
directory with an fsync, so a crash mid-write leaves the previous
checkpoint intact rather than a half-written file; transient ``OSError``
is retried with capped exponential backoff
(:func:`~repro.resilience.retry.retry_io`).

:class:`CheckpointStore` adds last-K rotation on top: sequentially
numbered checkpoint files in one directory, oldest pruned, newest
discoverable with :meth:`CheckpointStore.latest` — the shape a
supervisor loop needs for "checkpoint every N batches, restore the
newest good one after a crash".

Payload assembly/application lives on the engine
(:meth:`repro.streams.engine.ContinuousQueryEngine.save_checkpoint` /
``load_checkpoint``); this module owns only the file format, so it can
be tested against synthetic payloads and reused by future sharded
workers.  Payloads are pickled — checkpoints are trusted operator state,
not an interchange format; never load a checkpoint from an untrusted
source.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np
from numpy.typing import NDArray

from ..core.normalization import Domain
from .errors import CheckpointError, CheckpointIntegrityError
from .retry import RetryPolicy, retry_io

__all__ = [
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "CheckpointStore",
    "domain_from_spec",
    "domain_to_spec",
    "read_checkpoint",
    "write_checkpoint",
]

FORMAT_MAGIC = "repro-checkpoint"
FORMAT_VERSION = 3

#: Rotated checkpoint files: ``checkpoint-00000042.ckpt``.
_STORE_PATTERN = re.compile(r"^checkpoint-(\d{8})\.ckpt$")


def domain_to_spec(domain: Domain) -> dict[str, Any]:
    """Serialize a :class:`Domain` to plain JSON-compatible types."""
    if domain.is_categorical:
        return {"categories": list(domain._categories or ())}
    return {"low": domain.low, "size": domain.size}


def domain_from_spec(spec: dict[str, Any]) -> Domain:
    """Inverse of :func:`domain_to_spec`."""
    if "categories" in spec:
        return Domain.categorical(spec["categories"])
    return Domain.integer_range(spec["low"], spec["low"] + spec["size"] - 1)


def _header_bytes(payload: bytes) -> bytes:
    header = {
        "magic": FORMAT_MAGIC,
        "version": FORMAT_VERSION,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
    }
    return (json.dumps(header, sort_keys=True) + "\n").encode("ascii")


def write_checkpoint(
    path: str | Path,
    payload: dict[str, Any],
    retry: RetryPolicy | None = None,
    sleep: Callable[[float], None] | None = None,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> int:
    """Atomically write a checkpoint file; returns its size in bytes.

    The payload is pickled, prefixed with the integrity header, written
    to a temporary sibling file (fsynced), and moved into place with
    ``os.replace`` — readers only ever see the old or the new complete
    file.  Transient ``OSError`` anywhere in that sequence is retried
    under ``retry`` (capped exponential backoff); the temp file is
    cleaned up on final failure.
    """
    path = Path(path)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _header_bytes(blob)

    def attempt() -> int:
        tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as handle:
                # two writes, so the payload is never copied behind its header
                handle.write(header)
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return len(header) + len(blob)

    if sleep is None:
        return retry_io(attempt, policy=retry, on_retry=on_retry)
    return retry_io(attempt, policy=retry, on_retry=on_retry, sleep=sleep)


def read_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read and verify a checkpoint file, returning its payload dict.

    Raises :class:`CheckpointError` if the file is missing or unreadable
    and :class:`CheckpointIntegrityError` if the header is malformed,
    the version is unsupported, the payload is truncated, or the SHA-256
    digest does not match.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            header_line = handle.readline()
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("ascii"))
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointIntegrityError(
            f"{path} is not a checkpoint file (bad header: {exc})"
        ) from exc
    if header.get("magic") != FORMAT_MAGIC:
        raise CheckpointIntegrityError(f"{path} is not a checkpoint file (bad magic)")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointIntegrityError(
            f"{path} has unsupported checkpoint format version "
            f"{header.get('version')!r} (this build reads {FORMAT_VERSION})"
        )
    if header.get("payload_bytes") != len(blob):
        raise CheckpointIntegrityError(
            f"{path} is truncated: header promises {header.get('payload_bytes')} "
            f"payload bytes, file holds {len(blob)}"
        )
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointIntegrityError(
            f"{path} failed its SHA-256 integrity check (stored "
            f"{header.get('sha256')}, computed {digest})"
        )
    try:
        payload = pickle.loads(blob)
    except Exception as exc:  # corrupt-but-hash-matching payloads are hostile input
        raise CheckpointIntegrityError(f"{path} payload does not unpickle: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointIntegrityError(f"{path} payload is not a checkpoint dict")
    return payload


class CheckpointStore:
    """A directory of rotated checkpoints with last-K retention.

    ``save(engine)`` writes the next sequentially numbered checkpoint
    (``checkpoint-00000001.ckpt``, ...) and prunes all but the newest
    ``keep`` files; ``latest()`` returns the newest path for recovery.
    Sequence numbers continue from whatever already exists in the
    directory, so a restarted process keeps extending the same series.
    """

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.directory.mkdir(parents=True, exist_ok=True)

    def paths(self) -> list[Path]:
        """Existing checkpoint files, oldest first."""
        found: list[tuple[int, Path]] = []
        for entry in self.directory.iterdir():
            match = _STORE_PATTERN.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        return [path for _, path in sorted(found)]

    def latest(self) -> Path | None:
        """The newest checkpoint path, or ``None`` if the store is empty."""
        paths = self.paths()
        return paths[-1] if paths else None

    def next_path(self) -> Path:
        """The path the next :meth:`save` will write."""
        paths = self.paths()
        if not paths:
            sequence = 1
        else:
            match = _STORE_PATTERN.match(paths[-1].name)
            assert match is not None  # paths() only yields matching names
            sequence = int(match.group(1)) + 1
        return self.directory / f"checkpoint-{sequence:08d}.ckpt"

    def save(self, engine: Any, **write_options: Any) -> Path:
        """Checkpoint an engine into the store and rotate old files."""
        path = self.next_path()
        engine.save_checkpoint(path, **write_options)
        self.prune()
        return path

    def prune(self) -> list[Path]:
        """Delete all but the newest ``keep`` checkpoints; returns removals."""
        paths = self.paths()
        stale = paths[: -self.keep] if len(paths) > self.keep else []
        for path in stale:
            path.unlink(missing_ok=True)
        return stale

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointStore({self.directory}, keep={self.keep}, n={len(self.paths())})"


def payload_nbytes(payload: dict[str, Any]) -> int:
    """Approximate in-memory size of a checkpoint payload's array state.

    Used by the checkpoint-overhead benchmark to report cost per MB of
    synopsis state.
    """

    def sizeof(obj: Any) -> int:
        if isinstance(obj, np.ndarray):
            return int(obj.nbytes)
        if isinstance(obj, dict):
            return sum(sizeof(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return sum(sizeof(v) for v in obj)
        if isinstance(obj, (bytes, str)):
            return len(obj)
        return 8

    return sizeof(payload)


def iter_payload_arrays(payload: dict[str, Any]) -> Iterator[NDArray[Any]]:
    """Yield every numpy array nested anywhere in a payload (diagnostics)."""
    stack: list[Any] = [payload]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
