"""The crash-consistent on-disk snapshot format.

One snapshot is one file::

    ckpt-00000007.ckpt
    ├── header, one JSON line:  {"schema": 1, "step": 7,
    │                            "length": <payload bytes>,
    │                            "digest": "<sha256 of payload>"}
    └── payload: pickled {"meta": ..., "state": ...}

Durability contract:

* **Versioned schema.**  The header carries ``schema``; unknown versions
  are rejected as corrupt, never half-interpreted.
* **Atomic publication.**  Writes land in a sibling temp file in the
  *same directory* and are ``os.replace``-d into place, so a reader (or
  a resuming process after SIGKILL) never observes a half-written
  snapshot under the published name.
* **Self-validating reads.**  The payload length and a per-snapshot
  SHA-256 content digest are checked on every read; any mismatch —
  truncation, bit-rot, garbage header, unknown schema — raises
  :class:`~repro.errors.CorruptCheckpointError` with the failing stage
  named, and the session layer falls back to an older snapshot.

Both operations are fault-injection sites (``checkpoint_write`` /
``checkpoint_read``, see :mod:`repro.faults.plan`): the write site can
tear or flip bytes of the *published* file — modeling media corruption
that strikes after a perfectly atomic rename — and the read site damages
the bytes as read, leaving the disk intact.  Both emit ``ckpt:*`` trace
spans and counters when tracing is enabled.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
import time
from typing import Any, Dict, List, Tuple

from ..errors import CheckpointError, CorruptCheckpointError
from ..faults.inject import fire as _fire
from ..trace import get_tracer

__all__ = [
    "SCHEMA_VERSION",
    "snapshot_path",
    "list_snapshots",
    "write_snapshot",
    "read_snapshot",
]

#: Bump when the on-disk layout changes; mismatched snapshots are
#: treated as corrupt (→ chain fallback), never migrated.
SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^ckpt-(\d{8})\.ckpt$")


def snapshot_path(directory: str, step: int) -> str:
    """The published filename for step ``step``'s snapshot."""
    return os.path.join(directory, f"ckpt-{step:08d}.ckpt")


def list_snapshots(directory: str) -> List[Tuple[int, str]]:
    """All published snapshots under ``directory``, oldest first.

    Only files matching the ``ckpt-<step>.ckpt`` naming scheme are
    considered; stray temp files from a crashed write are invisible here
    (and harmless — they were never published).
    """
    found: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return found
    for name in names:
        m = _NAME_RE.match(name)
        if m:
            found.append((int(m.group(1)), os.path.join(directory, name)))
    found.sort()
    return found


def write_snapshot(directory: str, step: int, payload: Dict[str, Any]) -> str:
    """Serialize ``payload`` and atomically publish it as step ``step``.

    Returns the published path.  Raises :class:`CheckpointError` for a
    directory that cannot be created/written; injected ``error`` faults
    surface as the plan's tagged error (the session layer downgrades
    commit failures to warnings).
    """
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise CheckpointError(
            f"cannot create checkpoint directory: {exc}", path=directory
        ) from exc
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "step": int(step),
            "length": len(body),
            "digest": hashlib.sha256(body).hexdigest(),
        },
        sort_keys=True,
    ).encode("ascii")
    blob = header + b"\n" + body
    path = snapshot_path(directory, step)

    tracer = get_tracer()
    start = tracer.now_us() if tracer is not None else 0.0
    effects = _fire(
        "checkpoint_write", path=path, step=step, size=len(blob)
    )
    if effects.get("delay_s"):
        time.sleep(effects["delay_s"])

    # Same-directory temp file + os.replace: the snapshot appears under
    # its published name all-at-once or not at all, even across SIGKILL.
    fd, tmp_path = tempfile.mkstemp(
        prefix=f".ckpt-{step:08d}-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise

    # Injected post-publish damage: a torn tail or flipped bytes in the
    # *published* file, modeling storage that lies after a clean rename.
    if effects.get("truncate_bytes") is not None:
        keep = max(0, min(int(effects["truncate_bytes"]), len(blob)))
        with open(path, "r+b") as handle:
            handle.truncate(keep)
    if effects.get("corrupt_bytes"):
        _flip_tail_bytes(path, int(effects["corrupt_bytes"]))

    if tracer is not None:
        tracer.add_span(
            "ckpt:write", "ckpt", "ckpt", start, tracer.now_us() - start,
            {"path": path, "step": step, "bytes": len(blob)},
        )
        tracer.counter("ckpt_writes")
        tracer.counter("ckpt_bytes_written", float(len(blob)))
    return path


def _flip_tail_bytes(path: str, count: int) -> None:
    """XOR the last ``count`` payload bytes of the file on disk."""
    size = os.path.getsize(path)
    count = max(1, min(count, size))
    with open(path, "r+b") as handle:
        handle.seek(size - count)
        tail = handle.read(count)
        handle.seek(size - count)
        handle.write(bytes(b ^ 0xFF for b in tail))


def read_snapshot(path: str) -> Tuple[int, Dict[str, Any]]:
    """Read and validate one snapshot; return ``(step, payload)``.

    Every validation failure raises
    :class:`~repro.errors.CorruptCheckpointError` naming the stage that
    failed (``missing``/``empty``/``header``/``schema``/``truncated``/
    ``digest``/``unpickle``); the session layer catches it and falls
    back along the chain.
    """
    tracer = get_tracer()
    start = tracer.now_us() if tracer is not None else 0.0
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CorruptCheckpointError(
            f"cannot read snapshot: {exc}", path=path, reason="missing"
        ) from exc

    effects = _fire(
        "checkpoint_read", path=path, size=len(blob)
    )
    if effects.get("delay_s"):
        time.sleep(effects["delay_s"])
    if effects.get("truncate_bytes") is not None:
        blob = blob[: max(0, min(int(effects["truncate_bytes"]), len(blob)))]
    if effects.get("corrupt_bytes"):
        count = max(1, min(int(effects["corrupt_bytes"]), len(blob) or 1))
        blob = blob[: len(blob) - count] + bytes(
            b ^ 0xFF for b in blob[len(blob) - count:]
        )

    header_bytes, sep, body = blob.partition(b"\n")
    if not sep:
        raise CorruptCheckpointError(
            "snapshot has no header line", path=path, reason="empty"
        )
    try:
        header = json.loads(header_bytes.decode("ascii"))
        schema = int(header["schema"])
        step = int(header["step"])
        length = int(header["length"])
        digest = str(header["digest"])
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise CorruptCheckpointError(
            f"snapshot header is unreadable: {exc}", path=path, reason="header"
        ) from exc
    if schema != SCHEMA_VERSION:
        raise CorruptCheckpointError(
            f"snapshot schema {schema} != supported {SCHEMA_VERSION}",
            path=path, step=step, reason="schema",
        )
    if len(body) != length:
        raise CorruptCheckpointError(
            f"snapshot payload is {len(body)}B, header promised {length}B",
            path=path, step=step, reason="truncated",
        )
    actual = hashlib.sha256(body).hexdigest()
    if actual != digest:
        raise CorruptCheckpointError(
            "snapshot digest mismatch", path=path, step=step,
            reason="digest", expected_digest=digest, actual_digest=actual,
        )
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise CorruptCheckpointError(
            f"snapshot payload does not unpickle: {exc}",
            path=path, step=step, reason="unpickle",
        ) from exc

    if tracer is not None:
        tracer.add_span(
            "ckpt:read", "ckpt", "ckpt", start, tracer.now_us() - start,
            {"path": path, "step": step, "bytes": len(blob)},
        )
        tracer.counter("ckpt_reads")
    return step, payload
