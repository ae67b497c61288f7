"""Durable per-process checkpoints — the state behind ``durable`` recovery.

A checkpoint is a JSON-safe dict snapshotting one process's protocol
state (see :meth:`~repro.core.algorithm_cc.CCProcess.checkpoint`).
Channel state is never checkpointed: the channels are infrastructure
that survives every revival.  Stores keep only the *latest* snapshot per
key: recovery semantics are "resume from the most recent durable state",
not an event log.

Two backends:

* :class:`CheckpointStore` — in-memory, the default.  Snapshots are
  isolated via a JSON round-trip, so a restored process can never alias
  live state of its pre-crash incarnation (a restore must genuinely
  deserialize, or the durable path would be untested object reuse).
* :class:`DiskCheckpointStore` — opt-in on-disk backend.  Entries are
  written to a temp file in the same directory and published atomically
  with ``os.replace``, so a reader never sees a half-written entry under
  its final name; every entry embeds a SHA-256 checksum of its canonical
  payload bytes, verified on load.  A missing, truncated, torn, or
  checksum-mismatched entry is *detected amnesia*: ``load`` returns
  ``None`` (counting ``checkpoint_corruptions`` when the file existed but
  was damaged) and the recovery machinery degrades the restart to the
  amnesia mode instead of resurrecting corrupt state.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

from ..geometry.cache import PERF

#: Format tag embedded in every on-disk entry; bump on layout changes so
#: stale checkpoints read as corruption (-> amnesia), never as state.
SCHEMA_VERSION = 1


def _canonical_bytes(data: Any) -> bytes:
    """Canonical JSON encoding — the bytes the checksum covers."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def checkpoint_digest(data: Any) -> str:
    """SHA-256 hex digest of a checkpoint payload's canonical bytes."""
    return hashlib.sha256(_canonical_bytes(data)).hexdigest()


class CheckpointStore:
    """In-memory latest-snapshot-per-key store.

    The recovery layer keys snapshots by pid.  ``save`` round-trips the
    payload through JSON: this both enforces JSON-safety at save time
    (where the bug would be) and guarantees a later ``load`` hands back
    data fully decoupled from the saver's live objects.
    """

    def __init__(self) -> None:
        self._latest: dict[Any, str] = {}

    def save(self, key: Any, data: dict[str, Any]) -> None:
        self._latest[key] = json.dumps(data, sort_keys=True)
        PERF.checkpoint_saves += 1

    def load(self, key: Any) -> dict[str, Any] | None:
        raw = self._latest.get(key)
        if raw is None:
            return None
        PERF.checkpoint_restores += 1
        return json.loads(raw)

    def keys(self) -> list[Any]:
        return list(self._latest)

    def clear(self) -> None:
        self._latest.clear()


class DiskCheckpointStore(CheckpointStore):
    """On-disk backend: one atomic, checksummed JSON file per key.

    The in-memory index is bypassed entirely — every ``load`` re-reads
    the file, so a snapshot survives (only) what actually reached disk,
    which is the point of the backend.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: Any) -> Path:
        return self.root / f"ckpt-{key}.json"

    def save(self, key: Any, data: dict[str, Any]) -> None:
        entry = {
            "format": SCHEMA_VERSION,
            "key": str(key),
            "data": data,
            "sha256": checkpoint_digest(data),
        }
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        PERF.checkpoint_saves += 1

    def load(self, key: Any) -> dict[str, Any] | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry.get("format") != SCHEMA_VERSION:
                raise ValueError(f"unknown checkpoint format {entry.get('format')!r}")
            data = entry["data"]
            if checkpoint_digest(data) != entry["sha256"]:
                raise ValueError("checksum mismatch")
        except Exception:  # noqa: BLE001 — any damage means amnesia
            PERF.checkpoint_corruptions += 1
            return None
        PERF.checkpoint_restores += 1
        return data

    def keys(self) -> list[Any]:
        return sorted(
            p.stem.removeprefix("ckpt-") for p in self.root.glob("ckpt-*.json")
        )

    def clear(self) -> None:
        for p in self.root.glob("ckpt-*.json"):
            try:
                p.unlink()
            except OSError:
                pass
