"""Shared cross-worker geometry cache: on-disk, append-only, SHA-256-keyed.

The PR-1 memoization layer (:mod:`repro.geometry.cache`) collapses
redundant geometry *within* one process: every engine worker ends a sweep
with hit rates near 1.0, yet each worker pays its own cold misses for
computations a sibling finished seconds earlier.  This module adds the
missing layer: a content-addressed cache on shared disk that any number of
workers (or successive runs) read and write concurrently.

Design
------
* **Content-addressed.**  A cache key is the SHA-256 of a canonical byte
  encoding of the operation name, its parameters, and the raw float64
  bytes of every input array — the same addressing discipline as the
  chaos repro bundles.  Bit-identical inputs — and only those — share an
  entry, so a cached result is exactly what the same code would have
  recomputed (the PR-1 bit-identity argument, extended across processes).
* **Append-only.**  An entry, once written, is never mutated or replaced:
  writers that find the key present simply skip.  There is no eviction
  and no locking; the cache directory grows monotonically and can be
  deleted wholesale between experiments.
* **Atomic, torn-write-safe.**  Entries are written to a temp file in the
  same directory and published with ``os.replace`` — readers never see a
  half-written entry under the final name.  A reader that still finds a
  corrupt entry (truncated by a crashed writer, damaged disk) treats it
  as a miss, recomputes, and counts a ``shared_cache_errors``; it never
  propagates the corruption.
* **Opt-in.**  Disabled unless ``REPRO_CACHE_DIR`` is set (the engine's
  ``--cache-dir`` flag exports it to every worker) or
  :func:`set_shared_cache_dir` is called.  The env var is re-read on
  every lookup, so workers configured after import still see it.

Hit provenance
--------------
Each process remembers the keys *it* wrote this run.  A disk hit on such
a key is counted as ``shared_cache_hits_local`` (intra-worker — the
in-memory LRU evicted it); a hit on any other key is
``shared_cache_hits_foreign`` (cross-worker or cross-run sharing).  The
engine's merged counters thus report actual sharing instead of the
conflated "hit rate 1.0" the per-worker LRU counters showed.

What is cached here
-------------------
Only results that are expensive to recompute relative to ~1 ms of disk
I/O: ``linear_combination`` and ``intersect_subset_hulls`` outputs, both
looked up through :func:`repro.geometry.cache.memoized_polytope`.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from .cache import PERF

#: Format tag baked into every key: bump to invalidate all prior entries
#: when the serialisation or the semantics of a cached operation change.
SCHEMA_VERSION = "v1"

#: Explicit override set by :func:`set_shared_cache_dir`; ``None`` defers
#: to the environment, ``""`` (empty string) forces-disables.
_DIR_OVERRIDE: str | None = None

#: Keys whose results this process computed and offered to the cache
#: (whether or not its write won the publish race) — the basis of the
#: local/foreign hit split.
_WRITTEN_KEYS: set[str] = set()


def shared_cache_dir() -> Path | None:
    """The active cache directory, or ``None`` when the cache is off.

    An explicit :func:`set_shared_cache_dir` wins; otherwise the
    ``REPRO_CACHE_DIR`` environment variable is consulted on every call
    (cheap, and lets the engine configure forked/spawned workers via the
    environment without an import-order dance).
    """
    if _DIR_OVERRIDE is not None:
        return Path(_DIR_OVERRIDE) if _DIR_OVERRIDE else None
    env = os.environ.get("REPRO_CACHE_DIR", "")
    return Path(env) if env else None


def set_shared_cache_dir(path: str | os.PathLike | None) -> str | None:
    """Set (or clear) the cache directory, overriding the environment.

    ``None`` restores environment-driven behaviour; an empty string
    disables the cache regardless of the environment.  Returns the
    previous override (for save/restore in tests).
    """
    global _DIR_OVERRIDE
    previous = _DIR_OVERRIDE
    _DIR_OVERRIDE = None if path is None else str(path)
    return previous


def shared_cache_enabled() -> bool:
    return shared_cache_dir() is not None


def reset_written_keys() -> None:
    """Forget which keys this process wrote (tests of the hit split)."""
    _WRITTEN_KEYS.clear()


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------

def content_key(op: str, arrays: Iterable[np.ndarray], params: tuple = ()) -> str:
    """SHA-256 hex key of an operation over the given input arrays.

    The digest covers the schema version, the operation name, a repr of
    the (hashable, order-significant) ``params`` tuple, and for every
    array its dtype, shape, and raw bytes — bit-identical inputs and only
    those collide.
    """
    h = hashlib.sha256()
    h.update(SCHEMA_VERSION.encode())
    h.update(b"\x00")
    h.update(op.encode())
    h.update(b"\x00")
    h.update(repr(params).encode())
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(b"\x00")
        h.update(str(a.dtype).encode())
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _entry_path(root: Path, key: str) -> Path:
    # Two-level fan-out keeps directory listings manageable for large runs.
    return root / "objects" / key[:2] / f"{key}.npz"


# ----------------------------------------------------------------------
# Load / store
# ----------------------------------------------------------------------

def load_arrays(key: str) -> dict[str, np.ndarray] | None:
    """Fetch the entry for ``key`` or ``None`` (cache off / miss / corrupt).

    Corrupt or unreadable entries count ``shared_cache_errors`` and are
    reported as misses — the caller recomputes, exactly as if the entry
    never existed.  Counts hits split by provenance (see module docs).
    """
    root = shared_cache_dir()
    if root is None:
        return None
    path = _entry_path(root, key)
    if not path.exists():
        PERF.shared_cache_misses += 1
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            out = {name: np.array(data[name]) for name in data.files}
    except Exception:  # noqa: BLE001 — any damage means "recompute"
        PERF.shared_cache_errors += 1
        PERF.shared_cache_misses += 1
        return None
    if key in _WRITTEN_KEYS:
        PERF.shared_cache_hits_local += 1
    else:
        PERF.shared_cache_hits_foreign += 1
    return out


def store_arrays(key: str, arrays: dict[str, np.ndarray]) -> bool:
    """Publish an entry atomically; append-only (existing entries win).

    Returns True when this call wrote the entry.  Write failures (read-only
    disk, races losing to ``os.replace``) are swallowed — the cache is an
    accelerator, never a correctness dependency.
    """
    root = shared_cache_dir()
    if root is None:
        return False
    path = _entry_path(root, key)
    _WRITTEN_KEYS.add(key)
    if path.exists():
        return False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        buf = io.BytesIO()
        np.savez(buf, **{name: np.ascontiguousarray(a) for name, a in arrays.items()})
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(buf.getvalue())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except Exception:  # noqa: BLE001 — cache writes must never fail a run
        PERF.shared_cache_errors += 1
        return False
    PERF.shared_cache_writes += 1
    return True


# ----------------------------------------------------------------------
# Typed convenience wrappers
# ----------------------------------------------------------------------

def load_polytope(key: str):
    """Fetch a cached polytope (or ``None``) for a vertex-set-valued op."""
    from .polytope import ConvexPolytope  # deferred: polytope imports cache

    data = load_arrays(key)
    if data is None or "vertices" not in data or "dim" not in data:
        return None
    # Scalars survive the npz round-trip as 0-d or shape-(1,) arrays
    # depending on the numpy version's ascontiguousarray promotion rules.
    dim = int(np.asarray(data["dim"]).reshape(-1)[0])
    verts = np.asarray(data["vertices"], dtype=float).reshape(-1, dim)
    # Stored vertex arrays are already-minimal outputs of the very same
    # kernel, so the trusted constructor applies (and the float64 bytes
    # round-trip exactly through the npy format).
    return ConvexPolytope(verts, dim, _trusted=True)


def store_polytope(key: str, poly) -> bool:
    return store_arrays(
        key,
        {"vertices": poly.vertices, "dim": np.array(poly.dim, dtype=np.int64)},
    )


def load_float(key: str) -> float | None:
    data = load_arrays(key)
    if data is None or "value" not in data:
        return None
    return float(np.asarray(data["value"]).reshape(-1)[0])


def store_float(key: str, value: float) -> bool:
    return store_arrays(key, {"value": np.array(float(value))})
