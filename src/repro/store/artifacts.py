"""Disk-backed, content-addressed artifact store for the api layer.

The :class:`~repro.api.workbench.Workbench` memoizes build, simulation and
scenario records by spec content key — but only for one session.  The
:class:`ArtifactStore` makes that cache durable: one directory shared by
every process, keyed by the same sha256 content keys, so a cold session
with a warm store serves an identical spec from disk in microseconds
instead of re-running the toolchain.

Two entry kinds live side by side in the store directory:

``<key>.json`` — **records**.  A JSON envelope wrapping one
    ``BuildRecord`` / ``SimRecord`` / ``ScenarioRecord`` ``to_dict()``
    payload.  The envelope carries the store format version, the api
    schema version, the key, and a sha256 digest of the payload's
    canonical JSON, so truncation, corruption and version drift are all
    detected on load and demoted to labelled-warning misses.

``<key>.snap`` — **prefix snapshots**.  A pickled envelope wrapping one
    sweep-runner prefix snapshot (the program state at a persistent
    pass-list prefix — the nesC front end or the CCured stage).  Hydrating
    these lets a *novel* variant of a known application skip the shared
    front end even in a session that never built the application at all.

Writers stage each entry to a temp file in the store directory and
publish it with ``os.replace``.  Concurrent writers race benignly — every
writer for one key produces an equivalent entry by construction, last
writer wins, and a concurrent reader only ever observes a complete
envelope.

Eviction is LRU-ish by whole entry: every hit freshens the entry's mtime,
and :meth:`ArtifactStore.gc` removes the stalest entries until the store
fits a byte budget.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
from typing import Optional

logger = logging.getLogger(__name__)

#: Version of the on-disk envelope layout itself (bump on layout changes).
FORMAT_VERSION = 1

#: Label prefixed to every warning so operators can grep for store trouble.
_WARN = "artifact-store"

_RECORD_SUFFIX = ".json"
_SNAPSHOT_SUFFIX = ".snap"


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(material: dict) -> str:
    """The api layer's digest convention: sha256 of canonical JSON."""
    return hashlib.sha256(_canonical(material).encode("utf-8")).hexdigest()


def snapshot_key(app: str, prefix: tuple[str, ...], schema: int) -> str:
    """Content-addressed key of one (application, pass-list prefix) snapshot.

    The prefix is the sequence of pass cache keys up to the snapshot
    point, so any configuration change that alters what those passes
    produce changes the key — stale programs miss instead of mis-loading.
    """
    return content_digest({
        "kind": "snapshot",
        "schema": schema,
        "app": app,
        "prefix": list(prefix),
    })[:16]


class ArtifactStore:
    """Content-addressed directory of record JSON and snapshot pickles.

    Args:
        root: Store directory (created on first write).
        schema: The api layer's ``SCHEMA_VERSION``; entries stamped with a
            different schema are demoted to misses.  Passed in rather than
            imported so the store package has no dependency on
            :mod:`repro.api` (the api layer imports *us*).

    Counters (``record_hits`` … ``evicted``) feed
    :meth:`~repro.api.workbench.Workbench.stats`.
    """

    __slots__ = ("root", "schema", "record_hits",
                 "record_misses", "snapshot_hits", "snapshot_misses",
                 "stores", "errors", "evicted")

    def __init__(self, root: str, *, schema: int) -> None:
        self.root = os.fspath(root)
        self.schema = schema
        self.record_hits = 0
        self.record_misses = 0
        self.snapshot_hits = 0
        self.snapshot_misses = 0
        self.stores = 0
        self.errors = 0
        self.evicted = 0

    # -- paths -----------------------------------------------------------------

    def _record_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}{_RECORD_SUFFIX}")

    def _snapshot_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}{_SNAPSHOT_SUFFIX}")

    def has_record(self, key: str) -> bool:
        return os.path.exists(self._record_path(key))

    def has_snapshot(self, key: str) -> bool:
        return os.path.exists(self._snapshot_path(key))

    # -- records ---------------------------------------------------------------

    def load_record(self, key: str) -> Optional[dict]:
        """The record payload stored under ``key``, or None on any miss.

        Corrupt, truncated, version-stale or digest-mismatched entries are
        demoted to misses with a labelled warning; the caller falls back
        to building.  A hit freshens the entry's mtime (the LRU clock).
        """
        path = self._record_path(key)
        raw = self._read(path)
        if raw is None:
            self.record_misses += 1
            return None
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self.errors += 1
            self.record_misses += 1
            logger.warning("%s: corrupt record %s (%s); rebuilding",
                           _WARN, path, exc)
            return None
        payload = self._open_envelope(envelope, key, path)
        if payload is None:
            self.record_misses += 1
            return None
        if content_digest(payload) != envelope.get("digest"):
            self.errors += 1
            self.record_misses += 1
            logger.warning("%s: digest mismatch in %s; rebuilding",
                           _WARN, path)
            return None
        self._touch(path)
        self.record_hits += 1
        return payload

    def store_record(self, key: str, payload: dict) -> bool:
        """Persist one record ``to_dict()`` payload atomically."""
        envelope = {
            "format": FORMAT_VERSION,
            "schema": self.schema,
            "key": key,
            "digest": content_digest(payload),
            "payload": payload,
        }
        blob = (json.dumps(envelope, sort_keys=True) + "\n").encode("utf-8")
        return self._publish(self._record_path(key), blob)

    # -- snapshots -------------------------------------------------------------

    def load_snapshot(self, key: str) -> Optional[object]:
        """The unpickled snapshot payload under ``key``, or None on a miss."""
        path = self._snapshot_path(key)
        raw = self._read(path)
        if raw is None:
            self.snapshot_misses += 1
            return None
        try:
            envelope = pickle.loads(raw)
        except Exception as exc:  # truncated / corrupt pickle stream
            self.errors += 1
            self.snapshot_misses += 1
            logger.warning("%s: corrupt snapshot %s (%s); rebuilding",
                           _WARN, path, exc)
            return None
        blob = self._open_envelope(envelope, key, path)
        if not isinstance(blob, bytes):
            self.snapshot_misses += 1
            return None
        if hashlib.sha256(blob).hexdigest() != envelope.get("digest"):
            self.errors += 1
            self.snapshot_misses += 1
            logger.warning("%s: digest mismatch in %s; rebuilding",
                           _WARN, path)
            return None
        try:
            payload = pickle.loads(blob)
        except Exception as exc:  # pragma: no cover - digest guards this
            self.errors += 1
            self.snapshot_misses += 1
            logger.warning("%s: undecodable snapshot payload in %s (%s); "
                           "rebuilding", _WARN, path, exc)
            return None
        self._touch(path)
        self.snapshot_hits += 1
        return payload

    def store_snapshot(self, key: str, payload: object) -> bool:
        """Persist one picklable snapshot payload atomically."""
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "format": FORMAT_VERSION,
            "schema": self.schema,
            "key": key,
            "digest": hashlib.sha256(blob).hexdigest(),
            "payload": blob,
        }
        return self._publish(
            self._snapshot_path(key),
            pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL))

    # -- eviction --------------------------------------------------------------

    def entries(self) -> list[tuple[str, int, float]]:
        """Every store entry as ``(path, size_bytes, mtime)``, LRU first."""
        found: list[tuple[str, int, float]] = []
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return found
        for name in names:
            if not name.endswith((_RECORD_SUFFIX, _SNAPSHOT_SUFFIX)):
                continue
            path = os.path.join(self.root, name)
            try:
                status = os.stat(path)
            except OSError:
                continue  # raced with a concurrent eviction
            found.append((path, status.st_size, status.st_mtime))
        found.sort(key=lambda entry: entry[2])
        return found

    def size_bytes(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def gc(self, budget_bytes: Optional[int] = None) -> dict[str, int]:
        """Evict least-recently-used entries until the store fits a budget.

        Hits freshen mtimes, so eviction order approximates LRU at file
        granularity.  Returns a report; with no budget this is a pure
        measurement pass.
        """
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        report = {
            "entries": len(entries),
            "bytes_before": total,
            "bytes_after": total,
            "budget_bytes": budget_bytes if budget_bytes is not None else -1,
            "evicted": 0,
        }
        if budget_bytes is None:
            return report
        for path, size, _ in entries:
            if report["bytes_after"] <= budget_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue  # lost a race with another GC pass
            report["bytes_after"] -= size
            report["evicted"] += 1
            report["entries"] -= 1
            self.evicted += 1
        return report

    # -- shared plumbing -------------------------------------------------------

    def _open_envelope(self, envelope: object, key: str, path: str):
        """Version/identity checks shared by records and snapshots."""
        if not isinstance(envelope, dict) or \
                envelope.get("format") != FORMAT_VERSION or \
                envelope.get("schema") != self.schema:
            self.errors += 1
            logger.warning(
                "%s: version-stale entry %s (format=%r schema=%r, want "
                "%d/%d); rebuilding", _WARN, path,
                envelope.get("format") if isinstance(envelope, dict)
                else None,
                envelope.get("schema") if isinstance(envelope, dict)
                else None,
                FORMAT_VERSION, self.schema)
            return None
        if envelope.get("key") != key:
            self.errors += 1
            logger.warning("%s: entry %s names key %r, expected %r; "
                           "rebuilding", _WARN, path,
                           envelope.get("key"), key)
            return None
        return envelope.get("payload")

    @staticmethod
    def _read(path: str) -> Optional[bytes]:
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("%s: unreadable entry %s (%s); rebuilding",
                           _WARN, path, exc)
            return None

    @staticmethod
    def _touch(path: str) -> None:
        try:
            os.utime(path)
        except OSError:
            pass  # the entry may have been evicted under us

    def _publish(self, path: str, blob: bytes) -> bool:
        """Atomic write-temp + rename; True on success, warning on failure."""
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self.errors += 1
            logger.warning("%s: cannot persist %s (%s); continuing without",
                           _WARN, path, exc)
            return False
        self.stores += 1
        return True

    def stats(self) -> dict[str, int]:
        return {
            "record_hits": self.record_hits,
            "record_misses": self.record_misses,
            "snapshot_hits": self.snapshot_hits,
            "snapshot_misses": self.snapshot_misses,
            "stores": self.stores,
            "errors": self.errors,
            "evicted": self.evicted,
        }
