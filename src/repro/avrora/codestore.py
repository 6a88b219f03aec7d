"""Disk-backed persistent store for lowered :class:`FunctionPlan` artifacts.

The in-process :class:`~repro.avrora.engine.CodeCache` makes lowering
one-per-function within a process; this module makes it one-per-*content*
across processes.  A :class:`PlanStore` maps a cache key — derived from the
program's content key, the target platform, and the engine's lowering
version — to a pickled *portable* plan export
(:meth:`CodeCache.export_portable`), so a warm ``simulate`` hydrates every
plan from disk and performs zero front-end lowerings; every node of the
network then binds closures against the one hydrated cache.

Robustness over cleverness: entries are self-describing pickles carrying a
format version, the engine lowering version, and a payload digest.  Any
mismatch — truncation, corruption, a stale engine — is logged with a
labelled warning and treated as a miss (fresh lowering), never a crash.
Writers stage to a temp file in the same directory and publish with
``os.replace`` so concurrent processes only ever observe complete entries.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
from typing import Optional

from repro.avrora.engine import LOWERING_VERSION

logger = logging.getLogger(__name__)

#: Version of the on-disk envelope itself (bump on layout changes).
FORMAT_VERSION = 1

#: Label prefixed to every warning so operators can grep for cache trouble.
_WARN = "plan-cache"


def plan_key(program_key: str, platform: str) -> str:
    """Content-addressed key for one (program, platform, engine) triple.

    ``program_key`` is the api layer's sha256 content key (any stable
    program identity string works); the platform name pins the cost model
    and :data:`LOWERING_VERSION` pins the plan format, so upgrading the
    engine naturally misses old entries instead of mis-reading them.
    """
    blob = f"{FORMAT_VERSION}|{LOWERING_VERSION}|{program_key}|{platform}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class PlanStore:
    """Content-addressed directory of pickled portable plan exports.

    One file per key, named ``<key>.plan``; the pickle is an envelope
    ``{"format", "engine", "key", "digest", "payload"}`` where ``digest``
    is the sha256 of the payload's own pickle bytes.  ``load`` returns the
    payload dict or None; ``store`` is atomic (write-temp + rename).
    Counters (``hits``/``misses``/``stores``/``errors``) feed the
    simulation record's cache telemetry.
    """

    __slots__ = ("root", "hits", "misses", "stores", "errors")

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.plan")

    def load(self, key: str) -> Optional[dict]:
        """Return the portable payload for ``key``, or None on any miss.

        Corrupt, truncated, or version-stale entries are demoted to misses
        with a labelled warning; the caller falls back to fresh lowering.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            self.errors += 1
            logger.warning("%s: unreadable entry %s (%s); lowering fresh",
                           _WARN, path, exc)
            return None
        try:
            envelope = pickle.loads(raw)
        except Exception as exc:  # truncated / corrupt pickle stream
            self.errors += 1
            logger.warning("%s: corrupt entry %s (%s); lowering fresh",
                           _WARN, path, exc)
            return None
        if not isinstance(envelope, dict) or \
                envelope.get("format") != FORMAT_VERSION or \
                envelope.get("engine") != LOWERING_VERSION:
            self.errors += 1
            logger.warning(
                "%s: version-stale entry %s (format=%r engine=%r, "
                "want %d/%d); lowering fresh", _WARN, path,
                envelope.get("format") if isinstance(envelope, dict)
                else None,
                envelope.get("engine") if isinstance(envelope, dict)
                else None,
                FORMAT_VERSION, LOWERING_VERSION)
            return None
        blob = envelope.get("payload")
        digest = hashlib.sha256(blob).hexdigest() \
            if isinstance(blob, bytes) else None
        if digest != envelope.get("digest"):
            self.errors += 1
            logger.warning("%s: digest mismatch in %s; lowering fresh",
                           _WARN, path)
            return None
        try:
            payload = pickle.loads(blob)
        except Exception as exc:  # pragma: no cover - digest guards this
            self.errors += 1
            logger.warning("%s: undecodable payload in %s (%s); "
                           "lowering fresh", _WARN, path, exc)
            return None
        self.hits += 1
        return payload

    def store(self, key: str, payload: dict) -> bool:
        """Persist ``payload`` under ``key`` atomically; True on success.

        The envelope is staged to a temp file in the store directory and
        published with ``os.replace``, so a concurrent reader sees either
        the old complete entry or the new complete entry — never a torn
        write.  Last writer wins, which is fine: all writers for one key
        produce equivalent plans by construction.
        """
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "format": FORMAT_VERSION,
            "engine": LOWERING_VERSION,
            "key": key,
            "digest": hashlib.sha256(blob).hexdigest(),
            "payload": blob,
        }
        path = self._path(key)
        try:
            os.makedirs(self.root, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(envelope, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
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
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
        }
