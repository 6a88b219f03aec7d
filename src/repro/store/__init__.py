"""``repro.store`` — persistent, content-addressed artifact storage.

The durability layer under :class:`repro.api.Workbench`: build, simulation
and scenario records plus sweep prefix snapshots, keyed by the api layer's
sha256 content keys and shared across sessions and processes.  See
:mod:`repro.store.artifacts` for the on-disk envelope format, concurrency
discipline and eviction policy, and the "artifact store" section of
``ARCHITECTURE.md`` for how the Workbench routes through it.
"""

from repro.store.artifacts import (
    FORMAT_VERSION,
    ArtifactStore,
    content_digest,
    snapshot_key,
)

__all__ = [
    "ArtifactStore",
    "FORMAT_VERSION",
    "content_digest",
    "snapshot_key",
]
