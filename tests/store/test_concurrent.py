"""Concurrent writers racing one store key: no torn reads, one valid entry.

:class:`repro.store.ArtifactStore` publishes with write-temp +
``os.replace``, so racing writers for one key must each leave the store
holding *some* complete, digest-valid envelope — and because identical
specs serialize identically, the surviving entry is byte-for-byte what any
single writer would have produced.  These tests fork real processes
hammering one key while the parent reads concurrently.
"""

import json
import multiprocessing
import os

import pytest

from repro.store import ArtifactStore

SCHEMA = 2
ROUNDS = 60


def _artifact_writer(root: str, key: str, payload: dict, errors) -> None:
    store = ArtifactStore(root, schema=SCHEMA)
    for _ in range(ROUNDS):
        if not store.store_record(key, payload):
            errors.put("store_record returned False")


def _race(target, root, key, payload, reader):
    """Two writer processes vs. a reading parent; returns reader observations."""
    ctx = multiprocessing.get_context("fork")
    errors = ctx.Queue()
    writers = [ctx.Process(target=target, args=(root, key, payload, errors))
               for _ in range(2)]
    for proc in writers:
        proc.start()
    observations = []
    while any(proc.is_alive() for proc in writers):
        value = reader()
        if value is not None:
            observations.append(value)
    for proc in writers:
        proc.join()
        assert proc.exitcode == 0
    assert errors.empty()
    return observations


class TestArtifactStoreRace:
    def test_racing_writers_never_tear(self, tmp_path):
        root = str(tmp_path / "store")
        payload = {"kind": "build", "app": "Blink", "pad": "x" * 4096}
        reader = ArtifactStore(root, schema=SCHEMA)
        observations = _race(_artifact_writer, root, "deadbeef", payload,
                             lambda: reader.load_record("deadbeef"))
        # Every concurrent read that found the entry saw the full payload —
        # a torn read would have been demoted to a miss with errors > 0.
        assert reader.errors == 0
        for seen in observations:
            assert seen == payload

    def test_final_entry_is_byte_identical_to_solo_write(self, tmp_path):
        root = str(tmp_path / "store")
        payload = {"kind": "build", "app": "Blink", "code_bytes": 99}
        _race(_artifact_writer, root, "deadbeef", payload, lambda: None)
        solo_root = str(tmp_path / "solo")
        ArtifactStore(solo_root, schema=SCHEMA).store_record(
            "deadbeef", payload)
        raced = open(os.path.join(root, "deadbeef.json"), "rb").read()
        solo = open(os.path.join(solo_root, "deadbeef.json"), "rb").read()
        assert raced == solo
        envelope = json.loads(raced)
        assert envelope["payload"] == payload

    def test_no_stray_temp_files_survive(self, tmp_path):
        root = str(tmp_path / "store")
        _race(_artifact_writer, root, "deadbeef", {"x": 1}, lambda: None)
        assert [name for name in os.listdir(root)
                if name.endswith(".tmp")] == []

