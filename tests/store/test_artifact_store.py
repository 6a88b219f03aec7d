"""ArtifactStore: envelopes, corruption demotion, LRU eviction, counters."""

import json
import os

import pytest

from repro.store import ArtifactStore, FORMAT_VERSION, snapshot_key
from repro.store.artifacts import content_digest

SCHEMA = 2


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"), schema=SCHEMA)


class TestRecords:
    def test_round_trip(self, store):
        payload = {"kind": "build", "app": "Blink", "code_bytes": 1234}
        assert store.store_record("abc123", payload)
        assert store.load_record("abc123") == payload
        assert store.record_hits == 1 and store.stores == 1

    def test_missing_key_is_a_miss(self, store):
        assert store.load_record("nope") is None
        assert store.record_misses == 1 and store.errors == 0

    def test_corrupt_json_is_a_labelled_miss(self, store, caplog):
        store.store_record("abc123", {"x": 1})
        path = store._record_path("abc123")
        with open(path, "w") as handle:
            handle.write('{"format": 1, "schema"')  # truncated
        with caplog.at_level("WARNING"):
            assert store.load_record("abc123") is None
        assert store.errors == 1
        assert any("artifact-store" in rec.message for rec in caplog.records)

    def test_stale_schema_is_a_miss(self, store, tmp_path):
        store.store_record("abc123", {"x": 1})
        stale = ArtifactStore(store.root, schema=SCHEMA + 1)
        assert stale.load_record("abc123") is None
        assert stale.errors == 1
        # The original-schema reader still hits.
        assert store.load_record("abc123") == {"x": 1}

    def test_stale_format_is_a_miss(self, store):
        path = store._record_path("abc123")
        envelope = {"format": FORMAT_VERSION + 1, "schema": SCHEMA,
                    "key": "abc123", "digest": content_digest({"x": 1}),
                    "payload": {"x": 1}}
        os.makedirs(store.root, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert store.load_record("abc123") is None

    def test_digest_mismatch_is_a_miss(self, store):
        store.store_record("abc123", {"x": 1})
        path = store._record_path("abc123")
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["payload"]["x"] = 2  # tamper without updating the digest
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert store.load_record("abc123") is None
        assert store.errors == 1

    def test_wrong_key_in_envelope_is_a_miss(self, store):
        store.store_record("abc123", {"x": 1})
        os.rename(store._record_path("abc123"), store._record_path("def456"))
        assert store.load_record("def456") is None


class TestSnapshots:
    def test_round_trip_arbitrary_object(self, store):
        payload = {"nested": [1, 2, (3, 4)], "name": "front-end"}
        key = snapshot_key("Blink", ("nesc.flatten[x]",), SCHEMA)
        assert store.store_snapshot(key, payload)
        assert store.load_snapshot(key) == payload
        assert store.snapshot_hits == 1

    def test_truncated_pickle_is_a_miss(self, store):
        key = snapshot_key("Blink", ("nesc.flatten[x]",), SCHEMA)
        store.store_snapshot(key, {"x": 1})
        path = store._snapshot_path(key)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        assert store.load_snapshot(key) is None
        assert store.errors == 1

    def test_snapshot_key_depends_on_prefix_and_schema(self):
        base = snapshot_key("Blink", ("a", "b"), SCHEMA)
        assert snapshot_key("Blink", ("a", "c"), SCHEMA) != base
        assert snapshot_key("Blink", ("a", "b"), SCHEMA + 1) != base
        assert snapshot_key("Surge", ("a", "b"), SCHEMA) != base


class TestEviction:
    def _fill(self, store, count=5, pad=1000):
        for index in range(count):
            store.store_record(f"key{index:04d}", {"pad": "x" * pad})

    def test_gc_without_budget_measures_only(self, store):
        self._fill(store)
        report = store.gc()
        assert report["entries"] == 5 and report["evicted"] == 0
        assert report["bytes_before"] == report["bytes_after"]

    def test_gc_evicts_lru_first(self, store):
        self._fill(store, count=3)
        # Freshen key0000 so key0001 is the stalest entry.
        past = os.path.getmtime(store._record_path("key0001")) - 100
        os.utime(store._record_path("key0001"), (past, past))
        budget = store.size_bytes() - 1  # forces exactly one eviction
        report = store.gc(budget)
        assert report["evicted"] == 1
        assert store.load_record("key0001") is None
        assert store.load_record("key0000") is not None
        assert store.load_record("key0002") is not None

    def test_hits_freshen_the_lru_clock(self, store):
        self._fill(store, count=3)
        # Backdate everything, then hit key0000: it must survive a GC that
        # evicts two entries.
        for index in range(3):
            path = store._record_path(f"key{index:04d}")
            os.utime(path, (1, 1 + index))
        assert store.load_record("key0000") is not None
        sizes = [entry[1] for entry in store.entries()]
        store.gc(sum(sizes) - sizes[0] - 1)  # room for ~one entry
        assert store.load_record("key0000") is not None

    def test_stats_shape(self, store):
        stats = store.stats()
        assert set(stats) == {"record_hits", "record_misses", "snapshot_hits",
                              "snapshot_misses", "stores", "errors", "evicted"}
