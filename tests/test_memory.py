import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptfly.errors import (
    AdaptflyError,
    CompositionError,
    DeferredNotResolvedError,
    DegenerateKeyError,
    EmptyPoolError,
    PoolFormatError,
    ResolutionError,
)
import adaptfly.memory as memory_mod
from adaptfly.memory import DeferredMarker, PoolConfig, PoolEntry, PromptPool, assemble
from adaptfly.prompts import TokenPrompt, compact_json, vector_text


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def make_pool(**kw):
    return PromptPool(PoolConfig(**kw))


def prompt(rows=2, dim=4, fill=1.0):
    return TokenPrompt(np.full((rows, dim), fill))


class TestInsert:
    def test_insert_into_empty_pool(self):
        pool = make_pool()
        pool.insert(np.array([1.0, 0.0]), prompt(), timestamp=0, agent_id="a")
        assert pool.size == 1

    def test_key_normalized_direction_preserved(self):
        pool = make_pool()
        e = pool.insert(np.array([0.0, 2.0]), prompt(), timestamp=0, agent_id="a")
        np.testing.assert_allclose(e.key, [0.0, 1.0])
        assert abs(np.linalg.norm(e.key) - 1.0) < 1e-6

    def test_zero_key_rejected(self):
        pool = make_pool()
        with pytest.raises(DegenerateKeyError):
            pool.insert(np.zeros(3), prompt(), timestamp=0, agent_id="a")

    def test_key_dimension_mismatch_is_typed(self):
        pool = make_pool()
        pool.insert(np.array([1.0, 0.0, 0.0]), prompt(), timestamp=0, agent_id="a")
        with pytest.raises(CompositionError, match="dimension 2.*dimension 3"):
            pool.insert(np.array([1.0, 0.0]), prompt(), timestamp=1, agent_id="a")
        assert pool.size == 1

    def test_entry_ids_unique(self):
        pool = make_pool()
        ids = {
            pool.insert(np.array([1.0, float(i)]), prompt(), timestamp=i, agent_id="a").entry_id
            for i in range(10)
        }
        assert len(ids) == 10


class TestQuery:
    def test_orthogonal_keys_pick_matching(self):
        pool = make_pool()
        pool.insert(np.array([1.0, 0.0]), prompt(fill=1.0), timestamp=0, agent_id="a")
        pool.insert(np.array([0.0, 1.0]), prompt(fill=2.0), timestamp=1, agent_id="b")
        pool.refine()
        hits = pool.query_topn(np.array([1.0, 0.0]), n=1)
        assert len(hits) == 1
        np.testing.assert_allclose(hits[0].key, [1.0, 0.0])

    def test_truncates_to_pool_size(self):
        pool = make_pool()
        pool.insert(np.array([1.0, 0.0]), prompt(), timestamp=0, agent_id="a")
        pool.refine()
        assert len(pool.query_topn(np.array([1.0, 1.0]), n=5)) == 1

    def test_empty_pool_raises(self):
        with pytest.raises(EmptyPoolError):
            make_pool().query_topn(np.array([1.0]), n=1)

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300])
    def test_huge_and_tiny_queries_are_normalized(self, scale):
        # The norm is taken scaled by the largest magnitude, so squaring
        # neither overflows nor underflows (no numpy warning either).
        pool = make_pool()
        pool.insert(unit([1.0] * 48), prompt(dim=4), timestamp=0, agent_id="a")
        pool.insert(unit([1.0] * 24 + [-1.0] * 24), prompt(dim=4), timestamp=0, agent_id="a")
        pool.refine()
        hits = pool.query_topn(np.full(48, scale), 2)
        assert [e.entry_id for e in hits] == [0, 1]
        assert np.array_equal(memory_mod._unit(np.full(48, scale)), unit([1.0] * 48))

    def test_unit_keeps_the_plain_norm_in_range(self):
        rng = np.random.default_rng(4)
        for scale in (1e-140, 1.0, 1e140):
            v = rng.normal(size=48) * scale
            assert np.array_equal(memory_mod._unit(v), v / float(np.linalg.norm(v)))

    def test_zero_query_rejected(self):
        pool = make_pool()
        pool.insert(np.array([1.0, 0.0]), prompt(), timestamp=0, agent_id="a")
        pool.refine()
        with pytest.raises(DegenerateKeyError):
            pool.query_topn(np.zeros(2), n=1)

    def test_pending_entries_invisible_until_refine(self):
        pool = make_pool()
        pool.insert(np.array([1.0, 0.0]), prompt(), timestamp=0, agent_id="a")
        assert pool.query_topn(np.array([1.0, 0.0]), n=2) == []
        pool.refine()
        assert len(pool.query_topn(np.array([1.0, 0.0]), n=2)) == 1

    def test_matches_brute_force_ordering(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            pool = make_pool(capacity=64, merge_threshold=1.0)
            dim = int(rng.integers(2, 6))
            n_entries = int(rng.integers(1, 20))
            keys = []
            for i in range(n_entries):
                k = rng.normal(size=dim)
                if rng.random() < 0.2 and keys:
                    k = keys[-1].copy()  # force similarity ties
                keys.append(k)
                pool.insert(k, prompt(dim=3), timestamp=i, agent_id="a")
            pool.refine()
            q = rng.normal(size=dim)
            n = int(rng.integers(1, 8))
            got = [e.entry_id for e in pool.query_topn(q, n)]
            qn = unit(q)
            entries = pool.entries()
            expected = [
                e.entry_id
                for e in sorted(entries, key=lambda e: (-float(qn @ e.key), e.entry_id))
            ][: min(n, len(entries))]
            assert got == expected

    def test_query_dimension_mismatch_is_typed(self):
        pool = make_pool()
        pool.insert(np.array([1.0, 0.0]), prompt(), timestamp=0, agent_id="a")
        pool.refine()
        with pytest.raises(CompositionError, match="dimension 3.*dimension 2"):
            pool.query_topn(np.ones(3), n=1)

    def test_duplicate_keys_tie_by_entry_id_at_any_pool_size(self):
        # Matrix-vector products may round identical rows differently; the
        # ranking must not. Rows are filled in reverse id order.
        rng = np.random.default_rng(5)
        for dim in (3, 16, 48):
            for size in range(2, 40):
                pool = make_pool(capacity=64)
                dup = rng.normal(size=dim)
                for i in range(size):
                    key = dup if i % 3 == 0 else rng.normal(size=dim)
                    pool.insert(key, DeferredMarker("a"), timestamp=size - i, agent_id="a")
                pool.refine()
                dup_ids = [i for i in range(size) if i % 3 == 0]
                for n in range(1, len(dup_ids) + 1):
                    got = [e.entry_id for e in pool.query_topn(dup, n)]
                    assert got == dup_ids[:n], (dim, size, n)

    def test_query_updates_last_retrieved(self):
        # One clock: each insert and each query takes its next tick, whatever
        # the entries' timestamps; a query stamps its hits.
        pool = make_pool()
        for i, key in enumerate(np.eye(2)):
            pool.insert(key, prompt(), timestamp=60 - i, agent_id="a")
        pool.refine()
        assert pool._last[:2].tolist() == [2, 1]  # refined in timestamp order
        pool.query_topn(np.array([1.0, 0.0]), n=1)
        assert pool._last[:2].tolist() == [2, 3]
        assert pool.query_topn(np.array([1.0, 0.0]), n=0) == []
        assert pool._clock == 4


class TestAssemble:
    def _entry(self, eid, fill, rows=8, dim=16):
        return PoolEntry(
            entry_id=eid, key=unit(np.ones(4)), value=prompt(rows, dim, fill),
            timestamp=0, agent_id="a",
        )

    def test_concatenates_in_given_order(self):
        out = assemble([self._entry(0, 1.0), self._entry(1, 2.0)])
        assert out.rows == 16 and out.dim == 16
        assert np.all(out.values[:8] == 1.0) and np.all(out.values[8:] == 2.0)

    def test_single_entry_unchanged(self):
        e = self._entry(0, 3.0)
        out = assemble([e])
        assert out == e.value

    def test_empty_list_gives_empty_prompt(self):
        out = assemble([])
        assert out.rows == 0

    def test_deferred_entry_rejected(self):
        bad = PoolEntry(
            entry_id=0, key=unit(np.ones(3)),
            value=DeferredMarker("a"), timestamp=0, agent_id="a",
        )
        with pytest.raises(DeferredNotResolvedError):
            assemble([bad])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(CompositionError):
            assemble([self._entry(0, 1.0, dim=16), self._entry(1, 1.0, dim=8)])


class TestRefine:
    def test_identical_keys_merge_with_ema_weighting(self):
        pool = make_pool(merge_threshold=0.95, merge_weight=0.3)
        pool.insert(np.array([1.0, 0.0]), prompt(fill=1.0), timestamp=0, agent_id="a")
        pool.insert(np.array([1.0, 0.0]), prompt(fill=2.0), timestamp=1, agent_id="b")
        pool.refine()
        assert pool.size == 1
        merged = pool.entries()[0]
        np.testing.assert_allclose(merged.value.values, 0.7 * 1.0 + 0.3 * 2.0)
        assert merged.timestamp == 1
        assert merged.agent_id == "a,b"

    def test_orthogonal_keys_do_not_merge(self):
        pool = make_pool(merge_threshold=0.95)
        pool.insert(np.array([1.0, 0.0]), prompt(), timestamp=0, agent_id="a")
        pool.insert(np.array([0.0, 1.0]), prompt(), timestamp=1, agent_id="b")
        pool.refine()
        assert pool.size == 2

    def test_merge_with_self_preserves_key_and_value(self):
        pool = make_pool(merge_threshold=0.9, merge_weight=0.3)
        key = unit(np.array([3.0, 4.0]))
        value = prompt(fill=1.25)
        pool.insert(key, value, timestamp=0, agent_id="a")
        pool.insert(key, value, timestamp=1, agent_id="a")
        pool.refine()
        merged = pool.entries()[0]
        np.testing.assert_allclose(merged.key, key, atol=1e-12)
        assert merged.value == value

    def test_eviction_by_least_recently_retrieved(self):
        pool = make_pool(capacity=3, merge_threshold=1.0)  # distinct keys never merge
        keys = np.eye(4)
        entries = [
            pool.insert(keys[i], prompt(), timestamp=i, agent_id="a") for i in range(4)
        ]
        pool.refine()
        # touch all but entry 1 after the inserts
        for i in (0, 2, 3):
            pool.query_topn(keys[i], n=1)
        pool.insert(np.ones(4), prompt(), timestamp=20, agent_id="b")
        pool.refine()
        surviving = {e.entry_id for e in pool.entries()}
        assert entries[1].entry_id not in surviving
        assert pool.refined_size == 3

    def test_capacity_never_exceeded(self):
        pool = make_pool(capacity=5, merge_threshold=1.0)
        rng = np.random.default_rng(1)
        for i in range(20):
            pool.insert(rng.normal(size=4), prompt(), timestamp=i, agent_id="a")
            if i % 3 == 0:
                pool.refine()
        pool.refine()
        assert pool.refined_size <= 5

    def test_refine_idempotent(self):
        pool = make_pool(merge_threshold=0.8)
        rng = np.random.default_rng(2)
        for i in range(12):
            pool.insert(rng.normal(size=4), prompt(fill=float(i)), timestamp=i, agent_id="a")
        pool.refine()
        snapshot = [(e.entry_id, e.key.copy(), e.value, e.timestamp) for e in pool.entries()]
        pool.refine()
        again = [(e.entry_id, e.key.copy(), e.value, e.timestamp) for e in pool.entries()]
        assert len(snapshot) == len(again)
        for (i1, k1, v1, t1), (i2, k2, v2, t2) in zip(snapshot, again):
            assert i1 == i2 and t1 == t2 and v1 == v2
            np.testing.assert_array_equal(k1, k2)

    def test_interleaving_invariance(self):
        # Same entries in the same timestamp order, refine called at
        # different points -> identical refined pool.
        rng = np.random.default_rng(3)
        entries = []
        for i in range(15):
            base = rng.normal(size=4)
            entries.append((base, float(i)))

        def build(refine_points):
            pool = make_pool(capacity=100, merge_threshold=0.7)
            for i, (key, fill) in enumerate(entries):
                pool.insert(key, prompt(fill=fill), timestamp=i, agent_id="a")
                if i in refine_points:
                    pool.refine()
            pool.refine()
            return [
                (e.entry_id, tuple(np.round(e.key, 12)), e.timestamp) for e in pool.entries()
            ]

        reference = build(set())
        for points in (set(range(15)), {3, 7}, {0, 14}, {5}):
            assert build(points) == reference

    def test_deferred_never_merges(self):
        pool = make_pool(merge_threshold=0.5)
        key = np.array([1.0, 0.0])
        pool.insert(key, prompt(), timestamp=0, agent_id="a")
        pool.insert(key, DeferredMarker("b"), timestamp=1, agent_id="b")
        pool.insert(key, DeferredMarker("c"), timestamp=2, agent_id="c")
        pool.refine()
        assert pool.size == 3


class TestResolveDeferred:
    def _deferred_pool(self):
        pool = make_pool()
        key = np.array([1.0, 0.0])
        e = pool.insert(key, DeferredMarker("agent-h"), timestamp=0, agent_id="agent-h")
        pool.refine()
        return pool, e

    def test_resolution_materializes_prompt(self):
        pool, e = self._deferred_pool()
        pool.resolve_deferred(e.entry_id, lambda marker: prompt(fill=9.0))
        hit = pool.query_topn(np.array([1.0, 0.0]), n=1)[0]
        assert not hit.is_deferred
        assert assemble([hit]).rows == 2

    def test_resolution_replaces_the_entry(self):
        pool, e = self._deferred_pool()
        pool.query_topn(np.array([1.0, 0.0]), n=1)
        stamps = pool._last[:1].tolist()
        seen = []

        def distiller(entry):
            seen.append(entry)
            return prompt(fill=9.0)

        resolved = pool.resolve_deferred(e.entry_id, distiller)
        assert len(seen) == 1 and seen[0] is e  # the distiller gets the entry
        assert e.is_deferred  # which is not changed: a new entry takes its place
        assert pool.get(e.entry_id) is resolved and pool.entries()[0] is resolved
        fields = {k: v for k, v in e.to_dict().items() if k != "deferred"}
        assert resolved.to_dict() == {**fields, "value": prompt(fill=9.0).to_dict()}
        assert pool._last[:1].tolist() == stamps

    def test_pending_deferred_entry_resolves_in_place(self):
        pool = make_pool()
        key = np.array([1.0, 0.0])
        e = pool.insert(key, DeferredMarker("agent-h"), timestamp=0, agent_id="agent-h")
        resolved = pool.resolve_deferred(e.entry_id, lambda entry: prompt(fill=9.0))
        assert pool.pending_size == 1 and pool.get(e.entry_id) is resolved
        pool.refine()
        (hit,) = pool.query_topn(key, n=1)
        assert hit is resolved

    def test_resolution_idempotent(self):
        pool, e = self._deferred_pool()
        pool.resolve_deferred(e.entry_id, lambda marker: prompt(fill=9.0))
        calls = []

        def second(marker):
            calls.append(marker)
            return prompt(fill=1.0)

        pool.resolve_deferred(e.entry_id, second)
        assert calls == []  # no-op on concrete entries
        assert pool.entries()[0].value == prompt(fill=9.0)

    def test_expired_provenance_drops_entry(self):
        pool, e = self._deferred_pool()

        def failing(marker):
            raise ResolutionError("log truncated")

        with pytest.raises(ResolutionError):
            pool.resolve_deferred(e.entry_id, failing)
        assert pool.size == 0

    def test_unknown_entry(self):
        pool, _ = self._deferred_pool()
        with pytest.raises(ResolutionError):
            pool.resolve_deferred(999, lambda m: prompt())


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        pool = make_pool(merge_threshold=1.0)
        rng = np.random.default_rng(4)
        for i in range(5):
            pool.insert(
                rng.normal(size=6),
                TokenPrompt(rng.normal(size=(3, 4)).astype(np.float32), dtype="f32"),
                timestamp=i,
                agent_id=f"agent-{i}",
                domain_tag="dom" if i % 2 else None,
            )
        pool.refine()
        pool.query_topn(rng.normal(size=6), 2)  # the sixth tick
        path = tmp_path / "pool.jsonl"
        pool.save(path)
        loaded = PromptPool.load(path)
        assert loaded.size == pool.size
        assert int(np.sum(loaded._last[:5] == 6)) == 2
        assert loaded._last[:5].tolist() == pool._last[:5].tolist()
        assert loaded._clock == pool._clock == 6
        for a, b in zip(pool.entries(), loaded.entries()):
            assert a.entry_id == b.entry_id
            assert np.array_equal(a.key, b.key)
            assert a.value == b.value
            assert a.timestamp == b.timestamp
            assert a.agent_id == b.agent_id
            assert a.domain_tag == b.domain_tag

    def test_reload_keeps_keys_bit_for_bit(self, tmp_path):
        # Normalizing an already unit key again moves its last bits for
        # about a third of 48-d keys; a reload must not.
        pool = make_pool(capacity=64, merge_threshold=1.0)
        rng = np.random.default_rng(5)
        for i in range(64):
            pool.insert(rng.normal(size=48), prompt(), timestamp=i, agent_id="a")
        path = tmp_path / "pool.jsonl"
        pool.save(path)
        loaded = PromptPool.load(path)
        assert [e.entry_id for e in loaded.entries()] == [e.entry_id for e in pool.entries()]
        for a, b in zip(pool.entries(), loaded.entries()):
            assert np.array_equal(a.key, b.key)

    @pytest.mark.parametrize("key", [[2.0, 0.0], [0.6, 0.6], [0.0, 0.0], [1.0, np.nan],
                                     [np.inf, 0.0], [1.0 + 1e-6, 0.0]])
    def test_stored_key_must_be_finite_and_unit(self, key):
        d = {**PoolEntry(0, unit([1.0, 0.0]), prompt(), 0, "a").to_dict(), "key": key}
        with pytest.raises(PoolFormatError, match="unit vector"):
            PoolEntry.from_dict(d)

    @pytest.mark.parametrize("field, value, named", [
        ("key", 5, "pool entry key must be a base64 string"),
        ("key", "AAAA", "pool entry key holds 3 bytes"),
        ("key", [True], "pool entry key must be a base64 string"),
        ("rows", "1", "pool entry value: token prompt rows"),
        ("dtype", "f64", "pool entry value: "),
    ])
    def test_malformed_field_is_a_pool_format_error(self, field, value, named):
        d = PoolEntry(0, unit([1.0, 0.0]), prompt(), 0, "a").to_dict()
        (d if field == "key" else d["value"])[field] = value
        with pytest.raises(PoolFormatError, match=f"^{named}"):
            PoolEntry.from_dict(d)

    def test_huge_stored_key_rejected_with_its_true_norm(self):
        d = {**PoolEntry(0, unit([1.0] * 48), prompt(), 0, "a").to_dict(),
             "key": [1e200] * 48}
        with pytest.raises(PoolFormatError, match=r"got norm 6\.928203230275\d*e\+200"):
            PoolEntry.from_dict(d)

    def test_stored_key_within_tolerance_kept_as_is(self):
        key = [0.6, 0.8 + 1e-12]
        d = {**PoolEntry(0, unit([1.0, 0.0]), prompt(), 0, "a").to_dict(), "key": key}
        assert PoolEntry.from_dict(d).key.tolist() == key

    def test_deferred_snapshot_save_load_save_is_byte_identical(self, tmp_path):
        # Normalizing an already unit key again moves its last bits for
        # about a third of 48-d keys; a reload must keep them.
        pool = make_pool(capacity=100, merge_threshold=1.0)
        rng = np.random.default_rng(6)
        for i in range(100):
            pool.insert(rng.normal(size=48), DeferredMarker(f"uav-{i}"),
                        timestamp=i, agent_id=f"uav-{i}")
        pool.refine()
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        pool.save(first)
        assert json.loads(first.read_text().splitlines()[1])["deferred"] == {"agent_id": "uav-0"}
        loaded = PromptPool.load(first)
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()
        for a, b in zip(pool.entries(), loaded.entries()):
            assert np.array_equal(a.key, b.key) and a.value == b.value

    @pytest.mark.parametrize("query", [[0.6, 0.8], [2.0, 0.0], [1.0, np.nan], "AAAA", None])
    def test_old_deferred_query_is_not_read(self, query):
        # Markers once carried a copy of the key as their query.
        d = PoolEntry(0, unit([1.0, 0.0]), DeferredMarker("a"), 0, "a").to_dict()
        d["deferred"]["query"] = query
        assert PoolEntry.from_dict(d).to_dict() == {**d, "deferred": {"agent_id": "a"}}

    def test_snapshot_is_one_json_object_per_line(self, tmp_path):
        pool = make_pool()
        pool.insert(np.array([1.0, 0.0]), prompt(), timestamp=3, agent_id="a")
        path = tmp_path / "pool.jsonl"
        pool.save(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"next_id": 1}
        obj = json.loads(lines[1])
        assert set(obj) == {"entry_id", "key", "value", "timestamp", "agent_id", "domain_tag",
                            "last_retrieved"}

    def test_reload_does_not_reissue_evicted_ids(self, tmp_path):
        pool = make_pool(capacity=1, merge_threshold=1.0)
        pool.insert(unit([1.0, 0.0]), prompt(), timestamp=0, agent_id="a")
        pool.refine()
        pool.insert(unit([1.0, 1.0]), prompt(), timestamp=1, agent_id="a")
        pool.query_topn(unit([1.0, 0.0]), n=1)  # id 0 is used after id 1 arrives
        path = tmp_path / "pool.jsonl"
        pool.save(path)  # capacity 1: id 1, the less recently used, is evicted
        loaded = PromptPool.load(path)
        assert [e.entry_id for e in loaded.entries()] == [0]
        assert loaded.insert(unit([0.0, 1.0]), prompt(), timestamp=2, agent_id="a").entry_id == 2

    def test_empty_snapshot_keeps_the_mark(self, tmp_path):
        pool = make_pool()
        pool.insert(unit([1.0, 0.0]), prompt(), timestamp=0, agent_id="a")
        pool.drop(0)
        path = tmp_path / "pool.jsonl"
        pool.save(path)
        assert PromptPool.load(path).insert(unit([1.0, 0.0]), prompt(), 1, "a").entry_id == 1

    def test_blank_lines_anywhere_load_to_the_same_snapshot(self, tmp_path):
        # The mark is read from the first non-blank line; id 2 is dropped, so
        # only the mark keeps it from being reissued.
        pool = make_pool()
        for i, key in enumerate(([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])):
            pool.insert(unit(key), prompt(), timestamp=i, agent_id="a")
        pool.drop(2)
        path = tmp_path / "pool.jsonl"
        pool.save(path)
        saved = path.read_bytes()
        mark, *entries = saved.decode().splitlines()
        assert mark == '{"next_id":3}' and len(entries) == 2
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("\n" + mark + "\n \n" + entries[0] + "\n\n\t\n" + entries[1] + "\n\n")
        loaded = PromptPool.load(spaced)
        loaded.save(tmp_path / "resaved.jsonl")
        assert (tmp_path / "resaved.jsonl").read_bytes() == saved
        assert loaded.insert(unit([0.0, 1.0]), prompt(), 3, "a").entry_id == 3

    @pytest.mark.parametrize("mark, message", [
        ('{"next_id":0}', "not below next_id 0"),
        ('{"next_id":-1}', "non-negative"),
        ('{"next_id":1.5}', "non-negative"),
    ])
    def test_malformed_mark_is_typed(self, tmp_path, mark, message):
        path = tmp_path / "pool.jsonl"
        entry = json.dumps(PoolEntry(0, unit(np.ones(2)), prompt(), 0, "a").to_dict())
        path.write_text(f"{mark}\n{entry}\n")
        with pytest.raises(PoolFormatError, match=message) as err:
            PromptPool.load(path)
        assert err.value.line == (2 if "below" in message else 1)

    def test_repeated_entry_id_is_typed(self, tmp_path):
        # Two lines holding one id would load as two entries under that id,
        # and a drop of the id would then remove both.
        pool = make_pool()
        for i, key in enumerate(([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])):
            pool.insert(unit(key), prompt(), timestamp=i, agent_id="a")
        path = tmp_path / "pool.jsonl"
        pool.save(path)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["entry_id"] for line in lines[1:]] == [0, 1, 2]
        path.write_text("\n".join(lines[:3] + [lines[2]] + lines[3:]) + "\n")
        with pytest.raises(PoolFormatError, match=r"line 4: entry_id 1 is already on line 3") \
                as err:
            PromptPool.load(path)
        assert err.value.line == 4

    def test_snapshot_without_recency_falls_back_to_timestamp(self, tmp_path):
        # Snapshots written before last_retrieved was persisted, and wire
        # entries, carry only the insertion timestamp.
        path = tmp_path / "pool.jsonl"
        path.write_text(json.dumps(PoolEntry(0, unit(np.ones(2)), prompt(), 7, "a").to_dict())
                        + "\n")
        loaded = PromptPool.load(path)
        assert loaded._last[:1].tolist() == [7] and loaded._clock == 7
        # Without a next_id line, ids continue after the largest stored one,
        # and the clock after the largest stamp.
        assert loaded.insert(unit([1.0, 0.0]), prompt(), 0, "a").entry_id == 1
        loaded.refine()
        assert loaded._last[:2].tolist() == [7, 8]

    @pytest.mark.parametrize("stamp", [{"last_retrieved": 2**62}, {"timestamp": 2**63 - 1}])
    def test_stamp_without_room_for_the_clock_is_typed(self, tmp_path, stamp):
        path = tmp_path / "pool.jsonl"
        line = {**PoolEntry(0, unit(np.ones(2)), prompt(), 7, "a").to_dict(), **stamp}
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(PoolFormatError, match=r"line 1: .* is not below 2\*\*62"):
            PromptPool.load(path)
        line["last_retrieved"] = 2**62 - 1  # the clock's last tick fits int64
        path.write_text(json.dumps(line) + "\n")
        pool = PromptPool.load(path)
        pool.insert(unit([1.0, 0.0]), prompt(), 0, "a")
        pool.refine()
        assert pool._last[:2].tolist() == [2**62 - 1, 2**62]

    def test_snapshot_line_is_json_of_to_dict(self, tmp_path):
        # One number format: prompt values at stored precision, keys as the
        # base64 of their float64 bytes, as on the wire.
        pool = make_pool()
        rng = np.random.default_rng(11)
        for i, dtype in enumerate(("f32", "f16")):
            pool.insert(rng.normal(size=4), TokenPrompt(rng.normal(size=(2, 4)), dtype=dtype),
                        timestamp=i, agent_id="a")
        path = tmp_path / "pool.jsonl"
        pool.save(path)
        expected = ['{"next_id":2}'] + [
            json.dumps({**e.to_dict(), "key": vector_text(e.key), "last_retrieved": stamp},
                       separators=(",", ":")) for stamp, e in enumerate(pool.entries(), 1)]
        assert path.read_text().splitlines() == expected

    def test_legacy_17_digit_snapshot_loads_identical_prompts(self, tmp_path):
        rng = np.random.default_rng(12)
        entry = PoolEntry(0, unit(rng.normal(size=6)),
                          TokenPrompt(rng.normal(scale=0.05, size=(4, 6))), 5, "a")
        legacy = {**entry.to_dict(), "value": {
            "rows": 4, "dim": 6, "values": [float(x) for x in entry.value.values.ravel()],
            "dtype": "f32"}}
        assert legacy["value"] != entry.to_dict()["value"]  # the old text is longer
        path = tmp_path / "pool.jsonl"
        path.write_text(json.dumps(legacy, separators=(",", ":")) + "\n")
        loaded = PromptPool.load(path).get(0)
        assert loaded.value == entry.value

    @pytest.mark.parametrize("bad_line", [
        '{"entry_id": 1}',
        "not json",
        json.dumps({"entry_id": 1, "key": [1.0, 0.0], "timestamp": 0, "agent_id": "a",
                    "value": {"rows": 2, "dim": 4, "values": [1.0] * 7, "dtype": "f32"}}),
        json.dumps({"entry_id": 1, "key": [1.0, 0.0], "timestamp": 0, "agent_id": "a",
                    "last_retrieved": 2.5,
                    "value": {"rows": 1, "dim": 4, "values": [1.0] * 4, "dtype": "f32"}}),
    ])
    def test_malformed_line_names_its_number(self, tmp_path, bad_line):
        pool = make_pool()
        pool.insert(np.array([1.0, 0.0]), prompt(), timestamp=0, agent_id="a")
        path = tmp_path / "pool.jsonl"
        pool.save(path)
        path.write_text(path.read_text() + bad_line + "\n")  # after the mark and the entry
        with pytest.raises(PoolFormatError, match="line 3") as err:
            PromptPool.load(path)
        assert err.value.line == 3
        assert isinstance(err.value, AdaptflyError)

    @pytest.mark.parametrize("bad_line", [
        pytest.param(b'{"entry_id": ' + b"1" * 5000 + b"}", id="beyond-int-digits"),
        pytest.param(b"[" * 100000, id="deep-nesting"),
        pytest.param(b'{"agent_id": "\xff"}', id="invalid-utf8"),
    ])
    def test_line_beyond_the_parser_names_its_number(self, tmp_path, bad_line):
        pool = make_pool()
        pool.insert(np.array([1.0, 0.0]), prompt(), timestamp=0, agent_id="a")
        path = tmp_path / "pool.jsonl"
        pool.save(path)
        path.write_bytes(path.read_bytes() + bad_line + b"\n")
        with pytest.raises(PoolFormatError, match=f"{path} line 3: ") as err:
            PromptPool.load(path)
        assert err.value.line == 3

    def test_key_dimension_mismatch_across_lines(self, tmp_path):
        lines = [
            json.dumps(PoolEntry(i, unit(np.ones(d)), prompt(), 0, "a").to_dict())
            for i, d in enumerate((2, 3))
        ]
        path = tmp_path / "pool.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PoolFormatError, match="line 2.*dimension 3.*dimension 2"):
            PromptPool.load(path)


# -- snapshots written before vectors travelled as base64 ----------------------

# Written by PromptPool.save when keys and deferred queries were decimal lists:
# four entries over 8-d keys (f32 and f16 prompts, one deferred), id 0
# evicted, so the next_id line (5) is what keeps ids from being reissued.
LEGACY_SNAPSHOT = Path(__file__).resolve().parent / "data" / "pool_decimal_keys.jsonl"


class TestLegacySnapshot:
    def lines(self) -> list[dict]:
        return [json.loads(line) for line in LEGACY_SNAPSHOT.read_text().splitlines()]

    def test_decimal_vectors_load_bit_for_bit(self):
        mark, *stored = self.lines()
        pool = PromptPool.load(LEGACY_SNAPSHOT)
        assert mark == {"next_id": 5} and pool._next_id == 5
        assert [e.entry_id for e in pool.entries()] == [d["entry_id"] for d in stored]
        assert sum("deferred" in d for d in stored) == 1
        for d, e in zip(stored, pool.entries()):
            assert e.key.tobytes() == np.array(d["key"]).tobytes()
            if "deferred" in d:
                assert e.value == DeferredMarker(d["deferred"]["agent_id"])
            else:
                assert e.value == TokenPrompt.from_dict(d["value"])
        stamps = [d["last_retrieved"] for d in stored]
        assert pool._last[: len(stored)].tolist() == stamps and pool._clock == max(stamps)

    def test_load_save_load_changes_no_entry_and_no_ranking(self, tmp_path):
        first = PromptPool.load(LEGACY_SNAPSHOT)
        path = tmp_path / "resaved.jsonl"
        first.save(path)
        assert "[" not in path.read_text().split('"key":')[1].split(",")[0]  # now base64
        second = PromptPool.load(path)
        assert [e.to_dict() for e in second.entries()] == [e.to_dict() for e in first.entries()]
        assert second._last[:4].tolist() == first._last[:4].tolist()
        second.save(tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = rng.normal(size=8)
            assert ([e.entry_id for e in first.query_topn(q, 3)]
                    == [e.entry_id for e in second.query_topn(q, 3)])


# -- equivalence with the per-entry loops ---------------------------------------


class ReferencePool:
    """The pool as plain loops over its entries: the definition the key matrix
    must reproduce (ranking, merge target, eviction order, snapshot reload).
    Recency is a dict of stamps from one clock that inserts and queries tick."""

    def __init__(self, config: PoolConfig):
        self.config = config
        self.refined: list[PoolEntry] = []
        self.pending: list[PoolEntry] = []
        self.last: dict[int, int] = {}
        self.clock = 0
        self.next_id = 0

    @staticmethod
    def unit(key):
        key = np.asarray(key, dtype=np.float64).ravel()
        return key / float(np.linalg.norm(key))

    def insert(self, key, value, timestamp, agent_id):
        self.clock += 1
        self.last[self.next_id] = self.clock
        self.pending.append(PoolEntry(self.next_id, self.unit(key), value, timestamp, agent_id))
        self.next_id += 1

    def query_topn(self, q, n):
        self.clock += 1
        qn = self.unit(q)
        sims = [float(qn @ e.key) for e in self.refined]
        order = sorted(range(len(self.refined)),
                       key=lambda i: (-sims[i], self.refined[i].entry_id))
        hits = [self.refined[i] for i in order[: max(0, n)]]
        for e in hits:
            self.last[e.entry_id] = self.clock
        return [e.entry_id for e in hits]

    def refine(self):
        eta = self.config.merge_weight
        pending = sorted(self.pending, key=lambda e: (e.timestamp, e.entry_id))
        self.pending = []
        for entry in pending:
            if self.refined:
                sims = [float(entry.key @ e.key) for e in self.refined]
                idx = int(np.argmax(sims))
                old = self.refined[idx]
                if (sims[idx] >= self.config.merge_threshold
                        and not old.is_deferred and not entry.is_deferred
                        and old.value.values.shape == entry.value.values.shape):
                    self.refined[idx] = PoolEntry(
                        old.entry_id,
                        self.unit((1.0 - eta) * old.key + eta * entry.key),
                        TokenPrompt((1.0 - eta) * np.asarray(old.value.values, dtype=np.float64)
                                    + eta * np.asarray(entry.value.values, dtype=np.float64),
                                    dtype=old.value.dtype),
                        max(old.timestamp, entry.timestamp),
                        ",".join(sorted(set(old.agent_id.split(","))
                                        | set(entry.agent_id.split(",")))))
                    self.last[old.entry_id] = max(self.last[old.entry_id],
                                                  self.last[entry.entry_id])
                    continue
            self.refined.append(entry)
        while len(self.refined) > self.config.capacity:
            victim = min(self.refined,
                         key=lambda e: (self.last[e.entry_id], e.timestamp, e.entry_id))
            self.refined.remove(victim)

    def drop(self, entry_id):
        self.refined = [e for e in self.refined if e.entry_id != entry_id]
        self.pending = [e for e in self.pending if e.entry_id != entry_id]

    def reload(self):
        """save() then load(): refine, sort by id, keep recency stamps, keys
        and the next id, so no id is handed out twice; the clock resumes
        after the largest stamp kept."""
        self.refine()
        self.refined.sort(key=lambda e: e.entry_id)
        self.clock = max((self.last[e.entry_id] for e in self.refined), default=0)


def assert_same_pool(pool: PromptPool, ref: ReferencePool):
    got = pool.entries()
    want = ref.refined + ref.pending
    assert [e.entry_id for e in got] == [e.entry_id for e in want]
    assert pool.refined_size == len(ref.refined)
    for a, b in zip(got, want):
        assert np.max(np.abs(a.key - b.key)) <= 1e-12
        assert a.timestamp == b.timestamp and a.agent_id == b.agent_id
        assert a.is_deferred == b.is_deferred
        if not a.is_deferred:
            assert a.value == b.value
    stamps = pool._last[: pool.refined_size].tolist() + [s for _, s in pool._pending.values()]
    assert stamps == [ref.last[e.entry_id] for e in want]
    assert pool._clock == ref.clock


OPS = ("insert",) * 6 + ("refine", "query", "query", "drop", "reload")


class TestMatrixEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 80),
        capacity=st.integers(1, 24),
        threshold=st.sampled_from([0.5, 0.9, 0.999, 1.0]),
        dim=st.sampled_from([2, 3, 5, 16, 48]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loops(self, tmp_path_factory, seed, steps, capacity, threshold,
                                     dim):
        rng = np.random.default_rng(seed)
        ops = rng.choice(OPS, size=steps)
        # A small palette of directions: repeats are exact ties, rescaled
        # repeats differ from them in the last bits.
        palette = rng.normal(size=(6, dim))
        config = PoolConfig(capacity=capacity, merge_threshold=threshold, merge_weight=0.3)
        pool, ref = PromptPool(config), ReferencePool(config)
        path = tmp_path_factory.mktemp("pool") / "pool.jsonl"
        for t, op in enumerate(ops):
            if op == "insert":
                key = palette[rng.integers(6)] * rng.choice([1.0, 1.0, 3.0, 1e-3])
                if rng.random() < 0.3:
                    key = key + rng.normal(scale=1e-3, size=dim)
                if rng.random() < 0.3:
                    value = DeferredMarker("d")
                else:
                    value = prompt(rows=int(rng.integers(1, 4)), dim=2,
                                   fill=float(rng.integers(0, 4)))
                stamp = int(rng.integers(0, 8))
                agent = f"a{rng.integers(3)}"
                pool.insert(key, value, timestamp=stamp, agent_id=agent)
                ref.insert(key, value, stamp, agent)
            elif op == "refine":
                pool.refine()
                ref.refine()
            elif op == "query":
                if not pool.size:
                    continue
                q = palette[rng.integers(6)] + rng.normal(scale=rng.choice([0.0, 0.5]),
                                                         size=dim)
                n = int(rng.integers(0, 5))
                got = [e.entry_id for e in pool.query_topn(q, n)]
                assert got == ref.query_topn(q, n)
            elif op == "drop":
                victim = int(rng.integers(0, max(ref.next_id, 1)))
                pool.drop(victim)
                ref.drop(victim)
            else:
                pool.save(path)
                pool = PromptPool.load(path, config)
                ref.reload()
            assert_same_pool(pool, ref)
            assert all(pool.get(e.entry_id) is e for e in pool.entries())
            # The key matrix mirrors the refined entries row for row, in float32.
            refined = pool.entries()[: pool.refined_size]
            assert np.array_equal(pool._keys[: len(refined)].reshape(-1, dim),
                                  np.array([e.key for e in refined],
                                           dtype=np.float32).reshape(-1, dim))


class TestStampMirrors:
    """The id, timestamp and recency mirrors follow every change to the pool."""

    @pytest.mark.parametrize("seed", range(4))
    def test_mirrors_match_the_entries(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        config = PoolConfig(capacity=5, merge_threshold=0.9, merge_weight=0.3)
        pool = PromptPool(config)
        palette = rng.normal(size=(4, 3))
        seen = {"merges": 0, "evictions": 0}
        for t in range(200):
            op = rng.choice(OPS)
            hits = []
            if op == "insert":
                key = palette[rng.integers(4)] + rng.normal(scale=0.05, size=3)
                value = DeferredMarker("d") if rng.random() < 0.2 else prompt(dim=2)
                pool.insert(key, value, timestamp=int(rng.integers(0, 50)), agent_id="a")
            elif op == "refine":
                before = pool.size
                pool.refine()
                seen["evictions"] += before > config.capacity
                seen["merges"] += pool.size < min(before, config.capacity)
            elif op == "query" and pool.size:
                hits = pool.query_topn(palette[rng.integers(4)], int(rng.integers(1, 4)))
            elif op == "drop":
                ids = [e.entry_id for e in pool.entries()]
                pool.drop(int(rng.choice(ids)) if ids else 0)
            elif op == "reload":
                pool.save(tmp_path / "pool.jsonl")
                pool = PromptPool.load(tmp_path / "pool.jsonl", config)
            refined = pool.entries()[: pool.refined_size]
            n = len(refined)
            assert pool._ids[:n].tolist() == [e.entry_id for e in refined]
            assert pool._times[:n].tolist() == [e.timestamp for e in refined]
            assert all(pool.get(e.entry_id) is e for e in pool.entries())
            assert int(pool._last[:n].max(initial=0)) <= pool._clock
            stamped = {e.entry_id for e in hits}
            assert all(pool._last[i] == pool._clock for i in range(n)
                       if pool._ids[i] in stamped)
        assert min(seen.values()) > 0, seen


def assert_mirrors(pool: PromptPool, stamps: list[int]):
    """Every mirror row matches the refined entry at the same list index."""
    refined = pool.entries()[: pool.refined_size]
    n = len(refined)
    assert pool._ids[:n].tolist() == [e.entry_id for e in refined]
    assert pool._times[:n].tolist() == [e.timestamp for e in refined]
    assert pool._last[:n].tolist() == stamps
    assert np.array_equal(pool._keys[:n],
                          np.array([e.key for e in refined], dtype=np.float32).reshape(n, -1))


def near_tie_pool(rng, dim: int, size: int, gap: float):
    """A refined pool whose keys' float64 similarities to a unit query lie a
    few multiples of ``gap`` apart, with exact duplicate keys; the query."""
    q = memory_mod._unit(rng.normal(size=dim))
    c = rng.uniform(0.2, 0.9)
    keys = []
    for _ in range(size):
        if keys and rng.random() < 0.2:
            keys.append(keys[rng.integers(len(keys))])
            continue
        r = rng.normal(size=dim)
        r -= (r @ q) * q
        r /= np.linalg.norm(r)
        ci = c + gap * rng.integers(-3, 4)
        keys.append(ci * q + np.sqrt(1.0 - ci * ci) * r)
    pool = make_pool(capacity=64)  # deferred entries never merge
    for key in keys:
        pool.insert(key, DeferredMarker("a"), timestamp=int(rng.integers(0, 3)), agent_id="a")
    pool.refine()
    return pool, q


class TestFloat32Screen:
    """The float32 key mirror only screens: rankings and merge targets are
    the per-row float64 dot's, ties by entry id (or list order)."""

    def test_near_ties_rank_as_the_per_row_dot(self):
        # Similarities 1e-12 to 1e-6 apart, below float32 resolution, reorder
        # in the float32 screen; a tolerance of 4 * d * eps64 drops a true
        # top-n row in many of these cases, 4 * d * eps32 in none.
        rng = np.random.default_rng(11)
        tight = 4 * np.finfo(np.float64).eps
        missed = 0
        for dim in (3, 16, 48):
            for size in range(2, 41, 3):
                for gap in (1e-12, 1e-9, 1e-8, 1e-7, 1e-6):
                    pool, q = near_tie_pool(rng, dim, size, gap)
                    refined, qn = pool.entries(), memory_mod._unit(q)  # as query_topn scales q
                    exact = [float(qn @ e.key) for e in refined]
                    screened = (np.array([e.key for e in refined], dtype=np.float32)
                                @ qn.astype(np.float32))
                    best = int(np.argmax(exact))  # first max: earliest in list order
                    assert pool._merge_target(PoolEntry(-1, qn, DeferredMarker("b"), 0, "b")) \
                        == (best, exact[best]), (dim, size, gap)
                    for n in range(1, 6):
                        want = sorted(range(len(refined)),
                                      key=lambda i: (-exact[i], refined[i].entry_id))[:n]
                        got = [e.entry_id for e in pool.query_topn(q, n)]
                        assert got == [refined[i].entry_id for i in want], (dim, size, gap, n)
                        floor = np.sort(screened)[-len(want)]
                        missed += any(screened[i] < floor - tight * dim for i in want)
        assert missed > 0  # the data holds cases that a float64 tolerance gets wrong

    def test_a_large_pool_rescores_a_handful_of_rows(self):
        # Shaped like the benchmark's pool service: 2,000 random unit keys
        # and 8 clusters of 4. A tolerance that rescans the pool would cost
        # a per-row dot for many rows on every query.
        rng = np.random.default_rng(3)
        pool = make_pool(capacity=4096)
        centres = rng.normal(size=(8, 48))
        keys = [*rng.normal(size=(2000, 48)),
                *(c + rng.normal(scale=0.05, size=48) for c in centres for _ in range(4))]
        for key in keys:
            pool.insert(key, DeferredMarker("a"), timestamp=0, agent_id="a")
        pool.refine()
        assert pool.refined_size == 2032
        for t in range(64):
            q = centres[t % 8] + rng.normal(scale=0.05, size=48) if t % 2 else rng.normal(size=48)
            for n in (1, 2, 5):
                rows, _ = pool._near_best(memory_mod._unit(q), n)
                assert n <= len(rows) <= n + 2, (t, n, len(rows))


class TestPartialEviction:
    """Eviction sorts only the rows that can be victims and compacts only the
    tail: victims, list order and mirrors are those of a full sort."""

    @pytest.mark.parametrize("seed", range(40))
    def test_victims_match_a_full_sort(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        capacity, excess, dim = int(rng.integers(1, 30)), int(rng.integers(1, 5)), 4
        # Restored entries with tied recency stamps and tied timestamps.
        path = tmp_path / "pool.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for i in range(capacity):
                e = PoolEntry(i, memory_mod._unit(rng.normal(size=dim)), DeferredMarker("a"),
                              int(rng.integers(0, 3)), "a")
                f.write(compact_json({**e.wire_dict(), "last_retrieved": int(rng.integers(0, 4))})
                        + "\n")
        pool = PromptPool.load(path, PoolConfig(capacity=capacity))
        for _ in range(excess):
            pool.insert(rng.normal(size=dim), DeferredMarker("a"),
                        timestamp=int(rng.integers(0, 3)), agent_id="a")
        for _ in range(int(rng.integers(0, 4))):  # newer stamps, tied among each query's hits
            pool.query_topn(rng.normal(size=dim), int(rng.integers(1, 6)))
        r = pool.refined_size
        before = list(zip(pool.entries()[:r], pool._last[:r].tolist()))
        before += sorted(pool._pending.values(), key=lambda p: (p[0].timestamp, p[0].entry_id))
        victims = sorted(before, key=lambda p: (p[1], p[0].timestamp, p[0].entry_id))[:excess]
        kept = [p for p in before if p not in victims]
        pool.refine()
        assert pool.entries() == [e for e, _ in kept]
        assert_mirrors(pool, [stamp for _, stamp in kept])

    def test_ties_on_stamp_and_timestamp_evict_the_lower_id_first(self):
        # Rows fold in (timestamp, id) order, so id 1 precedes id 0 in the
        # list; a merge then ties their timestamps and a query their stamps.
        pool = make_pool(capacity=2)
        e0, e1, e2 = np.eye(3)
        pool.insert(e1, prompt(dim=3), timestamp=2, agent_id="a")  # id 0
        pool.insert(e0, prompt(dim=3), timestamp=1, agent_id="a")  # id 1
        pool.refine()
        assert [e.entry_id for e in pool.entries()] == [1, 0]
        pool.insert(e0, prompt(dim=3), timestamp=2, agent_id="b")  # merges into id 1
        pool.query_topn(e0 + e1, 2)
        pool.insert(e2, DeferredMarker("a"), timestamp=5, agent_id="a")
        pool.refine()
        assert [e.entry_id for e in pool.entries()] == [1, 3]

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_drop_keeps_order_and_mirrors(self, where):
        rng = np.random.default_rng(2)
        pool = make_pool(capacity=16)
        for i in range(9):
            pool.insert(rng.normal(size=4), DeferredMarker("a"), timestamp=i, agent_id="a")
        pool.refine()
        entries, stamps = pool.entries(), pool._last[:9].tolist()
        row = {"first": 0, "middle": 4, "last": 8}[where]
        pool.drop(entries[row].entry_id)
        assert pool.entries() == entries[:row] + entries[row + 1:]
        assert_mirrors(pool, stamps[:row] + stamps[row + 1:])
