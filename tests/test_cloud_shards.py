"""Bit-identity and lifecycle tests for the sharded MDB plane.

The sharded plane's contract is absolute: scattering a query across
independently compiled shards and merging the per-shard top-K must be
**bit-identical** to searching the whole store compiled as one shard
(the "monolithic" plane, ``shard_slices=len(slices)``) — same matches,
same admission order, same statistics, ``slices_pruned`` included —
across every two-stage mode and engine, and bit-identical to the
scalar oracle when two-stage search is off.  The hypothesis suites
here are the gate: random shard widths, insert sequences and frame
lengths all funnel through the same equality, and a stateful machine
interleaves inserts, refreshes, pins and (batched) searches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cloud import search as search_module
from repro.cloud.parallel import ParallelSearch
from repro.cloud.search import (
    ExhaustiveSearch,
    SearchConfig,
    SlidingWindowSearch,
)
from repro.cloud.shards import ShardedSearchPlane
from repro.errors import SearchError
from repro.mdb.mdb import MegaDatabase
from repro.mdb.schema import SLICE_COLLECTION, slice_to_document
from repro.signals.types import AnomalyType, SignalSlice


def _random_slices(seed, n=12, min_len=150, max_len=700):
    rng = np.random.default_rng(seed)
    return [
        SignalSlice(
            data=rng.standard_normal(int(rng.integers(min_len, max_len))),
            label=AnomalyType.SEIZURE if i % 3 == 0 else AnomalyType.NONE,
            slice_id=f"r{seed}-{i}",
        )
        for i in range(n)
    ]


def _query(seed, samples=256):
    return np.random.default_rng(seed + 10_000).standard_normal(samples)


def _mdb_from(slices):
    mdb = MegaDatabase()
    for sig_slice in slices:
        mdb.insert_document(
            slice_to_document(sig_slice, dataset="test", channel="Fp1")
        )
    return mdb


def _one_shard(slices):
    """The whole store compiled as a single shard."""
    return ShardedSearchPlane(slices, shard_slices=len(slices))


def _key(result):
    return [(m.sig_slice.slice_id, m.omega, m.offset) for m in result.matches]


def _assert_identical(sharded_result, mono_result):
    assert _key(sharded_result) == _key(mono_result)
    assert (
        sharded_result.correlations_evaluated
        == mono_result.correlations_evaluated
    )
    assert (
        sharded_result.candidates_above_threshold
        == mono_result.candidates_above_threshold
    )
    assert sharded_result.slices_searched == mono_result.slices_searched
    assert sharded_result.heap_admissions == mono_result.heap_admissions
    assert sharded_result.slices_pruned == mono_result.slices_pruned


class TestBitIdentity:
    @given(
        seed=st.integers(0, 10_000),
        shard_slices=st.integers(1, 6),
        split=st.integers(1, 15),
        samples=st.sampled_from([128, 256, 384]),
        two_stage=st.sampled_from(["off", "fast"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_sharded_equals_monolithic_after_inserts(
        self, seed, shard_slices, split, samples, two_stage
    ):
        """The gate: grow an MDB after the initial compile, delta-refresh,
        and demand bit-identity with a from-scratch one-shard plane."""
        slices = _random_slices(seed, n=16)
        mdb = _mdb_from(slices[:split])
        sharded = ShardedSearchPlane(mdb, shard_slices=shard_slices)
        for sig_slice in slices[split:]:
            mdb.insert_document(
                slice_to_document(sig_slice, dataset="test", channel="Fp1")
            )
        if split < len(slices):
            assert sharded.refresh()
        engine = SlidingWindowSearch(
            SearchConfig(two_stage=two_stage, frame_samples=samples)
        )
        frame = _query(seed, samples)
        mono = engine.search(frame, _one_shard(slices))
        _assert_identical(engine.search(frame, sharded), mono)
        sharded.close()

    @given(
        seed=st.integers(0, 10_000),
        shard_slices=st.integers(1, 5),
        two_stage=st.sampled_from(["off", "fast"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_batch_path_equals_monolithic(self, seed, shard_slices, two_stage):
        slices = _random_slices(seed, n=10)
        sharded = ShardedSearchPlane(slices, shard_slices=shard_slices)
        engine = SlidingWindowSearch(SearchConfig(two_stage=two_stage))
        frames = [_query(seed + i) for i in range(3)]
        batch = engine.search_batch(frames, sharded)
        mono_plane = _one_shard(slices)
        for frame, got in zip(frames, batch):
            _assert_identical(got, engine.search(frame, mono_plane))
        sharded.close()

    @pytest.mark.parametrize("budget", [1, 1 << 23], ids=["over", "under"])
    def test_batch_over_position_budget_equals_per_frame(
        self, monkeypatch, budget
    ):
        """Over the joint-walk position budget a batch falls back to
        per-query walks; under it, one joint walk runs.  Either way each
        frame must answer as if it ran alone."""
        monkeypatch.setattr(search_module, "_JOINT_POSITION_BUDGET", budget)
        joint_walks = []
        joint_visit = search_module._joint_visit

        def spy(walkers):
            joint_walks.append(len(walkers))
            return joint_visit(walkers)

        monkeypatch.setattr(search_module, "_joint_visit", spy)
        # Shards wider than the straggler cutoff, so walks take rounds.
        slices = _random_slices(7, n=40)
        sharded = ShardedSearchPlane(slices, shard_slices=12)
        engine = SlidingWindowSearch(SearchConfig())
        frames = [_query(7 + i) for i in range(4)]
        batch = engine.search_batch(frames, sharded)
        assert len(joint_walks) == (0 if budget == 1 else 1)
        for frame, got in zip(frames, batch):
            _assert_identical(got, engine.search(frame, sharded))
            _assert_identical(got, engine.search(frame, slices))
        sharded.close()

    def test_exhaustive_engine_matches(self):
        slices = _random_slices(21, n=9)
        sharded = ShardedSearchPlane(slices, shard_slices=4)
        engine = ExhaustiveSearch(SearchConfig())
        frame = _query(21)
        _assert_identical(
            engine.search(frame, sharded),
            engine.search(frame, _one_shard(slices)),
        )
        sharded.close()


class TestShardLayout:
    def test_grouping_and_bases(self):
        plane = ShardedSearchPlane(
            _random_slices(3, n=10, max_len=300), shard_slices=4
        )
        epoch = plane.pin()
        assert [shard.n_slices for shard in epoch.shards] == [4, 4, 2]
        assert epoch.bases == (0, 4, 8)
        assert plane.n_shards == 3
        assert plane.n_slices == len(plane) == 10
        assert plane.registry_size == 3
        plane.close()

    def test_rejects_bad_shard_width(self):
        with pytest.raises(SearchError, match="shard_slices"):
            ShardedSearchPlane(_random_slices(3, n=2), shard_slices=0)

    def test_rejects_empty_store(self):
        with pytest.raises(SearchError, match="empty"):
            ShardedSearchPlane([])

    def test_anonymous_slices_are_not_content_addressed(self):
        anon = [
            SignalSlice(
                data=np.random.default_rng(i).standard_normal(200),
                label=AnomalyType.NONE,
                slice_id="",
            )
            for i in range(2)
        ]
        plane = ShardedSearchPlane(
            _random_slices(4, n=4, max_len=300) + anon, shard_slices=4
        )
        # The all-named shard registers; the anonymous one cannot.
        assert plane.n_shards == 2
        assert plane.registry_size == 1
        assert plane.pin().shards[1].shard_id is None
        plane.close()

    def test_duplicate_content_shards_get_private_owners(self):
        base = _random_slices(9, n=4, max_len=300)
        twins = [
            SignalSlice(
                data=s.data.copy(), label=s.label, slice_id=s.slice_id
            )
            for s in base
        ]
        plane = ShardedSearchPlane(base + twins, shard_slices=4)
        epoch = plane.pin()
        # Same digest, but each shard keeps exactly one owner for its
        # lifecycle — the duplicate is compiled privately.
        assert epoch.shards[0] is not epoch.shards[1]
        assert epoch.shards[1].shard_id is None
        assert plane.registry_size == 1
        plane.close()


class TestIncrementalCompile:
    def test_append_recompiles_only_the_trailing_shard(self):
        slices = _random_slices(5, n=8, max_len=300)
        mdb = _mdb_from(slices)
        plane = ShardedSearchPlane(mdb, shard_slices=4)
        assert plane.last_refresh_compiled == 2
        assert plane.last_refresh_reused == 0
        old_epoch = plane.pin()
        mdb.insert_document(
            slice_to_document(
                _random_slices(77, n=1, max_len=300)[0],
                dataset="test",
                channel="Fp1",
            )
        )
        assert plane.refresh()
        assert plane.last_refresh_reused == 2
        assert plane.last_refresh_compiled == 1
        new_epoch = plane.pin()
        assert new_epoch.generation == old_epoch.generation + 1
        # Reuse is by object identity: caches and all survive.
        assert new_epoch.shards[0] is old_epoch.shards[0]
        assert new_epoch.shards[1] is old_epoch.shards[1]
        assert new_epoch.shards[2].n_slices == 1
        plane.close()

    def test_refresh_without_change_is_a_noop(self):
        plane = ShardedSearchPlane(
            _mdb_from(_random_slices(6, n=5, max_len=300)), shard_slices=2
        )
        epoch = plane.pin()
        assert not plane.refresh()
        assert plane.pin() is epoch
        plane.close()

    def test_static_slice_list_never_refreshes(self):
        plane = ShardedSearchPlane(
            _random_slices(6, n=4, max_len=300), shard_slices=2
        )
        assert not plane.refresh()
        plane.close()

    def test_pinned_epoch_survives_a_mid_flight_refresh(self):
        """The satellite-1 mechanism at the core level: a reader holding
        a pinned epoch keeps getting the old generation's results even
        after a refresh installs a new epoch."""
        slices = _random_slices(8, n=6, max_len=400)
        mdb = _mdb_from(slices)
        plane = ShardedSearchPlane(mdb, shard_slices=3)
        engine = SlidingWindowSearch(SearchConfig())
        frame = _query(8)
        pinned = plane.pin()
        before = engine.search_shards(frame, pinned)
        mdb.insert_document(
            slice_to_document(
                _random_slices(88, n=1, max_len=400)[0],
                dataset="test",
                channel="Fp1",
            )
        )
        assert plane.refresh()
        # The pinned epoch is frozen at 6 slices; the plane moved on.
        assert _key(engine.search_shards(frame, pinned)) == _key(before)
        assert pinned.n_slices == 6
        assert plane.n_slices == 7
        assert engine.search(frame, plane).slices_searched >= before.slices_searched
        plane.close()


class TestShareLifecycle:
    def test_share_is_idempotent_and_delta_aware(self):
        slices = _random_slices(11, n=8, max_len=300)
        mdb = _mdb_from(slices)
        plane = ShardedSearchPlane(mdb, shard_slices=4)
        first = plane.share()
        assert len(first.specs) == 2
        assert first.bases == (0, 4)
        mdb.insert_document(
            slice_to_document(
                _random_slices(99, n=1, max_len=300)[0],
                dataset="test",
                channel="Fp1",
            )
        )
        assert plane.refresh()
        second = plane.share()
        # Reused shards keep their existing segments: a delta refresh
        # is also a delta export.
        assert second.specs[0] is first.specs[0]
        assert second.specs[1] is first.specs[1]
        assert len(second.specs) == 3
        plane.close()

    def test_close_is_idempotent_and_releases_segments(self):
        plane = ShardedSearchPlane(
            _random_slices(12, n=5, max_len=300), shard_slices=2
        )
        plane.share()
        assert all(shard._shm is not None for shard in plane.pin().shards)
        plane.close()
        assert all(shard._shm is None for shard in plane.pin().shards)
        plane.close()


class TestParallelSharded:
    def test_serial_chunks_match_monolithic(self):
        slices = _random_slices(13, n=12, min_len=200, max_len=600)
        frame = _query(13)
        mono = SlidingWindowSearch(SearchConfig()).search(
            frame, _one_shard(slices)
        )
        sharded = ShardedSearchPlane(slices, shard_slices=5)
        engine = ParallelSearch(SearchConfig(), n_chunks=3)
        engine.bind(sharded)
        _assert_identical(engine.search(frame, None), mono)
        engine.close()
        sharded.close()

    def test_pooled_workers_match_monolithic(self):
        slices = _random_slices(14, n=12, min_len=200, max_len=600)
        frame = _query(14)
        config = SearchConfig(two_stage="fast")
        mono = SlidingWindowSearch(config).search(
            frame, _one_shard(slices)
        )
        sharded = ShardedSearchPlane(slices, shard_slices=4)
        engine = ParallelSearch(config, n_chunks=3, n_workers=2)
        engine.bind(sharded)
        pooled = engine.search(frame, None)
        assert _key(pooled) == _key(mono)
        assert pooled.correlations_evaluated == mono.correlations_evaluated
        assert pooled.slices_pruned == mono.slices_pruned
        engine.close()
        sharded.close()


class ShardedPlaneMachine(RuleBasedStateMachine):
    """Inserts, refreshes, pins and (batched) searches in any order.

    One MDB grows by single-document inserts (and is edited by sample
    rewrites and deletes) under a plane of random shard width.  Every
    refresh must reproduce the MDB's current slices, and every answer
    over the pinned epoch must equal two references computed over that
    epoch's slices: a fresh one-shard compile (for both engines) and
    the scalar ``SlidingWindowSearch(SearchConfig())`` oracle (for the
    default, two-stage-off engine).  Queries are mostly planted copies of
    stored windows, so the default δ = 0.8 admits real hits.
    """

    def __init__(self) -> None:
        super().__init__()
        self.mdb = MegaDatabase()
        self.collection = self.mdb.store.collection(SLICE_COLLECTION)
        self.append_only = True
        self.inserted = 0
        # The fast engine's low δ and small top-K make the coarse screen
        # prune and the heap evict, so shard-order merge or screening
        # bugs change its answers.
        self.engines = {
            "off": SlidingWindowSearch(SearchConfig()),
            "fast": SlidingWindowSearch(
                SearchConfig(
                    two_stage="fast",
                    delta=0.1,
                    top_k=2,
                    coarse_keep_fraction=0.5,
                )
            ),
        }
        self.oracle = SlidingWindowSearch(SearchConfig())

    def _insert(self, length: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        sig_slice = SignalSlice(
            data=rng.standard_normal(length),
            label=AnomalyType.SEIZURE if seed % 3 == 0 else AnomalyType.NONE,
            slice_id=f"m{self.inserted}",
        )
        self.inserted += 1
        self.mdb.insert_document(
            slice_to_document(sig_slice, dataset="test", channel="Fp1")
        )

    def _frame(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        long_enough = [s for s in self.pinned.slices if len(s) >= 256]
        if not long_enough or seed % 4 == 0:
            return rng.standard_normal(256)
        source = long_enough[seed % len(long_enough)]
        start = int(rng.integers(0, len(source) - 256 + 1))
        window = source.data[start : start + 256]
        return 2.0 * window + 0.05 * rng.standard_normal(256) + 1.0

    def _check(self, frame: np.ndarray, results: dict) -> None:
        slices = list(self.pinned.slices)
        for mode, result in results.items():
            reference = self.engines[mode].search(frame, _one_shard(slices))
            _assert_identical(result, reference)
        oracle = self.oracle.search(frame, slices)
        _assert_identical(results["off"], oracle)

    @initialize(
        width=st.integers(1, 4),
        lengths=st.lists(st.integers(120, 700), min_size=3, max_size=8),
    )
    def build(self, width: int, lengths: list[int]) -> None:
        for length in lengths:
            self._insert(length, seed=1000 + self.inserted)
        self.plane = ShardedSearchPlane(self.mdb, shard_slices=width)
        self.pinned = self.plane.pin()
        self.pinned_count = self.pinned.n_slices

    @rule(length=st.integers(120, 700), seed=st.integers(0, 10_000))
    def insert_document(self, length: int, seed: int) -> None:
        self._insert(length, seed)

    def _pick(self, seed: int) -> str:
        ids = [document["slice_id"] for document in self.mdb.documents()]
        return ids[seed % len(ids)]

    @rule(seed=st.integers(0, 10_000))
    def rewrite_samples(self, seed: int) -> None:
        slice_id = self._pick(seed)
        length = int(np.random.default_rng(seed).integers(120, 700))
        samples = np.random.default_rng(seed + 1).standard_normal(length)
        self.collection.update_many(
            {"slice_id": slice_id}, {"$set": {"samples": samples}}
        )
        self.append_only = False

    @rule(seed=st.integers(0, 10_000))
    def delete_document(self, seed: int) -> None:
        if len(self.mdb) > 1:
            self.collection.delete_many({"slice_id": self._pick(seed)})
            self.append_only = False

    @rule()
    def refresh(self) -> None:
        before = self.plane.pin()
        changed = self.plane.refresh()
        assert changed == (self.mdb.generation != before.source_generation)
        if not changed:
            assert self.plane.pin() is before
            return
        assert self.plane.pin().generation == before.generation + 1
        if self.append_only:
            # Every full shard of the old epoch is content-identical
            # and must be reused, not recompiled.
            full = before.n_slices // self.plane.shard_slices
            assert self.plane.last_refresh_reused >= full
        current = list(self.mdb.slices())
        assert len(self.plane.slices) == len(current)
        for compiled, stored in zip(self.plane.slices, current):
            assert compiled.slice_id == stored.slice_id
            np.testing.assert_array_equal(compiled.data, stored.data)
        self.append_only = True

    @rule()
    def pin(self) -> None:
        self.pinned = self.plane.pin()
        self.pinned_count = self.pinned.n_slices

    @rule(seed=st.integers(0, 10_000))
    def search(self, seed: int) -> None:
        frame = self._frame(seed)
        self._check(
            frame,
            {
                mode: engine.search_shards(frame, self.pinned)
                for mode, engine in self.engines.items()
            },
        )

    @rule(seed=st.integers(0, 10_000), n_frames=st.integers(1, 3))
    def batch_search(self, seed: int, n_frames: int) -> None:
        frames = [self._frame(seed + i) for i in range(n_frames)]
        batches = {
            mode: engine.search_batch(frames, self.pinned)
            for mode, engine in self.engines.items()
        }
        for q, frame in enumerate(frames):
            self._check(
                frame, {mode: batch[q] for mode, batch in batches.items()}
            )

    @invariant()
    def pinned_epoch_is_frozen(self) -> None:
        if hasattr(self, "pinned"):
            assert self.pinned.n_slices == self.pinned_count

    def teardown(self) -> None:
        if hasattr(self, "plane"):
            self.plane.close()


ShardedPlaneMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=10, deadline=None
)
TestShardedPlaneMachine = ShardedPlaneMachine.TestCase
