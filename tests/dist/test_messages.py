"""Wire-protocol types: specs rebuild systems, batches plan sanely."""

import pickle

import pytest

from repro.core.hole import Hole
from repro.core.action import Action
from repro.dist.coordinator import plan_batches, plan_shard_batches
from repro.dist.messages import BatchTask, HoleSpec, PassStart, SystemSpec
from repro.mc.system import TransitionSystem
from repro.protocols.catalog import build_skeleton, skeleton_names


class TestSystemSpec:
    @pytest.mark.parametrize("name", ["figure2", "mutex", "vi", "msi-tiny"])
    def test_build_matches_catalog(self, name):
        system = SystemSpec(name).build()
        assert isinstance(system, TransitionSystem)
        assert system.name == build_skeleton(name).name

    def test_rebuild_is_deterministic(self):
        a = SystemSpec("msi-tiny").build()
        b = SystemSpec("msi-tiny").build()
        assert [rule.name for rule in a.rules] == [rule.name for rule in b.rules]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown skeleton"):
            SystemSpec("nope").build()

    def test_catalog_covers_cli_names(self):
        assert {"msi-small", "msi-large", "mutex", "figure2"} <= set(
            skeleton_names()
        )

    def test_spec_is_picklable(self):
        spec = SystemSpec("mutex", replicas=3)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestHoleSpec:
    def test_round_trip_preserves_names_and_order(self):
        hole = Hole("h", (Action("a"), Action("b"), Action("c")))
        spec = HoleSpec.from_hole(hole)
        assert spec.name == "h"
        assert spec.actions == ("a", "b", "c")
        assert spec.arity == 3
        placeholder = spec.placeholder()
        assert placeholder.name == hole.name
        assert placeholder.arity == hole.arity
        assert [a.name for a in placeholder.domain] == ["a", "b", "c"]

    def test_messages_are_picklable(self):
        spec = HoleSpec("h", ("a", "b"))
        start = PassStart(1, 0, (spec,), (((0, 1),),), ())
        task = BatchTask(0, 0, 10, fail_delta=(((0, 0),),))
        for message in (spec, start, task):
            assert pickle.loads(pickle.dumps(message)) == message


class TestPlanBatches:
    def test_covers_range_contiguously(self):
        batches = plan_batches(1000, workers=4)
        assert batches[0][0] == 0
        assert batches[-1][1] == 1000
        for (_, end), (start, _) in zip(batches, batches[1:]):
            assert end == start

    def test_batch_count_tracks_workers(self):
        batches = plan_batches(100_000, workers=4, batches_per_worker=4)
        assert len(batches) == 16

    def test_min_batch_size_floor(self):
        batches = plan_batches(40, workers=4, min_batch_size=16)
        assert all(end - start <= 16 for start, end in batches)
        assert len(batches) == 3

    def test_tiny_and_empty_spaces(self):
        assert plan_batches(1, workers=4) == [(0, 1)]
        assert plan_batches(0, workers=4) == []


class TestPlanShardBatches:
    """Batch cuts pinned exactly: they decide which candidates each
    worker sees first, so ``synth --backend processes`` behaviour
    depends on them.  Plain :func:`plan_batches` cuts differently
    (28,941 rather than 30,870 for msi-small's last pass)."""

    @pytest.mark.parametrize("radices, workers, expected", [
        # msi-small's last pass
        ([3, 5, 7, 3, 7, 5, 3, 7], 2,
         [(start, min(start + 30_870, 231_525))
          for start in range(0, 231_525, 30_870)]),
        ([3, 5, 7, 3, 7, 5, 3, 7], 4,
         [(start, start + 15_435) for start in range(0, 231_525, 15_435)]),
        ([1, 5, 7, 1, 3], 2,
         [(0, 18), (18, 36), (36, 54), (54, 72), (72, 90), (90, 105)]),
        ([2, 2], 4, [(0, 4)]),
    ])
    def test_pinned_plans(self, radices, workers, expected):
        batches = plan_shard_batches(
            radices, workers, batches_per_worker=4, min_batch_size=16
        )
        assert batches == expected

    #: (radices, workers, cut size): every plan is back-to-back cuts of
    #: the pinned size, the last one clipped at the product of the radices
    @pytest.mark.parametrize("radices, workers, size", [
        ([1, 1, 1], 1, 1), ([1, 1, 1], 3, 1),
        ([1, 100], 1, 25), ([1, 100], 3, 16),
        ([1, 5, 7, 1, 3], 1, 42), ([1, 5, 7, 1, 3], 3, 18),
        ([16, 2, 9], 1, 72), ([16, 2, 9], 3, 36),
        ([2, 2], 1, 4), ([2, 2], 3, 4),
        ([2, 3, 4, 5], 1, 40), ([2, 3, 4, 5], 3, 20),
        ([24], 1, 16), ([24], 3, 16),
        ([3, 3, 3, 3, 3, 3], 1, 243), ([3, 3, 3, 3, 3, 3], 3, 81),
        ([3, 5, 7, 3, 7, 5, 3, 7], 1, 61_740),
        ([3, 5, 7, 3, 7, 5, 3, 7], 3, 30_870),
        ([4, 4, 1, 4, 4, 4], 1, 256), ([4, 4, 1, 4, 4, 4], 3, 128),
        ([5, 1, 1, 5, 5], 1, 50), ([5, 1, 1, 5, 5], 3, 20),
        ([7, 7, 7], 1, 98), ([7, 7, 7], 3, 35),
    ])
    def test_pinned_cut_sizes(self, radices, workers, size):
        total = 1
        for radix in radices:
            total *= radix
        batches = plan_shard_batches(
            radices, workers, batches_per_worker=4, min_batch_size=16
        )
        assert batches == [
            (start, min(start + size, total))
            for start in range(0, total, size)
        ]
