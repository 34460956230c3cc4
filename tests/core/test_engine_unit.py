"""Engine unit tests: configuration, validation, dispatch edge cases."""

import pytest

from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.simlist import SimilarityList
from repro.core.topk import top_k_across_videos
from repro.errors import (
    HTLTypeError,
    UnsupportedFormulaError,
)
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import Video, VideoNode, flat_video
from repro.model.metadata import SegmentMetadata, make_object


def simple_video():
    return flat_video(
        "v",
        [
            SegmentMetadata(
                objects=[make_object("a", "train")],
                attributes={"kind": "x"},
            ),
            SegmentMetadata(attributes={"kind": "y"}),
            SegmentMetadata(objects=[make_object("a", "train")]),
        ],
    )


class TestConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.until_threshold == 0.5
        assert config.join_mode == "inner"
        assert not config.allow_extensions

    def test_threshold_validation(self):
        with pytest.raises(HTLTypeError):
            EngineConfig(until_threshold=0.0)
        with pytest.raises(HTLTypeError):
            EngineConfig(until_threshold=1.5)

    def test_join_mode_validation(self):
        with pytest.raises(HTLTypeError):
            EngineConfig(join_mode="sideways")


class TestValidation:
    def test_open_formula_rejected(self):
        engine = RetrievalEngine()
        with pytest.raises(HTLTypeError):
            engine.evaluate_video(parse("present(x)"), simple_video())

    def test_general_formula_rejected_by_default(self):
        engine = RetrievalEngine()
        formula = parse("(eventually kind() = 'x') or kind() = 'y'")
        with pytest.raises(UnsupportedFormulaError):
            engine.evaluate_video(formula, simple_video())

    def test_negated_temporal_rejected_in_every_mode(self):
        formula = parse("not next kind() = 'x'")
        for config in (EngineConfig(), EngineConfig(allow_extensions=True)):
            with pytest.raises(UnsupportedFormulaError):
                RetrievalEngine(config).evaluate_video(formula, simple_video())


class TestObjectUniverse:
    """The ∃-pool is built only for formulas that contain an ∃."""

    @staticmethod
    def database(n_videos=3):
        database = VideoDatabase()
        for index in range(n_videos):
            video = flat_video(
                f"v{index}",
                [
                    SegmentMetadata(objects=[make_object("a", "train")]),
                    SegmentMetadata(objects=[make_object("b", "person")]),
                    SegmentMetadata(),
                ],
            )
            database.add(video)
            for name, begin in (("P1", 1), ("P2", 2)):
                database.register_atomic(
                    name,
                    video.name,
                    SimilarityList.from_entries([((begin, 3), 1.0)], 1.0),
                )
        return database

    @staticmethod
    def count_universe_calls(monkeypatch):
        calls = []
        original = Video.object_universe

        def counted(video):
            calls.append(video.name)
            return original(video)

        monkeypatch.setattr(Video, "object_universe", counted)
        return calls

    def test_exists_free_formula_never_walks_the_universe(self, monkeypatch):
        database = self.database()
        calls = self.count_universe_calls(monkeypatch)
        result = top_k_across_videos(
            RetrievalEngine(),
            parse("$P1 and eventually $P2"),
            database,
            k=5,
            prune=False,
        )
        assert len(result) > 0
        assert calls == []

    def test_exists_formula_walks_once_per_video(self, monkeypatch):
        database = self.database()
        calls = self.count_universe_calls(monkeypatch)
        result = top_k_across_videos(
            RetrievalEngine(),
            parse("exists x . present(x)"),
            database,
            k=5,
            prune=False,
        )
        assert len(result) > 0
        assert sorted(calls) == ["v0", "v1", "v2"]


class TestAtomicResolution:
    def test_atomic_lists_parameter_overrides(self):
        video = simple_video()
        database = VideoDatabase()
        database.add(video)
        database.register_atomic(
            "P", "v", SimilarityList.from_entries([((1, 1), 1.0)], 2.0)
        )
        override = SimilarityList.from_entries([((3, 3), 2.0)], 2.0)
        engine = RetrievalEngine()
        result = engine.evaluate_video(
            parse("atomic('P')"),
            video,
            database=database,
            atomic_lists={"P": override},
        )
        assert result == override

    def test_missing_atomic_raises(self):
        engine = RetrievalEngine()
        with pytest.raises(UnsupportedFormulaError):
            engine.evaluate_video(parse("atomic('nope')"), simple_video())

    def test_atomic_conjoined_with_metadata_atom(self):
        video = simple_video()
        lists = {"P": SimilarityList.from_entries([((1, 2), 1.0)], 1.0)}
        engine = RetrievalEngine()
        result = engine.evaluate_video(
            parse("atomic('P') and kind() = 'x'"),
            video,
            atomic_lists=lists,
        )
        assert result.actual_at(1) == pytest.approx(2.0)
        assert result.actual_at(2) == pytest.approx(1.0)

    def test_atomic_under_or_inside_atom_rejected(self):
        video = simple_video()
        lists = {"P": SimilarityList.from_entries([((1, 2), 1.0)], 1.0)}
        engine = RetrievalEngine()
        with pytest.raises(UnsupportedFormulaError):
            engine.evaluate_video(
                parse("atomic('P') or kind() = 'x'"),
                video,
                atomic_lists=lists,
            )


class TestLevelDispatch:
    def three_level_video(self):
        root = VideoNode(metadata=SegmentMetadata(attributes={"kind": "root"}))
        for scene_kind in ("x", "y"):
            scene = root.add_child(
                VideoNode(
                    metadata=SegmentMetadata(attributes={"kind": scene_kind})
                )
            )
            for position in range(2):
                scene.add_child(
                    VideoNode(
                        metadata=SegmentMetadata(
                            attributes={"n": position + 1}
                        )
                    )
                )
        return Video(
            name="v3",
            root=root,
            level_names={1: "video", 2: "scene", 3: "shot"},
        )

    def test_level_above_current_rejected(self):
        video = self.three_level_video()
        engine = RetrievalEngine()
        with pytest.raises(UnsupportedFormulaError):
            engine.evaluate_video(
                parse("at_level(1, true)"), video, level=2
            )

    def test_level_beyond_depth_rejected(self):
        video = self.three_level_video()
        engine = RetrievalEngine()
        with pytest.raises(UnsupportedFormulaError):
            engine.evaluate_video(parse("at_level(9, true)"), video, level=1)

    def test_named_level(self):
        video = self.three_level_video()
        engine = RetrievalEngine()
        result = engine.evaluate_video(
            parse("at_shot_level(n() = 1)"), video, level=2
        )
        assert result.to_segment_values() == {1: 1.0, 2: 1.0}

    def test_at_level_same_level_is_identity_position(self):
        video = self.three_level_video()
        engine = RetrievalEngine()
        result = engine.evaluate_video(
            parse("at_level(2, kind() = 'y')"), video, level=2
        )
        # at-level-2 of a level-2 node looks at the node itself.
        assert result.to_segment_values() == {2: 1.0}

    def test_evaluate_at_root(self):
        video = self.three_level_video()
        engine = RetrievalEngine()
        value = engine.evaluate_at_root(
            parse("kind() = 'root' and at_scene_level(kind() = 'x')"), video
        )
        assert value.actual == pytest.approx(2.0)
        assert value.maximum == pytest.approx(2.0)


class TestCombineLists:
    def test_requires_registered_names(self):
        engine = RetrievalEngine()
        with pytest.raises(UnsupportedFormulaError):
            engine.combine_lists(parse("atomic('Q')"), {})

    def test_next_of_atomic(self):
        engine = RetrievalEngine()
        lists = {"P": SimilarityList.from_entries([((2, 4), 3.0)], 5.0)}
        result = engine.combine_lists(parse("next atomic('P')"), lists)
        assert result.to_segment_values() == {1: 3.0, 2: 3.0, 3: 3.0}

    def test_threshold_config_respected(self):
        low = RetrievalEngine(EngineConfig(until_threshold=0.1))
        high = RetrievalEngine(EngineConfig(until_threshold=0.9))
        lists = {
            "G": SimilarityList.from_entries([((1, 4), 2.5)], 5.0),
            "H": SimilarityList.from_entries([((5, 5), 4.0)], 5.0),
        }
        formula = parse("atomic('G') until atomic('H')")
        assert low.combine_lists(formula, lists).actual_at(1) == pytest.approx(4.0)
        assert high.combine_lists(formula, lists).actual_at(1) == 0.0
