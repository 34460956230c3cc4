"""Tests for the evaluation cache: hits, misses, invalidation, equality."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import EvaluationCache
from repro.core.engine import RetrievalEngine
from repro.core.simlist import SimilarityList
from repro.errors import HTLTypeError, UnsupportedFormulaError
from repro.htl import ast, parse
from repro.htl.ast import structural_key
from repro.core.tables import SimilarityTable
from repro.model.database import VideoDatabase
from repro.model.hierarchy import VideoNode, flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.workloads.synthetic import random_similarity_list

from tests.integration.strategies import (
    flat_videos,
    type1_formulas,
    type2_formulas,
)


def atomic_database(n_videos=3, n_segments=60, seed=11):
    rng = random.Random(seed)
    database = VideoDatabase()
    for position in range(n_videos):
        video = flat_video(
            f"v{position}", [SegmentMetadata() for __ in range(n_segments)]
        )
        database.add(video)
        for name in ("P1", "P2"):
            database.register_atomic(
                name, video.name, random_similarity_list(n_segments, rng=rng)
            )
    return database


class TestStructuralKey:
    def test_equal_formulas_share_keys(self):
        assert structural_key(parse("$P1 and eventually $P2")) == (
            structural_key(parse("$P1 and eventually $P2"))
        )

    def test_distinct_formulas_differ(self):
        pairs = [
            ("$P1 and $P2", "$P2 and $P1"),
            ("next $P1", "eventually $P1"),
            ("exists x . present(x)", "exists y . present(y)"),
            ("height(x) > 3", "height(x) > 30"),
        ]
        for left, right in pairs:
            assert structural_key(parse(left)) != structural_key(parse(right))

    def test_key_is_deterministic_string(self):
        key = structural_key(ast.AtomicRef("P1"))
        assert isinstance(key, str)
        assert key == "AtomicRef('P1',)"


class TestCacheCounters:
    def test_repeated_query_hits_list_cache(self):
        database = atomic_database()
        cache = EvaluationCache()
        engine = RetrievalEngine(cache=cache)
        formula = parse("$P1 and eventually $P2")
        video = database.get("v0")
        first = engine.evaluate_video(formula, video, database=database)
        assert cache.stats().list_misses == 1
        second = engine.evaluate_video(formula, video, database=database)
        assert second == first
        assert cache.stats().list_hits == 1

    def test_warm_hit_skips_validation(self, monkeypatch):
        database = atomic_database()
        engine = RetrievalEngine(cache=EvaluationCache())
        validate = engine._validate
        calls = []

        def counting_validate(formula):
            calls.append(formula)
            validate(formula)

        monkeypatch.setattr(engine, "_validate", counting_validate)
        formula = parse("$P1 and eventually $P2")
        video = database.get("v0")
        first = engine.evaluate_video(formula, video, database=database)
        assert len(calls) == 1
        assert engine.evaluate_video(formula, video, database=database) == first
        assert len(calls) == 1  # the list-cache hit was validated on store

    def test_invalid_formula_raises_with_cache(self):
        database = atomic_database()
        engine = RetrievalEngine(cache=EvaluationCache())
        video = database.get("v0")
        for text, error in (
            ("eventually present(x)", HTLTypeError),
            ("$P1 or $P2", UnsupportedFormulaError),
        ):
            for __ in range(2):  # a failed evaluation is never cached
                with pytest.raises(error):
                    engine.evaluate_video(parse(text), video, database=database)

    def test_shared_subformula_hits_table_cache(self):
        database = atomic_database()
        cache = EvaluationCache()
        engine = RetrievalEngine(cache=cache)
        engine.evaluate_video(
            parse("$P1 and eventually $P1"), database.get("v0"), database=database
        )
        # $P1 appears twice; the second occurrence must be a table hit.
        assert cache.stats().table_hits >= 1

    def test_cross_query_subformula_reuse(self):
        database = atomic_database()
        cache = EvaluationCache()
        engine = RetrievalEngine(cache=cache)
        video = database.get("v0")
        engine.evaluate_video(parse("eventually $P1"), video, database=database)
        before = cache.stats().table_hits
        engine.evaluate_video(parse("next $P1"), video, database=database)
        assert cache.stats().table_hits > before

    def test_stats_aggregates(self):
        stats = EvaluationCache().stats()
        assert stats.hits == 0
        assert stats.misses == 0
        assert stats.hit_rate == 0.0


class TestInvalidation:
    def test_register_atomic_invalidates(self):
        database = atomic_database(n_segments=40)
        cache = EvaluationCache()
        engine = RetrievalEngine(cache=cache)
        formula = parse("eventually $P1")
        video = database.get("v0")
        stale = engine.evaluate_video(formula, video, database=database)
        replacement = SimilarityList.from_entries([((2, 3), 5.0)], 20.0)
        database.register_atomic("P1", "v0", replacement)
        fresh = engine.evaluate_video(formula, video, database=database)
        assert cache.stats().invalidations == 1
        assert fresh != stale
        assert fresh == RetrievalEngine().evaluate_video(
            formula, video, database=database
        )

    def test_add_video_leaves_other_videos_warm(self):
        # Invalidation is per video: registering an unrelated video must
        # not discard v0's memoized list (the pre-ingest behavior dropped
        # everything on any generation bump).
        database = atomic_database()
        cache = EvaluationCache()
        engine = RetrievalEngine(cache=cache)
        formula = parse("eventually $P1")
        engine.evaluate_video(formula, database.get("v0"), database=database)
        database.add(flat_video("extra", [SegmentMetadata()]))
        engine.evaluate_video(formula, database.get("v0"), database=database)
        assert cache.stats().invalidations == 0
        assert cache.stats().list_hits == 1

    def test_adhoc_atomic_lists_bypass_cache(self):
        database = atomic_database()
        cache = EvaluationCache()
        engine = RetrievalEngine(cache=cache)
        lists = {"P9": SimilarityList.from_entries([((1, 2), 1.0)], 4.0)}
        engine.evaluate_video(
            parse("$P9"), database.get("v0"), database=database, atomic_lists=lists
        )
        stats = cache.stats()
        assert stats.list_misses == 0
        assert stats.table_misses == 0

    def test_capacity_is_bounded(self):
        cache = EvaluationCache(max_tables=2, max_lists=2)
        for position in range(5):
            cache.put_table(("k", position), SimilarityTable.empty(1.0))
            cache.put_list(("k", position), SimilarityList.empty(1.0))
        stats = cache.stats()
        assert stats.table_entries <= 2
        assert stats.list_entries <= 2


class TestPictureSystemCache:
    def test_cached_per_node_and_level(self):
        video = flat_video(
            "v",
            [SegmentMetadata(objects=[make_object("a", "train")])],
        )
        first = video.root.pictures_at_level(2)
        assert video.root.pictures_at_level(2) is first

    def test_add_child_invalidates_ancestors(self):
        video = flat_video("v", [SegmentMetadata(), SegmentMetadata()])
        system = video.root.pictures_at_level(2)
        video.root.add_child(VideoNode(metadata=SegmentMetadata()))
        assert video.root.pictures_at_level(2) is not system


@settings(max_examples=40, deadline=None)
@given(
    video=flat_videos(),
    formula=st.one_of(type1_formulas(), type2_formulas()),
)
def test_cached_equals_cold_on_random_formulas(video, formula):
    """Property: warm-cache results are ``==`` to a cold engine's."""
    database = VideoDatabase()
    database.add(video)
    cold = RetrievalEngine().evaluate_video(formula, video, database=database)
    cache = EvaluationCache()
    warm_engine = RetrievalEngine(cache=cache)
    first = warm_engine.evaluate_video(formula, video, database=database)
    second = warm_engine.evaluate_video(formula, video, database=database)
    assert first == cold
    assert second == cold
    assert cache.stats().list_hits >= 1
