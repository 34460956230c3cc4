"""Cross-validation: the fast engine against the definitional oracle.

The engine in outer-join mode implements the similarity semantics of paper
§2.5 exactly (DESIGN.md §2), so its interval-list output must equal the
per-segment recursion of :mod:`repro.core.semantics` on every supported
formula.  The inner-join (paper) mode may only ever *under*-approximate:
it drops evaluations missing from one side of a join.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.semantics import ReferenceContext, reference_list
from repro.core.simlist import SIM_EPS

from tests.integration.strategies import (
    conjunctive_formulas,
    deep_videos,
    exists_free_formulas,
    extended_formulas,
    flat_videos,
    flat_videos_with_objects,
    type1_formulas,
    type2_formulas,
)

OUTER_ENGINE = RetrievalEngine(EngineConfig(join_mode="outer"))
INNER_ENGINE = RetrievalEngine(EngineConfig(join_mode="inner"))

RELAXED = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def reference(formula, video, level=2):
    nodes = video.nodes_at_level(level)
    context = ReferenceContext(
        nodes=nodes,
        video=video,
        level=level,
        universe=video.object_universe(),
    )
    return reference_list(formula, context)


def assert_lists_equal(actual, expected, label=""):
    assert abs(actual.maximum - expected.maximum) <= 1e-6, (
        f"{label} maxima differ: {actual.maximum} vs {expected.maximum}"
    )
    horizon = max(actual.last_id(), expected.last_id()) + 1
    for position in range(1, horizon + 1):
        assert actual.actual_at(position) == pytest.approx(
            expected.actual_at(position), abs=1e-7
        ), f"{label} differs at segment {position}"


class TestOuterModeIsDefinitional:
    @given(type1_formulas(), flat_videos())
    @RELAXED
    def test_type1(self, formula, video):
        engine_result = OUTER_ENGINE.evaluate_video(formula, video)
        assert_lists_equal(engine_result, reference(formula, video), "type1")

    @given(type2_formulas(), flat_videos())
    @RELAXED
    def test_type2(self, formula, video):
        engine_result = OUTER_ENGINE.evaluate_video(formula, video)
        assert_lists_equal(engine_result, reference(formula, video), "type2")

    @given(conjunctive_formulas(), flat_videos())
    @RELAXED
    def test_conjunctive(self, formula, video):
        engine_result = OUTER_ENGINE.evaluate_video(formula, video)
        assert_lists_equal(
            engine_result, reference(formula, video), "conjunctive"
        )

    @given(extended_formulas(), deep_videos())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_extended_on_hierarchies(self, formula, video):
        engine_result = OUTER_ENGINE.evaluate_video(formula, video, level=2)
        assert_lists_equal(
            engine_result, reference(formula, video, level=2), "extended"
        )


class TestInnerModeUnderApproximates:
    @given(type2_formulas(), flat_videos())
    @RELAXED
    def test_inner_never_exceeds_outer(self, formula, video):
        inner = INNER_ENGINE.evaluate_video(formula, video)
        outer = OUTER_ENGINE.evaluate_video(formula, video)
        horizon = max(inner.last_id(), outer.last_id()) + 1
        for position in range(1, horizon + 1):
            assert (
                inner.actual_at(position)
                <= outer.actual_at(position) + SIM_EPS
            )

    @given(type1_formulas(), flat_videos())
    @RELAXED
    def test_modes_agree_on_type1(self, formula, video):
        """Type (1) formulas join single-row (closed) tables, where inner
        and outer joins coincide."""
        inner = INNER_ENGINE.evaluate_video(formula, video)
        outer = OUTER_ENGINE.evaluate_video(formula, video)
        assert_lists_equal(inner, outer, "type1 modes")


class TestExistsFreeFormulas:
    """∃-free formulas evaluate with an empty ∃-pool (the engine skips the
    object-universe walk); over videos that do hold objects both join
    modes must still equal the oracle, which quantifies over the full
    universe."""

    @given(exists_free_formulas(), flat_videos_with_objects())
    @RELAXED
    def test_outer_matches_oracle(self, formula, video):
        engine_result = OUTER_ENGINE.evaluate_video(formula, video)
        assert_lists_equal(
            engine_result, reference(formula, video), "exists-free outer"
        )

    @given(exists_free_formulas(), flat_videos_with_objects())
    @RELAXED
    def test_inner_matches_oracle(self, formula, video):
        engine_result = INNER_ENGINE.evaluate_video(formula, video)
        assert_lists_equal(
            engine_result, reference(formula, video), "exists-free inner"
        )
