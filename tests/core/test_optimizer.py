"""Tests for the formula optimizer: golden rewrites + semantic preservation."""

from hypothesis import HealthCheck, example, given, settings

from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.optimizer import optimize
from repro.htl import ast, parse
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object

from tests.integration.strategies import (
    conjunctive_formulas,
    flat_videos,
    type1_formulas,
    type2_formulas,
)


class TestGoldenRewrites:
    def test_eventually_idempotent(self):
        formula = parse("eventually eventually atomic('P')")
        assert optimize(formula) == parse("eventually atomic('P')")

    def test_always_idempotent(self):
        formula = parse("always always atomic('P')")
        assert optimize(formula) == parse("always atomic('P')")

    def test_eventually_next_commutes(self):
        formula = parse("eventually next atomic('P')")
        assert optimize(formula) == parse("next eventually atomic('P')")

    def test_next_conjuncts_not_fused(self):
        """○f ∧ ○g → ○(f ∧ g) would fuse f and g into one picture atom,
        which changes the inner-join result."""
        formula = parse("next atomic('P') and next atomic('Q')")
        assert optimize(formula) == formula

    def test_exists_prefixes_merge(self):
        formula = parse("exists x . exists y . eventually near(x, y)")
        optimized = optimize(formula)
        assert isinstance(optimized, ast.Exists)
        assert optimized.vars == ("x", "y")
        assert not isinstance(optimized.sub, ast.Exists)

    def test_colliding_exists_not_merged(self):
        formula = ast.Exists(
            ("x",),
            ast.Exists(("x",), ast.Eventually(ast.Present(ast.ObjectVar("x")))),
        )
        optimized = optimize(formula)
        assert isinstance(optimized.sub, ast.Exists)

    def test_true_conjunct_not_eliminated(self):
        """∧ true changes the similarity value; boolean simplification is
        unsound under graded semantics."""
        formula = parse("true and atomic('P')")
        assert optimize(formula) == formula

    def test_rules_compose_to_fixed_point(self):
        formula = parse(
            "eventually eventually next (eventually eventually atomic('P'))"
        )
        optimized = optimize(formula)
        assert optimized == parse("next eventually atomic('P')")

    def test_atoms_stay_intact(self):
        formula = parse(
            "eventually (present(x) and present(y) and near(x, y))"
        )
        closed = ast.Exists(("x", "y"), formula)
        optimized = optimize(closed)
        # The inner non-temporal conjunction is one atom; nothing to split.
        assert optimized == closed


def _video(*segments):
    """A flat video; each segment lists its (object id, type) pairs."""
    return flat_video(
        "v",
        [
            SegmentMetadata(
                objects=[make_object(oid, kind) for oid, kind in objects]
            )
            for objects in segments
        ],
    )


# Regrouping conjuncts changes inner-join results on this video: the
# reorder made ∃x.(present(x) ∧ ◇present(x)) ∧ type(x)='car' score
# {1:3, 2:2, 3:3, 4:1, 5:2} instead of {1:3, 2:1, 3:3}, and
# ○present(x) ∧ ○type(x)='car' → ○(present(x) ∧ type(x)='car') scored
# {1:1, 2:2, 4:1} instead of {2:2}.
REGROUPING_VIDEO = _video(
    [("o1", "car")], [("o2", "person")], [("o1", "car")], [], [("o2", "person")]
)


class TestSemanticPreservation:
    @given(type1_formulas(), flat_videos())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_type1_results_unchanged(self, formula, video):
        engine = RetrievalEngine()
        assert engine.evaluate_video(
            optimize(formula), video
        ) == engine.evaluate_video(formula, video)

    @given(type2_formulas(), flat_videos())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @example(
        parse(
            "exists x . present(x) and eventually present(x) "
            "and type(x) = 'car'"
        ),
        REGROUPING_VIDEO,
    )
    @example(
        parse("exists x . next present(x) and next type(x) = 'car'"),
        REGROUPING_VIDEO,
    )
    def test_type2_results_unchanged_both_modes(self, formula, video):
        for mode in ("inner", "outer"):
            engine = RetrievalEngine(EngineConfig(join_mode=mode))
            assert engine.evaluate_video(
                optimize(formula), video
            ) == engine.evaluate_video(formula, video)

    @given(conjunctive_formulas(), flat_videos())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_conjunctive_results_unchanged(self, formula, video):
        engine = RetrievalEngine(EngineConfig(join_mode="outer"))
        assert engine.evaluate_video(
            optimize(formula), video
        ) == engine.evaluate_video(formula, video)
