"""The full-language engine mode (``allow_extensions=True``) vs the oracle.

Extends the §5 future-work direction: disjunction and ``always`` over
temporal subformulas and existential quantifiers at arbitrary positions,
cross-checked against the definitional evaluator; negation over temporal
subformulas stays rejected in every mode.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig, RetrievalEngine
from repro.errors import UnsupportedFormulaError
from repro.htl import ast, parse

from tests.integration.strategies import flat_videos, type1_formulas
from tests.integration.test_engine_vs_oracle import (
    assert_lists_equal,
    reference,
)

FULL_ENGINE = RetrievalEngine(
    EngineConfig(join_mode="outer", allow_extensions=True)
)
DEFAULT_ENGINE = RetrievalEngine()

RELAXED = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _extend(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: ast.Or(*p)),
        st.tuples(children, children).map(lambda p: ast.And(*p)),
        st.tuples(children, children).map(lambda p: ast.Until(*p)),
        children.map(ast.Always),
        children.map(ast.Eventually),
        children.map(ast.Next),
    )


def full_language_formulas():
    """Closed formulas using Or/Always/non-prefix Exists freely."""
    return st.recursive(type1_formulas(), _extend, max_leaves=4)


class TestFullLanguageMode:
    @given(full_language_formulas(), flat_videos())
    @RELAXED
    def test_matches_oracle(self, formula, video):
        engine_result = FULL_ENGINE.evaluate_video(formula, video)
        assert_lists_equal(
            engine_result, reference(formula, video), "full-language"
        )

    @given(flat_videos())
    @RELAXED
    def test_disjunction_example(self, video):
        formula = parse(
            "exists x . (eventually (present(x) and type(x) = 'plane')) "
            "or always kind() = 'talk'"
        )
        # Non-prefix ∃ over a disjunction of temporal formulas: rejected
        # by default, supported in extensions mode.
        with pytest.raises(UnsupportedFormulaError):
            DEFAULT_ENGINE.evaluate_video(formula, video)
        engine_result = FULL_ENGINE.evaluate_video(formula, video)
        assert_lists_equal(
            engine_result, reference(formula, video), "disjunction"
        )

    @given(flat_videos())
    @RELAXED
    def test_negated_temporal_still_rejected(self, video):
        formula = parse("not eventually kind() = 'talk'")
        with pytest.raises(UnsupportedFormulaError):
            FULL_ENGINE.evaluate_video(formula, video)

    @given(flat_videos())
    @RELAXED
    def test_non_prefix_exists(self, video):
        formula = parse("eventually exists x . next present(x)")
        engine_result = FULL_ENGINE.evaluate_video(formula, video)
        assert_lists_equal(
            engine_result, reference(formula, video), "non-prefix exists"
        )
