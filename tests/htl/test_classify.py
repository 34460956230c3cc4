"""Tests for formula classification (paper §2.5 / §3 class hierarchy)."""

import pytest
from hypothesis import given, settings

from repro.errors import HTLTypeError
from repro.htl import ast, parse
from repro.htl.classify import (
    FormulaClass,
    atomic_subformulas,
    has_level_operator,
    has_quantifier,
    has_temporal_operator,
    is_non_temporal,
    paper_class,
    require_class,
    skeleton_class,
)

from tests.htl.strategies import formulas


class TestNonTemporal:
    def test_plain_atom(self):
        assert is_non_temporal(parse("present(x)"))

    def test_conjunction_of_atoms(self):
        assert is_non_temporal(parse("present(x) and holds(x, 'gun')"))

    def test_temporal_operator_breaks_it(self):
        assert not is_non_temporal(parse("eventually present(x)"))

    def test_level_operator_breaks_it(self):
        """Paper §2.2: non-temporal means no temporal AND no level modal
        operators."""
        assert not is_non_temporal(parse("at_frame_level(present(x))"))

    def test_exists_inside_stays_non_temporal(self):
        assert is_non_temporal(parse("exists x . present(x)"))


class TestAtomicSubformulas:
    def test_whole_formula_when_non_temporal(self):
        formula = parse("present(x) and holds(x, 'gun')")
        assert atomic_subformulas(formula) == [formula]

    def test_maximal_pieces(self):
        formula = parse("$M1 and next ($M2 until $M3)")
        atoms = atomic_subformulas(formula)
        assert atoms == [
            ast.AtomicRef("M1"),
            ast.AtomicRef("M2"),
            ast.AtomicRef("M3"),
        ]

    def test_conjunction_below_temporal_is_one_atom(self):
        formula = parse("eventually (present(x) and present(y))")
        atoms = atomic_subformulas(formula)
        assert len(atoms) == 1
        assert isinstance(atoms[0], ast.And)


QUERY_1 = "atomic('Man-Woman') and eventually atomic('Moving-Train')"

FORMULA_A = "$M1 and next ($M2 until $M3)"

FORMULA_B = """
exists x, y .
  (present(x) and present(y) and name(x) = 'John Wayne'
   and type(y) = 'bandit' and holds_gun(x) and holds_gun(y))
  and eventually (fires_at(x, y) and eventually on_floor(y))
"""

FORMULA_C = """
exists z . (present(z) and type(z) = 'airplane')
  and [h := height(z)] eventually (present(z) and height(z) > h)
"""

WESTERN = "type() = 'western' and at_frame_level(" + FORMULA_B + ")"


class TestPaperClasses:
    def test_query_1_is_type1(self):
        assert paper_class(parse(QUERY_1)) == FormulaClass.TYPE1

    def test_formula_a_is_type1(self):
        """Paper: 'The formulas (A) and (B) ... are type (1) and type (2)
        formulas respectively.'"""
        assert paper_class(parse(FORMULA_A)) == FormulaClass.TYPE1

    def test_formula_b_is_type2(self):
        assert paper_class(parse(FORMULA_B)) == FormulaClass.TYPE2

    def test_formula_c_is_conjunctive(self):
        """Paper: '(C) is neither a type (1) nor a type (2) formula.'"""
        assert paper_class(parse(FORMULA_C)) == FormulaClass.CONJUNCTIVE

    def test_western_example_is_extended_conjunctive(self):
        assert paper_class(parse(WESTERN)) == FormulaClass.EXTENDED_CONJUNCTIVE

    def test_non_temporal_exists_is_type1(self):
        assert paper_class(parse("exists x . present(x)")) == FormulaClass.TYPE1

    def test_negation_outside_atoms_is_general_in_paper_view(self):
        formula = parse("exists x . not present(x)")
        assert paper_class(formula) == FormulaClass.GENERAL
        assert skeleton_class(formula) == FormulaClass.TYPE1

    def test_disjunction_is_general_in_paper_view(self):
        formula = parse("exists x, y . present(x) or present(y)")
        assert paper_class(formula) == FormulaClass.GENERAL
        assert skeleton_class(formula) == FormulaClass.TYPE1

    def test_free_variable_is_general(self):
        assert paper_class(parse("present(x)")) == FormulaClass.GENERAL
        assert skeleton_class(parse("present(x)")) == FormulaClass.GENERAL

    def test_non_prefix_temporal_exists_is_general(self):
        formula = parse("eventually exists x . eventually present(x)")
        assert paper_class(formula) == FormulaClass.GENERAL
        assert skeleton_class(formula) == FormulaClass.GENERAL

    def test_exists_at_level_body_start_allowed(self):
        formula = parse(
            "at_frame_level(exists x . eventually present(x))"
        )
        assert paper_class(formula) == FormulaClass.EXTENDED_CONJUNCTIVE

    def test_negated_temporal_is_general_everywhere(self):
        formula = parse("not eventually present(x)")
        assert skeleton_class(parse("exists x . true and true")) <= (
            FormulaClass.GENERAL
        )
        assert paper_class(ast.Exists(("x",), formula.sub)) != FormulaClass.TYPE1
        closed = ast.Exists(("x",), formula)
        assert paper_class(closed) == FormulaClass.GENERAL
        assert skeleton_class(closed) == FormulaClass.GENERAL

    def test_always_is_paper_general_but_skeleton_type1(self):
        formula = parse("always atomic('P1')")
        assert paper_class(formula) == FormulaClass.GENERAL
        assert skeleton_class(formula) == FormulaClass.TYPE1


class TestHierarchyProperties:
    def test_includes(self):
        assert FormulaClass.TYPE2.includes(FormulaClass.TYPE1)
        assert not FormulaClass.TYPE1.includes(FormulaClass.TYPE2)
        assert FormulaClass.GENERAL.includes(FormulaClass.CONJUNCTIVE)

    @given(formulas())
    @settings(max_examples=200, deadline=None)
    def test_paper_class_at_least_skeleton_class(self, formula):
        """The paper view constrains atoms too, so it never assigns a
        smaller class than the skeleton view."""
        assert paper_class(formula) >= skeleton_class(formula)

    @given(formulas())
    @settings(max_examples=200, deadline=None)
    def test_conjunction_never_shrinks_the_class(self, formula):
        """Conjoining `true` can only generalise (a prefix ∃ stops being a
        prefix, per the paper's literal definition), never specialise."""
        conjoined = ast.And(formula, ast.Truth())
        assert skeleton_class(conjoined) >= skeleton_class(formula)

    def test_conjunction_keeps_type1(self):
        formula = parse(FORMULA_A)
        assert skeleton_class(ast.And(formula, ast.Truth())) == (
            FormulaClass.TYPE1
        )

    @given(formulas())
    @settings(max_examples=100, deadline=None)
    def test_eventually_preserves_or_generalises(self, formula):
        wrapped = ast.Eventually(formula)
        assert skeleton_class(wrapped) >= min(
            skeleton_class(formula), FormulaClass.TYPE1
        )


class TestHelpers:
    def test_has_temporal_operator(self):
        assert has_temporal_operator(parse("next true"))
        assert not has_temporal_operator(parse("present(x)"))

    def test_has_quantifier(self):
        assert has_quantifier(parse("eventually exists x . present(x)"))
        assert not has_quantifier(parse("$P1 and eventually kind() = 'x'"))

    def test_has_level_operator(self):
        assert has_level_operator(parse("at_level(3, true)"))
        assert not has_level_operator(parse("next true"))

    def test_require_class_passes(self):
        formula = parse(QUERY_1)
        assert require_class(formula, FormulaClass.TYPE1) == FormulaClass.TYPE1

    def test_require_class_raises(self):
        formula = parse(FORMULA_C)
        with pytest.raises(HTLTypeError):
            require_class(formula, FormulaClass.TYPE2)

    def test_require_class_paper_view(self):
        formula = parse("not present(x) and exists x . present(x)")
        with pytest.raises(HTLTypeError):
            require_class(formula, FormulaClass.EXTENDED_CONJUNCTIVE, view="paper")
