"""Exact-match (boolean) semantics of HTL (paper §2.3).

The paper defines the classical satisfaction relation before similarity:
this module implements it, both because related work (e.g. the video
algebra of [30]) retrieves by exact match — so the comparison examples
need it — and because exact satisfaction is a useful oracle: a segment
that exactly satisfies a formula must receive the full similarity ``a = m``
under the similarity semantics, and that implication is property-tested.

Negation and disjunction are fully supported here (unlike the similarity
algorithms, which cover extended conjunctive formulas only).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.simlist import SIM_EPS, SimilarityList
from repro.errors import UnsupportedFormulaError
from repro.htl import ast
from repro.model.hierarchy import Video, VideoNode
from repro.pictures.scoring import Binding, compare_values, eval_term


@dataclass
class ExactContext:
    """A proper sequence plus what ``∃`` and level names need."""

    nodes: Sequence[VideoNode]
    video: Optional[Video] = None
    universe: Sequence[str] = ()
    atomics: Optional[Dict[str, SimilarityList]] = None

    def segment(self, position: int):
        return self.nodes[position - 1].metadata

    def __len__(self) -> int:
        return len(self.nodes)


def satisfies(
    formula: ast.Formula,
    context: ExactContext,
    position: int,
    binding: Optional[Binding] = None,
) -> bool:
    """Classical satisfaction of ``formula`` at segment ``position``."""
    return _sat(formula, context, position, binding or {})


def satisfying_positions(
    formula: ast.Formula, context: ExactContext
) -> List[int]:
    """All positions of the sequence exactly satisfying a closed formula."""
    return [
        position
        for position in range(1, len(context) + 1)
        if _sat(formula, context, position, {})
    ]


def _sat(
    formula: ast.Formula,
    context: ExactContext,
    position: int,
    binding: Binding,
) -> bool:
    if isinstance(formula, ast.Truth):
        return True
    if isinstance(formula, ast.Present):
        object_id = binding.get(formula.var.name)
        return isinstance(object_id, str) and context.segment(
            position
        ).has_object(object_id)
    if isinstance(formula, ast.Compare):
        left = eval_term(formula.left, context.segment(position), binding)
        right = eval_term(formula.right, context.segment(position), binding)
        if left is None or right is None:
            return False
        return compare_values(formula.op, left[0], right[0])
    if isinstance(formula, ast.Rel):
        values = []
        for arg in formula.args:
            evaluated = eval_term(arg, context.segment(position), binding)
            if evaluated is None:
                return False
            values.append(evaluated[0])
        return (
            context.segment(position).find_relationship(
                formula.name, tuple(values)
            )
            is not None
        )
    if isinstance(formula, ast.AtomicRef):
        if not context.atomics or formula.name not in context.atomics:
            raise UnsupportedFormulaError(
                f"atomic predicate {formula.name!r} has no registered list"
            )
        resolved = context.atomics[formula.name]
        # Exact match means full similarity.
        return (
            resolved.actual_at(position) >= resolved.maximum - SIM_EPS
        )
    if isinstance(formula, ast.Weighted):
        return _sat(formula.sub, context, position, binding)
    if isinstance(formula, ast.And):
        return _sat(formula.left, context, position, binding) and _sat(
            formula.right, context, position, binding
        )
    if isinstance(formula, ast.Or):
        return _sat(formula.left, context, position, binding) or _sat(
            formula.right, context, position, binding
        )
    if isinstance(formula, ast.Not):
        return not _sat(formula.sub, context, position, binding)
    if isinstance(formula, ast.Next):
        if position >= len(context):
            return False
        return _sat(formula.sub, context, position + 1, binding)
    if isinstance(formula, ast.Until):
        for witness in range(position, len(context) + 1):
            if _sat(formula.right, context, witness, binding):
                return True
            if not _sat(formula.left, context, witness, binding):
                return False
        return False
    if isinstance(formula, ast.Eventually):
        return any(
            _sat(formula.sub, context, later, binding)
            for later in range(position, len(context) + 1)
        )
    if isinstance(formula, ast.Always):
        return all(
            _sat(formula.sub, context, later, binding)
            for later in range(position, len(context) + 1)
        )
    if isinstance(formula, ast.Exists):
        pool = list(context.universe)
        if not pool:
            return _sat(formula.sub, context, position, binding)
        for values in itertools.product(pool, repeat=len(formula.vars)):
            extended = dict(binding)
            extended.update(zip(formula.vars, values))
            if _sat(formula.sub, context, position, extended):
                return True
        return False
    if isinstance(formula, ast.Freeze):
        captured = eval_term(formula.func, context.segment(position), binding)
        if captured is None:
            return False
        extended = dict(binding)
        extended[formula.var] = captured[0]
        return _sat(formula.sub, context, position, extended)
    if isinstance(formula, (ast.AtNextLevel, ast.AtLevel, ast.AtNamedLevel)):
        node = context.nodes[position - 1]
        if isinstance(formula, ast.AtNextLevel):
            target = node.level + 1
        elif isinstance(formula, ast.AtLevel):
            target = formula.level
        else:
            if context.video is None:
                raise UnsupportedFormulaError(
                    f"named level {formula.level_name!r} needs a video"
                )
            target = context.video.level_of(formula.level_name)
        descendants = node.descendants_at_level(target)
        if not descendants:
            return False
        child_context = ExactContext(
            nodes=descendants,
            video=context.video,
            universe=context.universe,
            atomics=context.atomics,
        )
        return _sat(formula.sub, child_context, 1, binding)
    raise UnsupportedFormulaError(
        f"no exact semantics for {type(formula).__name__}"
    )
