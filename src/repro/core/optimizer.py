"""Static formula rewriting (query optimisation).

The paper's complexity analysis makes the cost of the direct method a
function of the formula's length and the lengths of the intermediate
similarity lists; rewriting the formula before evaluation shrinks both.
Every rule preserves the similarity lists of both join modes exactly —
each is backed by an algebraic law property-tested in
``tests/core/test_ops_laws.py`` or by the semantic-preservation suite in
``tests/core/test_optimizer.py``:

* ``eventually (eventually f)  →  eventually f``        (idempotence)
* ``always (always f)          →  always f``            (idempotence)
* ``eventually (next f)        →  next (eventually f)``  (commutation; the
  right side shifts one shorter intermediate list)
* adjacent ``∃`` prefixes merge: ``∃x.∃y.f → ∃x,y.f``.

Rules that regroup conjuncts are deliberately absent.  Under the paper's
inner join (§3.2) grouping changes the answer: two adjacent non-temporal
conjuncts form one picture atom, so reassociating ``f ∧ ◇g ∧ h`` or
distributing ``○f ∧ ○g → ○(f ∧ g)`` builds a different table.  Likewise
``true ∧ f`` stays put — ∧ with ``true`` *changes* the similarity value
(it adds 1 to both components).  Evaluation order is chosen per video by
the cost-based planner (:mod:`repro.core.planner`), which never rewrites
the formula.

Use :func:`optimize` before :meth:`RetrievalEngine.evaluate_video` when
queries are machine-generated or deeply nested; hand-written queries are
usually already in good shape.
"""

from __future__ import annotations

from repro.htl import ast


def optimize(formula: ast.Formula) -> ast.Formula:
    """Apply the rewrite rules bottom-up until a fixed point."""
    current = formula
    for __ in range(_MAX_PASSES):
        rewritten = _rewrite(current)
        if rewritten == current:
            return rewritten
        current = rewritten
    return current


_MAX_PASSES = 8


def _rewrite(formula: ast.Formula) -> ast.Formula:
    formula = _rewrite_children(formula)

    # eventually (eventually f) -> eventually f
    if isinstance(formula, ast.Eventually) and isinstance(
        formula.sub, ast.Eventually
    ):
        return formula.sub

    # always (always f) -> always f
    if isinstance(formula, ast.Always) and isinstance(formula.sub, ast.Always):
        return formula.sub

    # eventually (next f) -> next (eventually f)
    if isinstance(formula, ast.Eventually) and isinstance(
        formula.sub, ast.Next
    ):
        return ast.Next(ast.Eventually(formula.sub.sub))

    # ∃x . ∃y . f -> ∃x,y . f (when names do not collide)
    if isinstance(formula, ast.Exists) and isinstance(formula.sub, ast.Exists):
        inner = formula.sub
        if not set(formula.vars) & set(inner.vars):
            return ast.Exists(formula.vars + inner.vars, inner.sub)

    return formula


def _rewrite_children(formula: ast.Formula) -> ast.Formula:
    if isinstance(formula, ast.And):
        return ast.And(_rewrite(formula.left), _rewrite(formula.right))
    if isinstance(formula, ast.Or):
        return ast.Or(_rewrite(formula.left), _rewrite(formula.right))
    if isinstance(formula, ast.Until):
        return ast.Until(_rewrite(formula.left), _rewrite(formula.right))
    if isinstance(formula, ast.Not):
        return ast.Not(_rewrite(formula.sub))
    if isinstance(formula, ast.Next):
        return ast.Next(_rewrite(formula.sub))
    if isinstance(formula, ast.Eventually):
        return ast.Eventually(_rewrite(formula.sub))
    if isinstance(formula, ast.Always):
        return ast.Always(_rewrite(formula.sub))
    if isinstance(formula, ast.Exists):
        return ast.Exists(formula.vars, _rewrite(formula.sub))
    if isinstance(formula, ast.Freeze):
        return ast.Freeze(formula.var, formula.func, _rewrite(formula.sub))
    if isinstance(formula, ast.Weighted):
        return ast.Weighted(formula.weight, _rewrite(formula.sub))
    if isinstance(formula, ast.AtNextLevel):
        return ast.AtNextLevel(_rewrite(formula.sub))
    if isinstance(formula, ast.AtLevel):
        return ast.AtLevel(formula.level, _rewrite(formula.sub))
    if isinstance(formula, ast.AtNamedLevel):
        return ast.AtNamedLevel(formula.level_name, _rewrite(formula.sub))
    return formula
