"""Executor of the mini relational engine.

Row-at-a-time evaluation with the optimisations a Sybase-era system would
apply to the translated HTL queries:

* **hash equi-joins** — equality conjuncts between a new FROM table and the
  already-bound prefix build a hash index probed per partial row;
* **index-range joins** — range conjuncts on a single column of the new
  table (``s.id BETWEEN p.beg AND p.end``, ``k.id >= s.id`` ...) probe a
  sorted view of that column;
* **semi/anti-join decorrelation** — ``[NOT] EXISTS`` subqueries whose only
  correlation is equality probe a precomputed hash of inner keys;
* **correlated-aggregate shortcuts** — scalar ``MIN``/``MAX`` subqueries
  whose correlation is equality plus at most one range predicate probe
  per-group prefix/suffix aggregate arrays.

NULL follows SQL three-valued logic: comparisons with NULL are unknown,
``WHERE`` keeps only definite truths, aggregates skip NULLs.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import SQLCatalogError, SQLExecutionError, SQLSyntaxError
from repro.sqlbaseline.relational import sql_ast as ast
from repro.sqlbaseline.relational.relation import (
    Catalog,
    Relation,
    Row,
    SQLValue,
)
from repro.sqlbaseline.relational.sql_parser import parse_sql

_RANGE_OPS = {"<", "<=", ">", ">="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


@dataclass
class ExecutionStats:
    """Work counters, used by the benchmarks to report honest volumes."""

    statements: int = 0
    rows_scanned: int = 0
    rows_output: int = 0
    subquery_evaluations: int = 0

    def reset(self) -> None:
        self.statements = 0
        self.rows_scanned = 0
        self.rows_output = 0
        self.subquery_evaluations = 0


@dataclass
class ResultSet:
    """The rows a SELECT returns."""

    columns: Tuple[str, ...]
    rows: List[Row]

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List[SQLValue]:
        position = self.columns.index(name)
        return [row[position] for row in self.rows]


class Database:
    """A self-contained in-memory SQL database."""

    def __init__(self) -> None:
        self.catalog = Catalog()
        self.stats = ExecutionStats()

    # -- public API ---------------------------------------------------------
    def execute(self, sql_text: str) -> Optional[ResultSet]:
        """Run a script; returns the last SELECT's result, if any."""
        result: Optional[ResultSet] = None
        for statement in parse_sql(sql_text):
            outcome = self.execute_statement(statement)
            if isinstance(outcome, ResultSet):
                result = outcome
        return result

    def query(self, sql_text: str) -> ResultSet:
        """Run a single SELECT and return its rows."""
        result = self.execute(sql_text)
        if result is None:
            raise SQLExecutionError("query() expects a SELECT statement")
        return result

    def execute_statement(
        self, statement: ast.Statement
    ) -> Optional[ResultSet]:
        self.stats.statements += 1
        if isinstance(statement, ast.CreateTable):
            self.catalog.create(
                statement.name,
                [column.name for column in statement.columns],
                [column.type for column in statement.columns],
                statement.if_not_exists,
            )
            return None
        if isinstance(statement, ast.CreateIndex):
            self.catalog.get(statement.table)  # existence check
            self.catalog.indexes[statement.name.lower()] = (
                statement.table,
                statement.columns,
            )
            return None
        if isinstance(statement, ast.DropTable):
            self.catalog.drop(statement.name, statement.if_exists)
            return None
        if isinstance(statement, ast.InsertValues):
            return self._insert_values(statement)
        if isinstance(statement, ast.InsertSelect):
            return self._insert_select(statement)
        if isinstance(statement, ast.Delete):
            return self._delete(statement)
        if isinstance(statement, ast.Update):
            return self._update(statement)
        if isinstance(statement, (ast.Select, ast.UnionAll)):
            return self._select_like(statement)
        raise SQLExecutionError(
            f"cannot execute {type(statement).__name__}"
        )

    # -- DML ------------------------------------------------------------------
    def _insert_values(self, statement: ast.InsertValues) -> None:
        relation = self.catalog.get(statement.table)
        evaluator = _Evaluator(self, _Scope(), {})
        for value_row in statement.rows:
            values = [evaluator.eval(expr) for expr in value_row]
            relation.insert(self._reorder(relation, statement.columns, values))
        return None

    def _insert_select(self, statement: ast.InsertSelect) -> None:
        relation = self.catalog.get(statement.table)
        result = self._select_like(statement.query)
        for row in result.rows:
            relation.insert(
                self._reorder(relation, statement.columns, list(row))
            )
        return None

    @staticmethod
    def _reorder(
        relation: Relation,
        columns: Tuple[str, ...],
        values: List[SQLValue],
    ) -> List[SQLValue]:
        if not columns:
            return values
        if len(columns) != len(values):
            raise SQLExecutionError(
                f"INSERT lists {len(columns)} columns but {len(values)} values"
            )
        ordered: List[SQLValue] = [None] * len(relation.columns)
        for column, value in zip(columns, values):
            ordered[relation.column_position(column)] = value
        return ordered

    def _delete(self, statement: ast.Delete) -> None:
        relation = self.catalog.get(statement.table)
        if statement.where is None:
            relation.delete_where(lambda row: False)
            return None
        schema = {statement.table: _schema_of(relation)}
        resolved = _resolve(statement.where, schema, ())
        alias = statement.table

        def keep(row: Row) -> bool:
            scope = _Scope()
            scope.bind(alias, _schema_of(relation), row)
            value = _Evaluator(self, scope, {}).eval_predicate(resolved)
            return value is not True

        relation.delete_where(keep)
        return None

    def _update(self, statement: ast.Update) -> None:
        relation = self.catalog.get(statement.table)
        schema = {statement.table: _schema_of(relation)}
        where = (
            _resolve(statement.where, schema, ())
            if statement.where is not None
            else None
        )
        assignments = [
            (relation.column_position(column), _resolve(expr, schema, ()))
            for column, expr in statement.assignments
        ]
        alias = statement.table
        new_rows = []
        for row in relation.rows:
            scope = _Scope()
            scope.bind(alias, _schema_of(relation), row)
            evaluator = _Evaluator(self, scope, {})
            if where is not None and evaluator.eval_predicate(where) is not True:
                new_rows.append(row)
                continue
            updated = list(row)
            for position, expr in assignments:
                updated[position] = evaluator.eval(expr)
            new_rows.append(relation.coerce_row(updated))
        relation.rows = new_rows
        relation.invalidate_caches()
        return None

    # -- SELECT ----------------------------------------------------------------
    def _select_like(self, statement: ast.SelectLike) -> ResultSet:
        if isinstance(statement, ast.UnionAll):
            parts = [self._select(select, _Scope()) for select in statement.parts]
            first = parts[0]
            width = len(first.columns)
            for part in parts[1:]:
                if len(part.columns) != width:
                    raise SQLExecutionError(
                        "UNION ALL parts have different column counts"
                    )
            rows: List[Row] = []
            for part in parts:
                rows.extend(part.rows)
            return ResultSet(first.columns, rows)
        return self._select(statement, _Scope())

    def _select(self, select: ast.Select, outer: "_Scope") -> ResultSet:
        executor = _SelectExecutor(self, select, outer)
        return executor.run()


# ---------------------------------------------------------------------------
# scopes and column resolution
# ---------------------------------------------------------------------------
Schema = Dict[str, int]


def _schema_of(relation: Relation) -> Schema:
    return {column: position for position, column in enumerate(relation.columns)}


class _Scope:
    """Alias → (schema, current row), chained to outer query scopes."""

    __slots__ = ("frames", "parent")

    def __init__(self, parent: Optional["_Scope"] = None):
        self.frames: Dict[str, Tuple[Schema, Optional[Row]]] = {}
        self.parent = parent

    def bind(self, alias: str, schema: Schema, row: Optional[Row]) -> None:
        self.frames[alias] = (schema, row)

    def lookup(self, alias: str, column: str) -> SQLValue:
        scope: Optional[_Scope] = self
        while scope is not None:
            frame = scope.frames.get(alias)
            if frame is not None:
                schema, row = frame
                if column not in schema:
                    raise SQLCatalogError(
                        f"{alias!r} has no column {column!r}"
                    )
                if row is None:
                    raise SQLExecutionError(
                        f"{alias}.{column} referenced before binding"
                    )
                return row[schema[column]]
            scope = scope.parent
        raise SQLCatalogError(f"unknown table alias {alias!r}")


def _resolve(
    expr: ast.Expr,
    local: Dict[str, Schema],
    outer_schemas: Tuple[Dict[str, Schema], ...],
) -> ast.Expr:
    """Qualify every unqualified column reference.

    Local aliases shadow outer ones; an unqualified name matching several
    visible aliases is ambiguous.
    """
    if isinstance(expr, ast.ColumnRef):
        if expr.table is not None:
            return expr
        candidates = [
            alias for alias, schema in local.items() if expr.column in schema
        ]
        if len(candidates) > 1:
            raise SQLSyntaxError(f"ambiguous column {expr.column!r}")
        if candidates:
            return ast.ColumnRef(candidates[0], expr.column)
        for schemas in outer_schemas:
            outer_candidates = [
                alias
                for alias, schema in schemas.items()
                if expr.column in schema
            ]
            if len(outer_candidates) > 1:
                raise SQLSyntaxError(f"ambiguous column {expr.column!r}")
            if outer_candidates:
                return ast.ColumnRef(outer_candidates[0], expr.column)
        raise SQLCatalogError(f"unknown column {expr.column!r}")
    if isinstance(expr, ast.Literal):
        return expr
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, _resolve(expr.operand, local, outer_schemas))
    if isinstance(expr, ast.Binary):
        return ast.Binary(
            expr.op,
            _resolve(expr.left, local, outer_schemas),
            _resolve(expr.right, local, outer_schemas),
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            _resolve(expr.operand, local, outer_schemas),
            _resolve(expr.low, local, outer_schemas),
            _resolve(expr.high, local, outer_schemas),
            expr.negated,
        )
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(
            _resolve(expr.operand, local, outer_schemas), expr.negated
        )
    if isinstance(expr, ast.Like):
        return ast.Like(
            _resolve(expr.operand, local, outer_schemas),
            _resolve(expr.pattern, local, outer_schemas),
            expr.negated,
        )
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name,
            tuple(_resolve(arg, local, outer_schemas) for arg in expr.args),
            expr.star,
            expr.distinct,
        )
    if isinstance(expr, ast.CaseWhen):
        return ast.CaseWhen(
            tuple(
                (
                    _resolve(condition, local, outer_schemas),
                    _resolve(result, local, outer_schemas),
                )
                for condition, result in expr.branches
            ),
            None
            if expr.otherwise is None
            else _resolve(expr.otherwise, local, outer_schemas),
        )
    if isinstance(expr, ast.ExistsExpr):
        return ast.ExistsExpr(expr.query, expr.negated)
    if isinstance(expr, ast.InExpr):
        return ast.InExpr(
            _resolve(expr.operand, local, outer_schemas),
            None
            if expr.values is None
            else tuple(_resolve(v, local, outer_schemas) for v in expr.values),
            expr.query,
            expr.negated,
        )
    if isinstance(expr, ast.ScalarSubquery):
        return expr
    raise SQLExecutionError(f"cannot resolve {type(expr).__name__}")


def _split_conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    if isinstance(expr, ast.Between) and not expr.negated:
        # Decompose so the planner can use both bounds as range probes.
        return [
            ast.Binary(">=", expr.operand, expr.low),
            ast.Binary("<=", expr.operand, expr.high),
        ]
    return [expr]


def _aliases_in(expr: ast.Expr) -> Set[str]:
    """Aliases a resolved expression references (subqueries excluded —
    their correlation is handled at evaluation time)."""
    found: Set[str] = set()
    _collect_aliases(expr, found)
    return found


def _collect_aliases(expr: ast.Expr, found: Set[str]) -> None:
    if isinstance(expr, ast.ColumnRef):
        if expr.table is not None:
            found.add(expr.table)
    elif isinstance(expr, ast.Unary):
        _collect_aliases(expr.operand, found)
    elif isinstance(expr, ast.Binary):
        _collect_aliases(expr.left, found)
        _collect_aliases(expr.right, found)
    elif isinstance(expr, ast.Between):
        _collect_aliases(expr.operand, found)
        _collect_aliases(expr.low, found)
        _collect_aliases(expr.high, found)
    elif isinstance(expr, ast.IsNull):
        _collect_aliases(expr.operand, found)
    elif isinstance(expr, ast.Like):
        _collect_aliases(expr.operand, found)
        _collect_aliases(expr.pattern, found)
    elif isinstance(expr, ast.FuncCall):
        for arg in expr.args:
            _collect_aliases(arg, found)
    elif isinstance(expr, ast.CaseWhen):
        for condition, result in expr.branches:
            _collect_aliases(condition, found)
            _collect_aliases(result, found)
        if expr.otherwise is not None:
            _collect_aliases(expr.otherwise, found)
    elif isinstance(expr, ast.InExpr):
        _collect_aliases(expr.operand, found)
        if expr.values:
            for value in expr.values:
                _collect_aliases(value, found)
        if expr.query is not None:
            _collect_subquery_aliases(expr.query, found)
    elif isinstance(expr, ast.ExistsExpr):
        _collect_subquery_aliases(expr.query, found)
    elif isinstance(expr, ast.ScalarSubquery):
        _collect_subquery_aliases(expr.query, found)


def _collect_subquery_aliases(query: "ast.Select", found: Set[str]) -> None:
    """Outer aliases a subquery references.

    Qualified references to aliases outside the subquery's own FROM list
    are its correlations.  Unqualified references cannot be attributed
    without the catalog, so their presence adds the conservative marker,
    deferring the containing conjunct until every alias is bound.
    """
    own = {table_ref.alias for table_ref in query.tables}
    inner: Set[str] = set()
    expressions: List[ast.Expr] = []
    for item in query.items:
        if isinstance(item, ast.SelectItem):
            expressions.append(item.expr)
    if query.where is not None:
        expressions.append(query.where)
    expressions.extend(query.group_by)
    if query.having is not None:
        expressions.append(query.having)
    expressions.extend(order.expr for order in query.order_by)
    for expression in expressions:
        _collect_aliases(expression, inner)
        if _has_unqualified_ref(expression):
            inner.add(_SUBQUERY_MARKER)
    found.update(
        alias for alias in inner if alias == _SUBQUERY_MARKER or alias not in own
    )


def _has_unqualified_ref(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.ColumnRef):
        return expr.table is None
    if isinstance(expr, ast.Unary):
        return _has_unqualified_ref(expr.operand)
    if isinstance(expr, ast.Binary):
        return _has_unqualified_ref(expr.left) or _has_unqualified_ref(expr.right)
    if isinstance(expr, ast.Between):
        return (
            _has_unqualified_ref(expr.operand)
            or _has_unqualified_ref(expr.low)
            or _has_unqualified_ref(expr.high)
        )
    if isinstance(expr, ast.IsNull):
        return _has_unqualified_ref(expr.operand)
    if isinstance(expr, ast.FuncCall):
        return any(_has_unqualified_ref(arg) for arg in expr.args)
    if isinstance(expr, ast.CaseWhen):
        return any(
            _has_unqualified_ref(c) or _has_unqualified_ref(r)
            for c, r in expr.branches
        ) or (expr.otherwise is not None and _has_unqualified_ref(expr.otherwise))
    if isinstance(expr, ast.InExpr):
        if _has_unqualified_ref(expr.operand):
            return True
        if expr.values and any(_has_unqualified_ref(v) for v in expr.values):
            return True
        return False  # nested subquery handled by _collect_subquery_aliases
    return False


#: Conjuncts whose subqueries contain unqualified references are applied
#: only once every local alias is bound (conservative fallback).
_SUBQUERY_MARKER = "\0subquery"


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------
class _Evaluator:
    """Evaluates resolved expressions against a scope."""

    def __init__(
        self,
        database: Database,
        scope: _Scope,
        plan_cache: Dict[int, object],
        outer_schemas: Tuple[Dict[str, Schema], ...] = (),
    ):
        self.database = database
        self.scope = scope
        self.plan_cache = plan_cache
        self.outer_schemas = outer_schemas

    def eval(self, expr: ast.Expr) -> SQLValue:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.ColumnRef):
            assert expr.table is not None
            return self.scope.lookup(expr.table, expr.column)
        if isinstance(expr, ast.Unary):
            value = self.eval(expr.operand)
            if expr.op == "-":
                return None if value is None else -value  # type: ignore[operator]
            if expr.op == "NOT":
                truth = _as_truth(value)
                return None if truth is None else (not truth)
            raise SQLExecutionError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr)
        if isinstance(expr, ast.Between):
            value = self.eval(expr.operand)
            low = self.eval(expr.low)
            high = self.eval(expr.high)
            result = _and3(_compare("<=", low, value), _compare("<=", value, high))
            if expr.negated:
                return None if result is None else (not result)
            return result
        if isinstance(expr, ast.IsNull):
            value = self.eval(expr.operand)
            result = value is None
            return (not result) if expr.negated else result
        if isinstance(expr, ast.Like):
            operand = self.eval(expr.operand)
            pattern = self.eval(expr.pattern)
            if operand is None or pattern is None:
                return None
            matched = _like_match(str(operand), str(pattern))
            return (not matched) if expr.negated else matched
        if isinstance(expr, ast.FuncCall):
            return self._eval_scalar_function(expr)
        if isinstance(expr, ast.CaseWhen):
            for condition, result in expr.branches:
                if _as_truth(self.eval(condition)) is True:
                    return self.eval(result)
            return None if expr.otherwise is None else self.eval(expr.otherwise)
        if isinstance(expr, ast.ExistsExpr):
            return self._eval_exists(expr)
        if isinstance(expr, ast.InExpr):
            return self._eval_in(expr)
        if isinstance(expr, ast.ScalarSubquery):
            return self._eval_scalar_subquery(expr)
        raise SQLExecutionError(f"cannot evaluate {type(expr).__name__}")

    def eval_predicate(self, expr: ast.Expr) -> Optional[bool]:
        return _as_truth(self.eval(expr))

    # -- pieces -------------------------------------------------------------
    def _eval_binary(self, expr: ast.Binary) -> SQLValue:
        if expr.op == "AND":
            return _and3(
                _as_truth(self.eval(expr.left)), _as_truth(self.eval(expr.right))
            )
        if expr.op == "OR":
            return _or3(
                _as_truth(self.eval(expr.left)), _as_truth(self.eval(expr.right))
            )
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if expr.op in ("=", "!=", "<", "<=", ">", ">="):
            return _compare(expr.op, left, right)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right  # type: ignore[operator]
        if expr.op == "-":
            return left - right  # type: ignore[operator]
        if expr.op == "*":
            return left * right  # type: ignore[operator]
        if expr.op == "/":
            if right == 0:
                raise SQLExecutionError("division by zero")
            if isinstance(left, int) and isinstance(right, int):
                return left // right
            return left / right  # type: ignore[operator]
        if expr.op == "||":
            return str(left) + str(right)
        raise SQLExecutionError(f"unknown operator {expr.op!r}")

    def _eval_scalar_function(self, expr: ast.FuncCall) -> SQLValue:
        if expr.name in ast.AGGREGATE_FUNCTIONS:
            raise SQLExecutionError(
                f"aggregate {expr.name} outside aggregation context"
            )
        args = [self.eval(arg) for arg in expr.args]
        if expr.name == "ABS":
            return None if args[0] is None else abs(args[0])  # type: ignore[arg-type]
        if expr.name == "COALESCE":
            for value in args:
                if value is not None:
                    return value
            return None
        if expr.name == "GREATEST":
            present = [value for value in args if value is not None]
            return max(present) if present else None
        if expr.name == "LEAST":
            present = [value for value in args if value is not None]
            return min(present) if present else None
        if expr.name == "LENGTH":
            return None if args[0] is None else len(str(args[0]))
        if expr.name == "UPPER":
            return None if args[0] is None else str(args[0]).upper()
        if expr.name == "LOWER":
            return None if args[0] is None else str(args[0]).lower()
        raise SQLExecutionError(f"unknown function {expr.name!r}")

    # -- subqueries ---------------------------------------------------------
    def _eval_exists(self, expr: ast.ExistsExpr) -> SQLValue:
        plan = self.plan_cache.get(id(expr))
        if plan is None:
            plan = _build_semi_join_plan(self.database, expr.query, self)
            self.plan_cache[id(expr)] = plan
        self.database.stats.subquery_evaluations += 1
        if isinstance(plan, _SemiJoinPlan):
            found = plan.probe(self)
        else:
            result = self.database._select(expr.query, self.scope)
            found = bool(result.rows)
        return (not found) if expr.negated else found

    def _eval_in(self, expr: ast.InExpr) -> SQLValue:
        operand = self.eval(expr.operand)
        if expr.values is not None:
            if operand is None:
                return None
            saw_null = False
            for value_expr in expr.values:
                value = self.eval(value_expr)
                if value is None:
                    saw_null = True
                elif _compare("=", operand, value) is True:
                    return not expr.negated
            if saw_null:
                return None
            return expr.negated
        assert expr.query is not None
        plan = self.plan_cache.get(id(expr))
        if plan is None:
            plan = _build_in_plan(self.database, expr.query, self)
            self.plan_cache[id(expr)] = plan
        self.database.stats.subquery_evaluations += 1
        if operand is None:
            return None
        if isinstance(plan, _InSetPlan):
            found = plan.contains(operand)
        else:
            result = self.database._select(expr.query, self.scope)
            found = any(
                row[0] is not None and _compare("=", operand, row[0]) is True
                for row in result.rows
            )
        if found is None:
            return None
        return (not found) if expr.negated else found

    def _eval_scalar_subquery(self, expr: ast.ScalarSubquery) -> SQLValue:
        plan = self.plan_cache.get(id(expr))
        if plan is None:
            plan = _build_aggregate_plan(self.database, expr.query, self)
            self.plan_cache[id(expr)] = plan
        self.database.stats.subquery_evaluations += 1
        if isinstance(plan, _CorrelatedAggPlan):
            return plan.probe(self)
        result = self.database._select(expr.query, self.scope)
        if len(result.columns) != 1:
            raise SQLExecutionError("scalar subquery must select one column")
        if not result.rows:
            return None
        if len(result.rows) > 1:
            raise SQLExecutionError("scalar subquery returned several rows")
        return result.rows[0][0]


# ---------------------------------------------------------------------------
# three-valued logic and comparison
# ---------------------------------------------------------------------------
def _as_truth(value: SQLValue) -> Optional[bool]:
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    return bool(value)


def _and3(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _or3(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _like_match(value: str, pattern: str) -> bool:
    """SQL LIKE: ``%`` matches any run, ``_`` any single character."""
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern
    )
    return re.fullmatch(regex, value) is not None


def _compare(op: str, left: SQLValue, right: SQLValue) -> Optional[bool]:
    if left is None or right is None:
        return None
    left_num = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_num = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_num != right_num:
        if op == "=":
            return False
        if op == "!=":
            return True
        raise SQLExecutionError(
            f"cannot order {left!r} against {right!r}"
        )
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right  # type: ignore[operator]
    if op == "<=":
        return left <= right  # type: ignore[operator]
    if op == ">":
        return left > right  # type: ignore[operator]
    return left >= right  # '>='


# ---------------------------------------------------------------------------
# SELECT execution
# ---------------------------------------------------------------------------
class _SelectExecutor:
    """Runs one (possibly correlated) SELECT."""

    def __init__(self, database: Database, select: ast.Select, outer: _Scope):
        self.database = database
        self.select = select
        self.outer = outer
        self.relations: Dict[str, Relation] = {}
        self.schemas: Dict[str, Schema] = {}
        for table_ref in select.tables:
            relation = database.catalog.get(table_ref.name)
            if table_ref.alias in self.relations:
                raise SQLSyntaxError(
                    f"duplicate table alias {table_ref.alias!r}"
                )
            self.relations[table_ref.alias] = relation
            self.schemas[table_ref.alias] = _schema_of(relation)
        self.outer_schemas = _scope_schemas(outer)
        self.plan_cache: Dict[int, object] = {}

    # -- main ----------------------------------------------------------------
    def run(self) -> ResultSet:
        select = self.select
        where = (
            _resolve(select.where, self.schemas, self.outer_schemas)
            if select.where is not None
            else None
        )
        items = self._resolved_items()
        group_by = tuple(
            _resolve(expr, self.schemas, self.outer_schemas)
            for expr in select.group_by
        )
        having = (
            _resolve(select.having, self.schemas, self.outer_schemas)
            if select.having is not None
            else None
        )
        order_by = tuple(
            ast.OrderItem(
                _resolve(item.expr, self.schemas, self.outer_schemas),
                item.descending,
            )
            for item in select.order_by
        )

        scopes = self._join_pipeline(where)

        aggregated = bool(group_by) or self._has_aggregate(items, having)
        if aggregated:
            rows, columns = self._aggregate(scopes, items, group_by, having)
        else:
            rows, columns = self._project(scopes, items)

        if select.distinct:
            seen = set()
            unique: List[Row] = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique
        if order_by:
            rows = self._order(rows, columns, order_by, scopes, aggregated)
        if select.limit is not None:
            rows = rows[: select.limit]
        self.database.stats.rows_output += len(rows)
        return ResultSet(columns, rows)

    # -- select list -----------------------------------------------------------
    def _resolved_items(self) -> List[ast.SelectItem]:
        items: List[ast.SelectItem] = []
        for item in self.select.items:
            if isinstance(item, ast.StarItem):
                aliases = (
                    [item.table]
                    if item.table is not None
                    else [ref.alias for ref in self.select.tables]
                )
                for alias in aliases:
                    if alias not in self.schemas:
                        raise SQLCatalogError(f"unknown alias {alias!r}")
                    for column in self.relations[alias].columns:
                        items.append(
                            ast.SelectItem(
                                ast.ColumnRef(alias, column), column
                            )
                        )
            else:
                items.append(
                    ast.SelectItem(
                        _resolve(item.expr, self.schemas, self.outer_schemas),
                        item.alias,
                    )
                )
        return items

    @staticmethod
    def _column_names(items: Sequence[ast.SelectItem]) -> Tuple[str, ...]:
        names: List[str] = []
        for position, item in enumerate(items):
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.ColumnRef):
                names.append(item.expr.column)
            else:
                names.append(f"col{position + 1}")
        return tuple(names)

    # -- join pipeline -----------------------------------------------------------
    def _join_pipeline(self, where: Optional[ast.Expr]) -> List[_Scope]:
        conjuncts = _split_conjuncts(where)
        pending = list(conjuncts)
        bound: Set[str] = set()
        scopes: List[_Scope] = [_Scope(self.outer)]

        for table_ref in self.select.tables:
            alias = table_ref.alias
            relation = self.relations[alias]
            schema = self.schemas[alias]
            applicable: List[ast.Expr] = []
            rest: List[ast.Expr] = []
            for conjunct in pending:
                aliases = _aliases_in(conjunct)
                local_aliases = aliases & (set(self.schemas) | {_SUBQUERY_MARKER})
                if local_aliases <= bound | {alias} and (
                    _SUBQUERY_MARKER not in aliases
                    or bound | {alias} == set(self.schemas)
                ):
                    applicable.append(conjunct)
                else:
                    rest.append(conjunct)
            pending = rest
            scopes = self._extend(scopes, alias, relation, schema, applicable)
            bound.add(alias)

        if pending:
            # Conjuncts referencing no FROM alias at all (constants or only
            # outer references): filter once per scope.
            survivors: List[_Scope] = []
            for scope in scopes:
                evaluator = _Evaluator(
                    self.database, scope, self.plan_cache, self.outer_schemas
                )
                if all(
                    evaluator.eval_predicate(conjunct) is True
                    for conjunct in pending
                ):
                    survivors.append(scope)
            scopes = survivors
        return scopes

    def _extend(
        self,
        scopes: List[_Scope],
        alias: str,
        relation: Relation,
        schema: Schema,
        conjuncts: List[ast.Expr],
    ) -> List[_Scope]:
        equalities, ranges, residual = self._classify(alias, conjuncts)
        if equalities and ranges:
            # Hash probing wins; re-apply the range conjuncts as filters.
            residual = residual + [
                ast.Binary(op, ast.ColumnRef(alias, column), expr)
                for column, op, expr in ranges
            ]
            ranges = []

        hash_index: Optional[Dict[Tuple[SQLValue, ...], List[Row]]] = None
        if equalities:
            positions = [schema[column] for column, __ in equalities]
            hash_index = {}
            for row in relation.rows:
                key = tuple(row[position] for position in positions)
                if any(part is None for part in key):
                    continue
                hash_index.setdefault(key, []).append(row)

        sorted_probe = None
        if hash_index is None and ranges:
            sorted_probe = relation.sorted_column(ranges[0][0])

        out: List[_Scope] = []
        for scope in scopes:
            evaluator = _Evaluator(
                self.database, scope, self.plan_cache, self.outer_schemas
            )
            if hash_index is not None:
                key = tuple(
                    evaluator.eval(expr) for __, expr in equalities
                )
                candidates = (
                    [] if any(part is None for part in key)
                    else hash_index.get(key, [])
                )
            elif sorted_probe is not None:
                candidates = self._range_candidates(
                    sorted_probe, ranges, evaluator
                )
            else:
                candidates = relation.rows
            self.database.stats.rows_scanned += len(candidates)
            for row in candidates:
                child = _Scope(self.outer)
                child.frames.update(scope.frames)
                child.bind(alias, schema, row)
                child_eval = _Evaluator(
                    self.database, child, self.plan_cache, self.outer_schemas
                )
                keep = True
                for conjunct in residual:
                    if child_eval.eval_predicate(conjunct) is not True:
                        keep = False
                        break
                if keep:
                    out.append(child)
        return out

    def _classify(
        self, alias: str, conjuncts: List[ast.Expr]
    ) -> Tuple[
        List[Tuple[str, ast.Expr]],
        List[Tuple[str, str, ast.Expr]],
        List[ast.Expr],
    ]:
        """Split conjuncts into hash keys, range probes and residual filters.

        A *hash key* is ``alias.col = expr-not-referencing-alias``;
        a *range probe* is ``alias.col OP expr-not-referencing-alias``.
        Ranges are grouped on the first ranged column encountered.
        """
        equalities: List[Tuple[str, ast.Expr]] = []
        ranges: List[Tuple[str, str, ast.Expr]] = []
        residual: List[ast.Expr] = []
        range_column: Optional[str] = None
        for conjunct in conjuncts:
            simple = self._as_single_column_predicate(alias, conjunct)
            if simple is None:
                residual.append(conjunct)
                continue
            column, op, expr = simple
            if op == "=":
                equalities.append((column, expr))
            elif op in _RANGE_OPS:
                if range_column is None:
                    range_column = column
                if column == range_column:
                    ranges.append((column, op, expr))
                else:
                    residual.append(conjunct)
            else:
                residual.append(conjunct)
        return equalities, ranges, residual

    def _as_single_column_predicate(
        self, alias: str, conjunct: ast.Expr
    ) -> Optional[Tuple[str, str, ast.Expr]]:
        if not isinstance(conjunct, ast.Binary):
            return None
        if conjunct.op not in _RANGE_OPS | {"="}:
            return None
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if (
            isinstance(left, ast.ColumnRef)
            and left.table == alias
            and alias not in _aliases_in(right)
            and _SUBQUERY_MARKER not in _aliases_in(right)
        ):
            return left.column, op, right
        if (
            isinstance(right, ast.ColumnRef)
            and right.table == alias
            and alias not in _aliases_in(left)
            and _SUBQUERY_MARKER not in _aliases_in(left)
        ):
            return right.column, _FLIP[op], left
        return None

    def _range_candidates(self, sorted_probe, ranges, evaluator) -> List[Row]:
        low: Optional[SQLValue] = None
        high: Optional[SQLValue] = None
        low_inclusive = True
        high_inclusive = True
        for __, op, expr in ranges:
            value = evaluator.eval(expr)
            if value is None:
                return []
            if op in (">", ">="):
                candidate_inclusive = op == ">="
                if low is None or value > low or (
                    value == low and not candidate_inclusive
                ):
                    low = value
                    low_inclusive = candidate_inclusive
            else:
                candidate_inclusive = op == "<="
                if high is None or value < high or (
                    value == high and not candidate_inclusive
                ):
                    high = value
                    high_inclusive = candidate_inclusive
        return sorted_probe.rows_in_range(low, high, low_inclusive, high_inclusive)

    # -- projection / aggregation ------------------------------------------------
    def _project(
        self, scopes: List[_Scope], items: List[ast.SelectItem]
    ) -> Tuple[List[Row], Tuple[str, ...]]:
        rows: List[Row] = []
        for scope in scopes:
            evaluator = _Evaluator(
                self.database, scope, self.plan_cache, self.outer_schemas
            )
            rows.append(tuple(evaluator.eval(item.expr) for item in items))
        return rows, self._column_names(items)

    def _has_aggregate(
        self, items: Sequence[ast.SelectItem], having: Optional[ast.Expr]
    ) -> bool:
        def contains(expr: ast.Expr) -> bool:
            if isinstance(expr, ast.FuncCall):
                if expr.name in ast.AGGREGATE_FUNCTIONS:
                    return True
                return any(contains(arg) for arg in expr.args)
            if isinstance(expr, ast.Unary):
                return contains(expr.operand)
            if isinstance(expr, ast.Binary):
                return contains(expr.left) or contains(expr.right)
            if isinstance(expr, ast.Between):
                return (
                    contains(expr.operand)
                    or contains(expr.low)
                    or contains(expr.high)
                )
            if isinstance(expr, ast.IsNull):
                return contains(expr.operand)
            if isinstance(expr, ast.CaseWhen):
                return any(
                    contains(c) or contains(r) for c, r in expr.branches
                ) or (expr.otherwise is not None and contains(expr.otherwise))
            return False

        if any(contains(item.expr) for item in items):
            return True
        return having is not None and contains(having)

    def _aggregate(
        self,
        scopes: List[_Scope],
        items: List[ast.SelectItem],
        group_by: Tuple[ast.Expr, ...],
        having: Optional[ast.Expr],
    ) -> Tuple[List[Row], Tuple[str, ...]]:
        groups: Dict[Tuple[SQLValue, ...], List[_Scope]] = {}
        order: List[Tuple[SQLValue, ...]] = []
        for scope in scopes:
            evaluator = _Evaluator(
                self.database, scope, self.plan_cache, self.outer_schemas
            )
            key = tuple(evaluator.eval(expr) for expr in group_by)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(scope)
        if not group_by and not groups:
            groups[()] = []
            order.append(())

        rows: List[Row] = []
        for key in order:
            member_scopes = groups[key]
            if having is not None:
                value = self._eval_aggregate_expr(
                    having, member_scopes, group_by, key
                )
                if _as_truth(value) is not True:
                    continue
            rows.append(
                tuple(
                    self._eval_aggregate_expr(
                        item.expr, member_scopes, group_by, key
                    )
                    for item in items
                )
            )
        return rows, self._column_names(items)

    def _eval_aggregate_expr(
        self,
        expr: ast.Expr,
        member_scopes: List[_Scope],
        group_by: Tuple[ast.Expr, ...],
        key: Tuple[SQLValue, ...],
    ) -> SQLValue:
        # Grouped expressions evaluate to their key value.
        for position, group_expr in enumerate(group_by):
            if expr == group_expr:
                return key[position]
        if isinstance(expr, ast.FuncCall) and expr.name in ast.AGGREGATE_FUNCTIONS:
            return self._eval_aggregate_call(expr, member_scopes)
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Unary):
            inner = self._eval_aggregate_expr(
                expr.operand, member_scopes, group_by, key
            )
            if expr.op == "-":
                return None if inner is None else -inner  # type: ignore[operator]
            truth = _as_truth(inner)
            return None if truth is None else (not truth)
        if isinstance(expr, ast.Binary):
            left = self._eval_aggregate_expr(
                expr.left, member_scopes, group_by, key
            )
            right = self._eval_aggregate_expr(
                expr.right, member_scopes, group_by, key
            )
            return _Evaluator(
                self.database, _Scope(self.outer), self.plan_cache
            )._eval_binary(
                ast.Binary(expr.op, ast.Literal(left), ast.Literal(right))
            )
        if isinstance(expr, ast.FuncCall):
            args = tuple(
                ast.Literal(
                    self._eval_aggregate_expr(a, member_scopes, group_by, key)
                )
                for a in expr.args
            )
            return _Evaluator(
                self.database, _Scope(self.outer), self.plan_cache
            )._eval_scalar_function(ast.FuncCall(expr.name, args))
        if isinstance(expr, ast.ColumnRef):
            raise SQLExecutionError(
                f"column {expr.table}.{expr.column} is neither grouped nor "
                "aggregated"
            )
        raise SQLExecutionError(
            f"unsupported expression in aggregation: {type(expr).__name__}"
        )

    def _eval_aggregate_call(
        self, expr: ast.FuncCall, member_scopes: List[_Scope]
    ) -> SQLValue:
        if expr.star:
            if expr.name != "COUNT":
                raise SQLExecutionError(f"{expr.name}(*) is not valid")
            return len(member_scopes)
        if len(expr.args) != 1:
            raise SQLExecutionError(
                f"aggregate {expr.name} takes exactly one argument"
            )
        values: List[SQLValue] = []
        for scope in member_scopes:
            evaluator = _Evaluator(
                self.database, scope, self.plan_cache, self.outer_schemas
            )
            value = evaluator.eval(expr.args[0])
            if value is not None:
                values.append(value)
        if expr.distinct:
            values = list(dict.fromkeys(values))
        if expr.name == "COUNT":
            return len(values)
        if not values:
            return None
        if expr.name == "SUM":
            return sum(values)  # type: ignore[arg-type]
        if expr.name == "MIN":
            return min(values)  # type: ignore[type-var]
        if expr.name == "MAX":
            return max(values)  # type: ignore[type-var]
        if expr.name == "AVG":
            return sum(values) / len(values)  # type: ignore[arg-type]
        raise SQLExecutionError(f"unknown aggregate {expr.name}")

    # -- ordering -----------------------------------------------------------
    def _order(
        self,
        rows: List[Row],
        columns: Tuple[str, ...],
        order_by: Tuple[ast.OrderItem, ...],
        scopes: List[_Scope],
        aggregated: bool,
    ) -> List[Row]:
        # ORDER BY may reference output columns by name (common case) or,
        # for non-aggregated queries, any expression over the source rows.
        def sort_key(indexed: Tuple[int, Row]):
            position, row = indexed
            parts = []
            for item in order_by:
                value = self._order_value(item.expr, row, columns, position, scopes, aggregated)
                # None sorts first ascending; invert for DESC via wrapper.
                rank = (value is not None, value)
                parts.append(_Descending(rank) if item.descending else rank)
            return tuple(parts)

        decorated = sorted(enumerate(rows), key=sort_key)
        return [row for __, row in decorated]

    def _order_value(self, expr, row, columns, position, scopes, aggregated):
        if isinstance(expr, ast.ColumnRef) and expr.column in columns:
            # prefer output column
            candidates = [
                index for index, name in enumerate(columns) if name == expr.column
            ]
            if len(candidates) == 1:
                return row[candidates[0]]
        if not aggregated and position < len(scopes):
            evaluator = _Evaluator(
                self.database,
                scopes[position],
                self.plan_cache,
                self.outer_schemas,
            )
            return evaluator.eval(expr)
        raise SQLExecutionError(
            "ORDER BY expression must name an output column"
        )


class _Descending:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and other.value == self.value


def _scope_schemas(scope: _Scope) -> Tuple[Dict[str, Schema], ...]:
    collected: List[Dict[str, Schema]] = []
    current: Optional[_Scope] = scope
    while current is not None:
        if current.frames:
            collected.append(
                {alias: schema for alias, (schema, __) in current.frames.items()}
            )
        current = current.parent
    return tuple(collected)


# ---------------------------------------------------------------------------
# subquery plans (decorrelation)
# ---------------------------------------------------------------------------
class _GenericPlan:
    """Fallback: re-execute the subquery per outer row."""


class _SemiJoinPlan:
    """[NOT] EXISTS with equality-only correlation → hash set probe."""

    __slots__ = ("outer_exprs", "keys")

    def __init__(self, outer_exprs: List[ast.Expr], keys: Set[Tuple[SQLValue, ...]]):
        self.outer_exprs = outer_exprs
        self.keys = keys

    def probe(self, evaluator: _Evaluator) -> bool:
        key = tuple(
            _canonical(evaluator.eval(expr)) for expr in self.outer_exprs
        )
        if any(part is None for part in key):
            return False
        return key in self.keys


class _InSetPlan:
    """Uncorrelated IN subquery → materialised value set."""

    __slots__ = ("numeric", "other", "saw_null")

    def __init__(self, values: Iterable[SQLValue]):
        self.numeric: Set[float] = set()
        self.other: Set[SQLValue] = set()
        self.saw_null = False
        for value in values:
            if value is None:
                self.saw_null = True
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                self.numeric.add(float(value))
            else:
                self.other.add(value)

    def contains(self, operand: SQLValue) -> Optional[bool]:
        if operand is None:
            return None
        if isinstance(operand, (int, float)) and not isinstance(operand, bool):
            found = float(operand) in self.numeric
        else:
            found = operand in self.other
        if found:
            return True
        return None if self.saw_null else False


class _CorrelatedAggPlan:
    """Scalar MIN/MAX with equality + one range correlation.

    Precomputes, per equality-correlation group, the inner rows sorted by
    the ranged column together with running prefix/suffix aggregates; each
    probe is then a dictionary lookup plus a bisection.
    """

    __slots__ = ("outer_eq_exprs", "outer_range_expr", "range_op", "func", "groups")

    def __init__(
        self,
        outer_eq_exprs: List[ast.Expr],
        outer_range_expr: Optional[ast.Expr],
        range_op: Optional[str],
        func: str,
        grouped_rows: Dict[Tuple[SQLValue, ...], List[Tuple[SQLValue, SQLValue]]],
    ):
        self.outer_eq_exprs = outer_eq_exprs
        self.outer_range_expr = outer_range_expr
        self.range_op = range_op  # local-col OP outer-value, local on left
        self.func = func  # MIN or MAX
        self.groups: Dict[Tuple[SQLValue, ...], Tuple[List[SQLValue], List[SQLValue], List[SQLValue]]] = {}
        better = min if func == "MIN" else max
        for key, pairs in grouped_rows.items():
            pairs.sort(key=lambda pair: pair[0])
            keys = [pair[0] for pair in pairs]
            values = [pair[1] for pair in pairs]
            prefix: List[SQLValue] = []
            best: Optional[SQLValue] = None
            for value in values:
                best = value if best is None else better(best, value)
                prefix.append(best)
            suffix: List[SQLValue] = [None] * len(values)
            best = None
            for position in range(len(values) - 1, -1, -1):
                best = (
                    values[position]
                    if best is None
                    else better(best, values[position])
                )
                suffix[position] = best
            self.groups[key] = (keys, prefix, suffix)

    def probe(self, evaluator: _Evaluator) -> SQLValue:
        key = tuple(
            _canonical(evaluator.eval(expr)) for expr in self.outer_eq_exprs
        )
        group = self.groups.get(key)
        if group is None:
            return None
        keys, prefix, suffix = group
        if self.outer_range_expr is None:
            return suffix[0] if suffix else None
        bound = evaluator.eval(self.outer_range_expr)
        if bound is None:
            return None
        op = self.range_op
        if op in (">", ">="):
            # qualifying rows: keys OP bound → suffix from first index
            start = (
                bisect.bisect_left(keys, bound)
                if op == ">="
                else bisect.bisect_right(keys, bound)
            )
            if start >= len(keys):
                return None
            return suffix[start]
        # '<' or '<=': prefix up to last qualifying index
        stop = (
            bisect.bisect_right(keys, bound)
            if op == "<="
            else bisect.bisect_left(keys, bound)
        )
        if stop <= 0:
            return None
        return prefix[stop - 1]


def _canonical(value: SQLValue) -> SQLValue:
    """Numeric values compare across int/float in SQL; canonicalise keys."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return value


def _analyse_simple_subquery(
    database: Database, query: ast.Select, evaluator: _Evaluator
):
    """Common analysis for the decorrelation plans.

    Returns ``None`` when the query is outside the simple shape (single
    table, conjunctive WHERE, no nested subqueries/aggregation clauses), or
    ``(alias, relation, local_conjuncts, eq_pairs, range_pairs)`` where
    ``eq_pairs``/``range_pairs`` hold ``(local_column, outer_expr[, op])``.
    """
    if (
        len(query.tables) != 1
        or query.group_by
        or query.having is not None
        or query.order_by
        or query.limit is not None
        or query.distinct
    ):
        return None
    table_ref = query.tables[0]
    try:
        relation = database.catalog.get(table_ref.name)
    except SQLCatalogError:
        return None
    alias = table_ref.alias
    local_schema = {alias: _schema_of(relation)}
    outer_schemas = _scope_schemas(evaluator.scope)
    try:
        where = (
            _resolve(query.where, local_schema, outer_schemas)
            if query.where is not None
            else None
        )
    except (SQLCatalogError, SQLSyntaxError):
        return None
    local_conjuncts: List[ast.Expr] = []
    eq_pairs: List[Tuple[str, ast.Expr]] = []
    range_pairs: List[Tuple[str, str, ast.Expr]] = []
    for conjunct in _split_conjuncts(where):
        aliases = _aliases_in(conjunct)
        if _SUBQUERY_MARKER in aliases:
            return None
        if aliases <= {alias}:
            local_conjuncts.append(conjunct)
            continue
        if alias not in aliases:
            # purely outer condition: treat as a residual correlation we
            # cannot hash; bail to the generic path.
            return None
        if not isinstance(conjunct, ast.Binary):
            return None
        op = conjunct.op
        if op not in _RANGE_OPS | {"="}:
            return None
        left, right = conjunct.left, conjunct.right
        if (
            isinstance(left, ast.ColumnRef)
            and left.table == alias
            and alias not in _aliases_in(right)
        ):
            column, outer_expr = left.column, right
        elif (
            isinstance(right, ast.ColumnRef)
            and right.table == alias
            and alias not in _aliases_in(left)
        ):
            column, outer_expr, op = right.column, left, _FLIP[op]
        else:
            return None
        if op == "=":
            eq_pairs.append((column, outer_expr))
        else:
            range_pairs.append((column, op, outer_expr))
    return alias, relation, local_conjuncts, eq_pairs, range_pairs, where


def _filtered_rows(
    database: Database,
    relation: Relation,
    alias: str,
    local_conjuncts: List[ast.Expr],
) -> List[Row]:
    schema = _schema_of(relation)
    if not local_conjuncts:
        database.stats.rows_scanned += len(relation.rows)
        return list(relation.rows)
    kept: List[Row] = []
    for row in relation.rows:
        scope = _Scope()
        scope.bind(alias, schema, row)
        evaluator = _Evaluator(database, scope, {})
        if all(
            evaluator.eval_predicate(conjunct) is True
            for conjunct in local_conjuncts
        ):
            kept.append(row)
    database.stats.rows_scanned += len(relation.rows)
    return kept


def _build_semi_join_plan(
    database: Database, query: ast.Select, evaluator: _Evaluator
):
    analysis = _analyse_simple_subquery(database, query, evaluator)
    if analysis is None:
        return _GenericPlan()
    alias, relation, local_conjuncts, eq_pairs, range_pairs, __ = analysis
    if range_pairs:
        return _GenericPlan()
    schema = _schema_of(relation)
    rows = _filtered_rows(database, relation, alias, local_conjuncts)
    keys: Set[Tuple[SQLValue, ...]] = set()
    positions = [schema[column] for column, __ in eq_pairs]
    for row in rows:
        key = tuple(_canonical(row[position]) for position in positions)
        if any(part is None for part in key):
            continue
        keys.add(key)
    return _SemiJoinPlan([expr for __, expr in eq_pairs], keys)


def _build_in_plan(
    database: Database, query: ast.Select, evaluator: _Evaluator
):
    analysis = _analyse_simple_subquery(database, query, evaluator)
    if analysis is None:
        return _GenericPlan()
    alias, relation, local_conjuncts, eq_pairs, range_pairs, __ = analysis
    if eq_pairs or range_pairs:
        return _GenericPlan()
    if len(query.items) != 1 or isinstance(query.items[0], ast.StarItem):
        return _GenericPlan()
    item = query.items[0]
    schema = _schema_of(relation)
    local_schema = {alias: schema}
    try:
        expr = _resolve(item.expr, local_schema, ())
    except (SQLCatalogError, SQLSyntaxError):
        return _GenericPlan()
    rows = _filtered_rows(database, relation, alias, local_conjuncts)
    values: List[SQLValue] = []
    for row in rows:
        scope = _Scope()
        scope.bind(alias, schema, row)
        values.append(_Evaluator(database, scope, {}).eval(expr))
    return _InSetPlan(values)


def _build_aggregate_plan(
    database: Database, query: ast.Select, evaluator: _Evaluator
):
    analysis = _analyse_simple_subquery(database, query, evaluator)
    if analysis is None:
        return _GenericPlan()
    alias, relation, local_conjuncts, eq_pairs, range_pairs, __ = analysis
    if len(range_pairs) > 1:
        return _GenericPlan()
    if len(query.items) != 1 or isinstance(query.items[0], ast.StarItem):
        return _GenericPlan()
    item = query.items[0]
    expr = item.expr
    if not (
        isinstance(expr, ast.FuncCall)
        and expr.name in ("MIN", "MAX")
        and not expr.star
        and len(expr.args) == 1
        and isinstance(expr.args[0], ast.ColumnRef)
    ):
        return _GenericPlan()
    schema = _schema_of(relation)
    agg_ref = expr.args[0]
    agg_column = agg_ref.column
    if agg_ref.table not in (None, alias) or agg_column not in schema:
        return _GenericPlan()
    agg_position = schema[agg_column]

    rows = _filtered_rows(database, relation, alias, local_conjuncts)
    eq_positions = [schema[column] for column, __ in eq_pairs]
    if range_pairs:
        range_column, range_op, range_expr = range_pairs[0]
        range_position = schema[range_column]
    else:
        range_op, range_expr, range_position = None, None, None

    grouped: Dict[Tuple[SQLValue, ...], List[Tuple[SQLValue, SQLValue]]] = {}
    for row in rows:
        agg_value = row[agg_position]
        if agg_value is None:
            continue
        key = tuple(_canonical(row[position]) for position in eq_positions)
        if any(part is None for part in key):
            continue
        if range_position is not None:
            range_key = row[range_position]
            if range_key is None:
                continue
        else:
            range_key = 0
        grouped.setdefault(key, []).append((range_key, agg_value))
    return _CorrelatedAggPlan(
        [outer for __, outer in eq_pairs],
        range_expr,
        range_op,
        expr.name,
        grouped,
    )
