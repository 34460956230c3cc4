"""AST of the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------
class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    value: Union[str, int, float, None, bool]


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A column reference, optionally qualified: ``alias.column``."""

    table: Optional[str]
    column: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'NOT', '-'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # comparison, arithmetic, AND, OR
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar or aggregate function call; ``star`` marks ``COUNT(*)``."""

    name: str
    args: Tuple[Expr, ...]
    star: bool = False
    distinct: bool = False


@dataclass(frozen=True)
class CaseWhen(Expr):
    branches: Tuple[Tuple[Expr, Expr], ...]
    otherwise: Optional[Expr]


@dataclass(frozen=True)
class ExistsExpr(Expr):
    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class InExpr(Expr):
    operand: Expr
    values: Optional[Tuple[Expr, ...]]  # literal list form
    query: Optional["Select"]  # subquery form
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    query: "Select"


@dataclass(frozen=True)
class Like(Expr):
    """SQL LIKE pattern match (``%`` any run, ``_`` any one char)."""

    operand: Expr
    pattern: Expr
    negated: bool = False


AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "MIN", "MAX", "AVG"})
SCALAR_FUNCTIONS = frozenset(
    {"ABS", "COALESCE", "GREATEST", "LEAST", "LENGTH", "UPPER", "LOWER"}
)


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------
class Statement:
    __slots__ = ()


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: str  # 'INTEGER', 'REAL', 'TEXT'


@dataclass(frozen=True)
class CreateTable(Statement):
    name: str
    columns: Tuple[ColumnDef, ...]
    if_not_exists: bool = False


@dataclass(frozen=True)
class CreateIndex(Statement):
    name: str
    table: str
    columns: Tuple[str, ...]


@dataclass(frozen=True)
class DropTable(Statement):
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class InsertValues(Statement):
    table: str
    columns: Tuple[str, ...]  # empty = all, in declared order
    rows: Tuple[Tuple[Expr, ...], ...]


@dataclass(frozen=True)
class InsertSelect(Statement):
    table: str
    columns: Tuple[str, ...]
    query: "SelectLike"


@dataclass(frozen=True)
class Delete(Statement):
    table: str
    where: Optional[Expr]


@dataclass(frozen=True)
class Update(Statement):
    table: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr]


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class StarItem:
    """``*`` or ``alias.*`` in a select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select(Statement):
    items: Tuple[Union[SelectItem, StarItem], ...]
    tables: Tuple[TableRef, ...]
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class UnionAll(Statement):
    parts: Tuple[Select, ...]


SelectLike = Union[Select, UnionAll]
