"""Abstract syntax tree for the HiveQL subset.

Pure data: no evaluation logic lives here (see :mod:`repro.exec.expressions`
for compilation and :mod:`repro.plan.analyzer` for name resolution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Expression:
    """Marker base class for expression nodes."""

    def children(self) -> List["Expression"]:
        return []


@dataclass(frozen=True)
class Literal(Expression):
    value: object  # int, float, str, bool or None

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return "NULL" if self.value is None else str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str
    table: Optional[str] = None  # alias qualifier, e.g. l.l_orderkey

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``alias.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # '+', '-', '*', '/', '%', '=', '<>', '<', '<=', '>', '>=', 'and', 'or'
    left: Expression
    right: Expression

    def children(self) -> List[Expression]:
        return [self.left, self.right]

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # '-', 'not'
    operand: Expression

    def children(self) -> List[Expression]:
        return [self.operand]

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str  # lowercase
    args: List[Expression] = field(default_factory=list)
    distinct: bool = False  # COUNT(DISTINCT x)

    def children(self) -> List[Expression]:
        return list(self.args)

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        prefix = "distinct " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"


@dataclass(frozen=True)
class CaseWhen(Expression):
    """Searched CASE: WHEN cond THEN value ... [ELSE value] END."""

    branches: List[Tuple[Expression, Expression]] = field(default_factory=list)
    else_value: Optional[Expression] = None

    def children(self) -> List[Expression]:
        out: List[Expression] = []
        for condition, value in self.branches:
            out.append(condition)
            out.append(value)
        if self.else_value is not None:
            out.append(self.else_value)
        return out

    def __str__(self) -> str:
        parts = " ".join(f"when {c} then {v}" for c, v in self.branches)
        suffix = f" else {self.else_value}" if self.else_value else ""
        return f"case {parts}{suffix} end"


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand, self.low, self.high]


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    items: List[Expression] = field(default_factory=list)
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand] + list(self.items)


@dataclass(frozen=True)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT single_column ...)`` — uncorrelated only.

    The analyzer rewrites it into a (anti-)join against the DISTINCT
    subquery, the same transformation the TPC-H-on-Hive port applies by
    hand.
    """

    operand: Expression = None
    query: object = None  # Select / UnionAll
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand]


@dataclass(frozen=True)
class Like(Expression):
    operand: Expression
    pattern: Expression  # must evaluate to a string with % and _
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand, self.pattern]


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def children(self) -> List[Expression]:
        return [self.operand]


@dataclass(frozen=True)
class Cast(Expression):
    operand: Expression
    type_name: str

    def children(self) -> List[Expression]:
        return [self.operand]


# ---------------------------------------------------------------------------
# FROM clause sources
# ---------------------------------------------------------------------------

class Source:
    """Marker base class for FROM-clause items."""


@dataclass(frozen=True)
class TableRef(Source):
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return (self.alias or self.name).lower()


@dataclass(frozen=True)
class SubquerySource(Source):
    query: "Select"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias.lower()


@dataclass(frozen=True)
class Join(Source):
    left: Source
    right: Source
    join_type: str  # 'inner' | 'left'
    condition: Optional[Expression]  # ON clause (None only for cross joins)


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem:
    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class Select:
    items: List[SelectItem]
    source: Optional[Source]
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: List[ColumnDef]
    format_name: Optional[str] = None  # STORED AS ...
    if_not_exists: bool = False
    partition_columns: List[ColumnDef] = field(default_factory=list)


@dataclass(frozen=True)
class CreateTableAsSelect:
    name: str
    query: Select
    format_name: Optional[str] = None


@dataclass(frozen=True)
class DropTable:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class InsertOverwrite:
    table: str
    query: "Statement"  # Select or UnionAll
    overwrite: bool = True  # False = INSERT INTO (append)
    # static partition spec: PARTITION (col = literal, ...)
    partition: List[Tuple[str, object]] = field(default_factory=list)


@dataclass(frozen=True)
class UnionAll:
    """UNION ALL of two or more selects (bag semantics, Hive-style)."""

    branches: List["Select"] = field(default_factory=list)


@dataclass(frozen=True)
class SetOption:
    key: str
    value: str


@dataclass(frozen=True)
class Explain:
    """EXPLAIN <statement>: show the physical plan without running it."""

    target: "Statement"


@dataclass(frozen=True)
class AnalyzeTable:
    """ANALYZE TABLE t COMPUTE STATISTICS [FOR COLUMNS].

    ``with_columns=False`` gathers only basic stats (row count, bytes);
    ``FOR COLUMNS`` additionally scans rows to build NDV and
    heavy-hitter sketches per column.
    """

    name: str
    with_columns: bool = False


Statement = Union[
    Select,
    UnionAll,
    CreateTable,
    CreateTableAsSelect,
    DropTable,
    InsertOverwrite,
    SetOption,
    Explain,
    AnalyzeTable,
]


def walk_expression(expression: Expression):
    """Depth-first pre-order generator over an expression tree."""
    yield expression
    for child in expression.children():
        yield from walk_expression(child)
