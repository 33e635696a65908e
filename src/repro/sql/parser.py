"""Recursive-descent parser for the HiveQL subset.

Produces :mod:`repro.sql.ast` nodes.  Operator precedence (low to high):
``OR`` < ``AND`` < ``NOT`` < predicates (comparisons, BETWEEN, IN, LIKE,
IS NULL) < ``+ -`` < ``* / %`` < unary minus < primary.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from repro.common.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import Lexer, Token, TokenType

_COMPARISONS = ("=", "<>", "!=", "<", "<=", ">", ">=")


class Parser:
    def __init__(self, text: str):
        self.tokens = Lexer(text).tokenize()
        self.pos = 0

    # -- token helpers ----------------------------------------------------------
    def _peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(f"{message} (found {token})", token.line, token.column)

    def _expect_keyword(self, *names: str) -> Token:
        token = self._peek()
        if token.is_keyword(*names):
            return self._advance()
        raise self._error(f"expected {'/'.join(names).upper()}")

    def _expect_punct(self, char: str) -> Token:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.text == char:
            return self._advance()
        raise self._error(f"expected {char!r}")

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._peek().is_keyword(*names):
            return self._advance()
        return None

    def _accept_punct(self, char: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.text == char:
            self._advance()
            return True
        return False

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type is TokenType.IDENT:
            self._advance()
            return token.text
        # Non-reserved use of soft keywords as identifiers (e.g. a column
        # named "year") is not supported; workloads avoid it.
        raise self._error("expected identifier")

    # -- entry points ----------------------------------------------------------
    def parse_script(self) -> List[ast.Statement]:
        statements: List[ast.Statement] = []
        while self._peek().type is not TokenType.EOF:
            if self._accept_punct(";"):
                continue
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.is_keyword("explain"):
            self._advance()
            return ast.Explain(self.parse_statement())
        if token.is_keyword("select"):
            return self.parse_query()
        if token.is_keyword("create"):
            return self._parse_create()
        if token.is_keyword("drop"):
            return self._parse_drop()
        if token.is_keyword("insert"):
            return self._parse_insert()
        if token.is_keyword("set"):
            return self._parse_set()
        if token.is_keyword("analyze"):
            return self._parse_analyze()
        raise self._error("expected a statement")

    def parse_query(self):
        """SELECT possibly followed by UNION ALL branches."""
        first = self.parse_select()
        if not self._peek().is_keyword("union"):
            return first
        branches = [first]
        while self._accept_keyword("union"):
            self._expect_keyword("all")
            branches.append(self.parse_select())
        return ast.UnionAll(branches)

    # -- statements -------------------------------------------------------------
    def _parse_create(self) -> ast.Statement:
        self._expect_keyword("create")
        self._expect_keyword("table")
        if_not_exists = False
        if self._accept_keyword("if"):
            self._expect_keyword("not")
            self._expect_keyword("exists")
            if_not_exists = True
        name = self._expect_ident()
        if self._peek().type is TokenType.PUNCT and self._peek().text == "(":
            columns = self._parse_column_defs()
            partition_columns: List[ast.ColumnDef] = []
            if self._accept_keyword("partitioned"):
                self._expect_keyword("by")
                partition_columns = self._parse_column_defs()
            format_name = self._parse_stored_as()
            return ast.CreateTable(
                name, columns, format_name, if_not_exists, partition_columns
            )
        format_name = self._parse_stored_as()
        self._expect_keyword("as")
        query = self.parse_query()
        return ast.CreateTableAsSelect(name, query, format_name)

    def _parse_column_defs(self) -> List[ast.ColumnDef]:
        self._expect_punct("(")
        columns: List[ast.ColumnDef] = []
        while True:
            column_name = self._expect_ident()
            type_name = self._expect_ident()
            columns.append(ast.ColumnDef(column_name, type_name))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return columns

    def _parse_stored_as(self) -> Optional[str]:
        if self._accept_keyword("stored"):
            self._expect_keyword("as")
            token = self._peek()
            if token.type in (TokenType.IDENT, TokenType.KEYWORD):
                self._advance()
                alias_map = {"textfile": "text", "sequencefile": "sequence", "orcfile": "orc"}
                return alias_map.get(token.text, token.text)
            raise self._error("expected format name after STORED AS")
        return None

    def _parse_drop(self) -> ast.DropTable:
        self._expect_keyword("drop")
        self._expect_keyword("table")
        if_exists = False
        if self._accept_keyword("if"):
            self._expect_keyword("exists")
            if_exists = True
        return ast.DropTable(self._expect_ident(), if_exists)

    def _parse_analyze(self) -> ast.AnalyzeTable:
        self._expect_keyword("analyze")
        self._expect_keyword("table")
        name = self._expect_ident()
        self._expect_keyword("compute")
        self._expect_keyword("statistics")
        with_columns = False
        # FOR COLUMNS — both words lex as identifiers (they stay usable
        # as column names elsewhere), so match on their text
        token = self._peek()
        if token.type is TokenType.IDENT and token.text == "for":
            self._advance()
            columns_token = self._peek()
            if not (
                columns_token.type is TokenType.IDENT
                and columns_token.text == "columns"
            ):
                raise self._error("expected COLUMNS after FOR")
            self._advance()
            with_columns = True
        return ast.AnalyzeTable(name, with_columns)

    def _parse_insert(self) -> ast.InsertOverwrite:
        self._expect_keyword("insert")
        if self._accept_keyword("overwrite"):
            overwrite = True
        else:
            self._expect_keyword("into")
            overwrite = False
        self._expect_keyword("table")
        name = self._expect_ident()
        partition: List[tuple] = []
        if self._accept_keyword("partition"):
            self._expect_punct("(")
            while True:
                column = self._expect_ident()
                token = self._peek()
                if not (token.type is TokenType.OPERATOR and token.text == "="):
                    raise self._error("expected '=' in PARTITION spec")
                self._advance()
                value = self._parse_primary()
                if not isinstance(value, ast.Literal):
                    raise self._error("PARTITION values must be literals")
                partition.append((column, value.value))
                if not self._accept_punct(","):
                    break
            self._expect_punct(")")
        return ast.InsertOverwrite(name, self.parse_query(), overwrite, partition)

    def _parse_set(self) -> ast.SetOption:
        self._expect_keyword("set")
        pieces = [self._expect_ident()]
        while self._accept_punct("."):
            token = self._peek()
            if token.type in (TokenType.IDENT, TokenType.KEYWORD):
                self._advance()
                pieces.append(token.text)
            else:
                raise self._error("expected configuration key segment")
        key = ".".join(pieces)
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "=":
            self._advance()
        else:
            raise self._error("expected '=' in SET")
        value_parts: List[str] = []
        while self._peek().type is not TokenType.EOF and not (
            self._peek().type is TokenType.PUNCT and self._peek().text == ";"
        ):
            value_parts.append(self._advance().raw)
        return ast.SetOption(key, " ".join(value_parts))

    # -- SELECT -------------------------------------------------------------------
    def parse_select(self) -> ast.Select:
        self._expect_keyword("select")
        distinct = bool(self._accept_keyword("distinct"))
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())

        source: Optional[ast.Source] = None
        if self._accept_keyword("from"):
            source = self._parse_source()

        where = self.parse_expression() if self._accept_keyword("where") else None

        group_by: List[ast.Expression] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self.parse_expression())
            while self._accept_punct(","):
                group_by.append(self.parse_expression())

        having = self.parse_expression() if self._accept_keyword("having") else None

        order_by: List[ast.OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())

        limit: Optional[int] = None
        if self._accept_keyword("limit"):
            token = self._peek()
            if token.type is not TokenType.NUMBER:
                raise self._error("expected number after LIMIT")
            self._advance()
            limit = int(token.text)

        return ast.Select(
            items=items,
            source=source,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "*":
            self._advance()
            return ast.SelectItem(ast.Star())
        expression = self.parse_expression()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().text
        return ast.SelectItem(expression, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expression = self.parse_expression()
        ascending = True
        if self._accept_keyword("desc"):
            ascending = False
        else:
            self._accept_keyword("asc")
        return ast.OrderItem(expression, ascending)

    # -- FROM ----------------------------------------------------------------------
    def _parse_source(self) -> ast.Source:
        source = self._parse_source_primary()
        while True:
            token = self._peek()
            if token.is_keyword("join", "inner"):
                self._accept_keyword("inner")
                self._expect_keyword("join")
                right = self._parse_source_primary()
                self._expect_keyword("on")
                condition = self.parse_expression()
                source = ast.Join(source, right, "inner", condition)
            elif token.is_keyword("left"):
                self._advance()
                self._accept_keyword("outer")
                self._expect_keyword("join")
                right = self._parse_source_primary()
                self._expect_keyword("on")
                condition = self.parse_expression()
                source = ast.Join(source, right, "left", condition)
            elif token.is_keyword("cross"):
                self._advance()
                self._expect_keyword("join")
                right = self._parse_source_primary()
                source = ast.Join(source, right, "inner", None)
            elif token.type is TokenType.PUNCT and token.text == ",":
                self._advance()
                right = self._parse_source_primary()
                source = ast.Join(source, right, "inner", None)
            else:
                return source

    def _parse_source_primary(self) -> ast.Source:
        if self._accept_punct("("):
            query = self.parse_query()
            self._expect_punct(")")
            self._accept_keyword("as")
            alias = self._expect_ident()
            return ast.SubquerySource(query, alias)
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().type is TokenType.IDENT:
            alias = self._advance().text
        return ast.TableRef(name, alias)

    # -- expressions ------------------------------------------------------------------
    def parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("or"):
            left = ast.BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("and"):
            left = ast.BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("not"):
            return ast.UnaryOp("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        left = self._parse_additive()
        token = self._peek()

        if token.type is TokenType.OPERATOR and token.text in _COMPARISONS:
            op = self._advance().text
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self._parse_additive())

        negated = False
        if token.is_keyword("not"):
            # NOT BETWEEN / NOT IN / NOT LIKE
            lookahead = self._peek(1)
            if lookahead.is_keyword("between", "in", "like"):
                self._advance()
                negated = True
                token = self._peek()

        if token.is_keyword("between"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)

        if token.is_keyword("in"):
            self._advance()
            self._expect_punct("(")
            if self._peek().is_keyword("select"):
                query = self.parse_query()
                self._expect_punct(")")
                return ast.InSubquery(left, query, negated)
            items = [self.parse_expression()]
            while self._accept_punct(","):
                items.append(self.parse_expression())
            self._expect_punct(")")
            return ast.InList(left, items, negated)

        if token.is_keyword("like"):
            self._advance()
            return ast.Like(left, self._parse_additive(), negated)

        if token.is_keyword("is"):
            self._advance()
            is_negated = bool(self._accept_keyword("not"))
            self._expect_keyword("null")
            return ast.IsNull(left, is_negated)

        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.text in ("+", "-", "||"):
                op = self._advance().text
                right = self._parse_multiplicative()
                if op == "||":
                    left = ast.FunctionCall("concat", [left, right])
                else:
                    left = ast.BinaryOp(op, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.type is TokenType.OPERATOR and token.text in ("*", "/", "%"):
                op = self._advance().text
                left = ast.BinaryOp(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.text == "-":
            self._advance()
            return ast.UnaryOp("-", self._parse_unary())
        if token.type is TokenType.OPERATOR and token.text == "+":
            self._advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()

        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))

        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.text)

        if token.is_keyword("null"):
            self._advance()
            return ast.Literal(None)

        if token.is_keyword("true"):
            self._advance()
            return ast.Literal(True)

        if token.is_keyword("false"):
            self._advance()
            return ast.Literal(False)

        if token.is_keyword("case"):
            return self._parse_case()

        if token.is_keyword("cast"):
            self._advance()
            self._expect_punct("(")
            operand = self.parse_expression()
            self._expect_keyword("as")
            type_token = self._peek()
            if type_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
                raise self._error("expected type name in CAST")
            self._advance()
            self._expect_punct(")")
            return ast.Cast(operand, type_token.text)

        if token.type is TokenType.PUNCT and token.text == "(":
            self._advance()
            inner = self.parse_expression()
            self._expect_punct(")")
            return inner

        if token.type is TokenType.IDENT or token.is_keyword("if"):
            name = self._advance().text
            if self._peek().type is TokenType.PUNCT and self._peek().text == "(":
                self._advance()
                distinct = bool(self._accept_keyword("distinct"))
                args: List[ast.Expression] = []
                if self._peek().type is TokenType.OPERATOR and self._peek().text == "*":
                    self._advance()
                    args.append(ast.Star())
                elif not (
                    self._peek().type is TokenType.PUNCT and self._peek().text == ")"
                ):
                    args.append(self.parse_expression())
                    while self._accept_punct(","):
                        args.append(self.parse_expression())
                self._expect_punct(")")
                return ast.FunctionCall(name.lower(), args, distinct)
            if self._accept_punct("."):
                follower = self._peek()
                if follower.type is TokenType.OPERATOR and follower.text == "*":
                    self._advance()
                    return ast.Star(table=name)
                column = self._expect_ident()
                return ast.ColumnRef(column, table=name)
            return ast.ColumnRef(name)

        raise self._error("expected an expression")

    def _parse_case(self) -> ast.Expression:
        self._expect_keyword("case")
        branches = []
        while self._accept_keyword("when"):
            condition = self.parse_expression()
            self._expect_keyword("then")
            value = self.parse_expression()
            branches.append((condition, value))
        if not branches:
            raise self._error("CASE requires at least one WHEN")
        else_value = None
        if self._accept_keyword("else"):
            else_value = self.parse_expression()
        self._expect_keyword("end")
        return ast.CaseWhen(branches, else_value)


# ---------------------------------------------------------------------------
# module-level helpers
# ---------------------------------------------------------------------------

#: Distinct script texts whose parse :func:`parse_script` keeps.
PARSE_MEMO_CAPACITY = 256


@lru_cache(maxsize=PARSE_MEMO_CAPACITY)
def _parse_script_memo(text: str) -> Tuple[ast.Statement, ...]:
    # parsing is a pure function of the text and the (frozen) nodes are
    # never mutated downstream, so every caller may share one parse; a
    # ParseError propagates out of lru_cache and is never cached
    return tuple(Parser(text).parse_script())


def parse_script(text: str) -> List[ast.Statement]:
    """Parse a multi-statement (``;``-separated) HiveQL script.

    Served from a bounded LRU memo keyed by the text: a serving loop
    re-submits the same few statements, and re-lexing every arrival
    would dominate a result-cache hit's host cost.  Each call returns a
    fresh list over the shared statements.
    """
    return list(_parse_script_memo(text))


def parse_statement(text: str) -> ast.Statement:
    """Parse exactly one statement."""
    parser = Parser(text)
    statement = parser.parse_statement()
    parser._accept_punct(";")
    if parser._peek().type is not TokenType.EOF:
        raise parser._error("trailing input after statement")
    return statement


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone expression (used in tests)."""
    parser = Parser(text)
    expression = parser.parse_expression()
    if parser._peek().type is not TokenType.EOF:
        raise parser._error("trailing input after expression")
    return expression
