"""Tests for the HiveQL lexer and parser."""

import dataclasses

import pytest

from repro import connect
from repro.common.errors import ParseError
from repro.sql import ast, parse_expression, parse_script, parse_statement
from repro.sql.lexer import Lexer, TokenType
from repro.sql.parser import PARSE_MEMO_CAPACITY, _parse_script_memo


class TestLexer:
    def tokens(self, text):
        return [t for t in Lexer(text).tokenize() if t.type is not TokenType.EOF]

    def test_keywords_case_insensitive(self):
        tokens = self.tokens("SELECT select SeLeCt")
        assert all(t.is_keyword("select") for t in tokens)

    def test_identifiers_keep_raw(self):
        token = self.tokens("MyTable")[0]
        assert token.type is TokenType.IDENT
        assert token.text == "mytable"
        assert token.raw == "MyTable"

    def test_numbers(self):
        values = [t.text for t in self.tokens("1 2.5 1e3 2.5E-2 .5")]
        assert values == ["1", "2.5", "1e3", "2.5E-2", ".5"]

    def test_strings_and_escapes(self):
        tokens = self.tokens(r"'hello' 'it''s' 'a\nb' " + '"dq"')
        assert [t.text for t in tokens] == ["hello", "it's", "a\nb", "dq"]

    def test_comments_skipped(self):
        tokens = self.tokens("SELECT -- a comment\n1 /* block\ncomment */ + 2")
        assert [t.text for t in tokens] == ["select", "1", "+", "2"]

    def test_operators(self):
        tokens = self.tokens("a <> b != c <= d >= e")
        ops = [t.text for t in tokens if t.type is TokenType.OPERATOR]
        assert ops == ["<>", "!=", "<=", ">="]

    def test_backtick_identifier(self):
        token = self.tokens("`select`")[0]
        assert token.type is TokenType.IDENT
        assert token.text == "select"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            self.tokens("'oops")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            self.tokens("a ? b")

    def test_error_carries_position(self):
        try:
            self.tokens("ok\n  ?")
        except ParseError as error:
            assert error.line == 2
        else:
            pytest.fail("expected ParseError")


class TestExpressionParsing:
    def test_precedence_arithmetic(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_precedence_logical(self):
        expr = parse_expression("a = 1 or b = 2 and c = 3")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_not_binds_tighter_than_and(self):
        expr = parse_expression("not a = 1 and b = 2")
        assert expr.op == "and"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_between(self):
        expr = parse_expression("x between 1 and 10")
        assert isinstance(expr, ast.Between)
        assert not expr.negated

    def test_not_between(self):
        expr = parse_expression("x not between 1 and 10")
        assert isinstance(expr, ast.Between) and expr.negated

    def test_in_list(self):
        expr = parse_expression("x in (1, 2, 3)")
        assert isinstance(expr, ast.InList)
        assert len(expr.items) == 3

    def test_like_and_not_like(self):
        assert isinstance(parse_expression("s like '%x%'"), ast.Like)
        negated = parse_expression("s not like 'a%'")
        assert isinstance(negated, ast.Like) and negated.negated

    def test_is_null(self):
        expr = parse_expression("x is not null")
        assert isinstance(expr, ast.IsNull) and expr.negated

    def test_case_when(self):
        expr = parse_expression("case when a > 1 then 'big' else 'small' end")
        assert isinstance(expr, ast.CaseWhen)
        assert len(expr.branches) == 1
        assert expr.else_value is not None

    def test_cast(self):
        expr = parse_expression("cast(x as double)")
        assert isinstance(expr, ast.Cast) and expr.type_name == "double"

    def test_function_call_distinct(self):
        expr = parse_expression("count(distinct x)")
        assert isinstance(expr, ast.FunctionCall) and expr.distinct

    def test_count_star(self):
        expr = parse_expression("count(*)")
        assert isinstance(expr.args[0], ast.Star)

    def test_qualified_column(self):
        expr = parse_expression("t.col")
        assert isinstance(expr, ast.ColumnRef)
        assert expr.table == "t" and expr.name == "col"

    def test_unary_minus(self):
        expr = parse_expression("-x + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_concat_pipes(self):
        expr = parse_expression("a || b")
        assert isinstance(expr, ast.FunctionCall) and expr.name == "concat"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 extra junk ,")


class TestStatementParsing:
    def test_select_all_clauses(self):
        stmt = parse_statement("""
            SELECT a, sum(b) total FROM t
            WHERE c > 0 GROUP BY a HAVING sum(b) > 10
            ORDER BY total DESC LIMIT 7
        """)
        assert isinstance(stmt, ast.Select)
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == 7

    def test_select_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_join_chain(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.k = b.k LEFT OUTER JOIN c ON b.j = c.j"
        )
        join = stmt.source
        assert isinstance(join, ast.Join) and join.join_type == "left"
        assert isinstance(join.left, ast.Join) and join.left.join_type == "inner"

    def test_cross_join(self):
        stmt = parse_statement("SELECT * FROM a CROSS JOIN b")
        assert stmt.source.condition is None

    def test_comma_join(self):
        stmt = parse_statement("SELECT * FROM a, b")
        assert isinstance(stmt.source, ast.Join)

    def test_subquery_source(self):
        stmt = parse_statement("SELECT x FROM (SELECT y AS x FROM t) sub")
        assert isinstance(stmt.source, ast.SubquerySource)
        assert stmt.source.alias == "sub"

    def test_create_table(self):
        stmt = parse_statement("CREATE TABLE t (a int, b string) STORED AS orc")
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.format_name == "orc"
        assert [c.name for c in stmt.columns] == ["a", "b"]

    def test_create_table_if_not_exists(self):
        stmt = parse_statement("CREATE TABLE IF NOT EXISTS t (a int)")
        assert stmt.if_not_exists

    def test_stored_as_aliases(self):
        stmt = parse_statement("CREATE TABLE t (a int) STORED AS ORCFILE")
        assert stmt.format_name == "orc"
        stmt = parse_statement("CREATE TABLE t (a int) STORED AS TEXTFILE")
        assert stmt.format_name == "text"

    def test_ctas(self):
        stmt = parse_statement("CREATE TABLE t2 AS SELECT a FROM t1")
        assert isinstance(stmt, ast.CreateTableAsSelect)

    def test_drop(self):
        stmt = parse_statement("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, ast.DropTable) and stmt.if_exists

    def test_insert_overwrite(self):
        stmt = parse_statement("INSERT OVERWRITE TABLE t SELECT * FROM s")
        assert isinstance(stmt, ast.InsertOverwrite) and stmt.table == "t"

    def test_set_option(self):
        stmt = parse_statement("SET hive.datampi.parallelism = enhanced")
        assert isinstance(stmt, ast.SetOption)
        assert stmt.key == "hive.datampi.parallelism"
        assert stmt.value == "enhanced"

    def test_script_multiple_statements(self):
        statements = parse_script("""
            DROP TABLE IF EXISTS a;
            CREATE TABLE a (x int);
            SELECT x FROM a;
        """)
        assert [type(s).__name__ for s in statements] == [
            "DropTable", "CreateTable", "Select",
        ]

    def test_empty_statement_tolerated(self):
        assert len(parse_script(";;SELECT 1 one FROM t;;")) == 1

    def test_garbage_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("EXPLODE TABLE t")


class TestParseMemo:
    """``parse_script`` memoizes by text; callers must never observe it."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        _parse_script_memo.cache_clear()
        yield
        _parse_script_memo.cache_clear()

    def test_same_text_gives_equal_statements_in_a_fresh_list(self):
        text = "SELECT dept, count(*) n FROM emp GROUP BY dept; DROP TABLE x"
        first = parse_script(text)
        second = parse_script(text)
        assert first == second
        assert first is not second
        first.append(ast.DropTable("y"))
        assert parse_script(text) == second
        assert len(parse_script(text)) == 2

    def test_statements_are_frozen(self):
        (statement,) = parse_script("SELECT 1 one FROM t")
        with pytest.raises(dataclasses.FrozenInstanceError):
            statement.limit = 5

    def test_parse_error_is_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ParseError):
                parse_script("SELECT FROM WHERE")
        assert _parse_script_memo.cache_info().currsize == 0

    def test_memo_never_exceeds_its_capacity(self):
        for index in range(PARSE_MEMO_CAPACITY + 50):
            parse_script(f"SELECT {index} v FROM t")
        assert _parse_script_memo.cache_info().currsize == PARSE_MEMO_CAPACITY
        # the oldest texts were evicted, the newest are still served
        parse_script(f"SELECT {PARSE_MEMO_CAPACITY + 49} v FROM t")
        assert _parse_script_memo.cache_info().hits == 1

    def test_execute_and_submit_tokenize_once(self, warehouse, monkeypatch):
        calls = []
        tokenize = Lexer.tokenize

        def counting_tokenize(self):
            calls.append(self)
            return tokenize(self)

        monkeypatch.setattr(Lexer, "tokenize", counting_tokenize)
        hdfs, metastore = warehouse
        sql = "SELECT dept, count(*) n FROM emp GROUP BY dept"
        with connect(engine="llap", num_workers=2, hdfs=hdfs,
                     metastore=metastore) as session:
            (first,) = session.execute(sql)
            (second,) = session.execute(sql)
            third = session.submit(sql).result()
        assert len(calls) == 1
        assert second.cache_hit
        assert sorted(second.rows, key=repr) == sorted(first.rows, key=repr)
        assert sorted(third.rows, key=repr) == sorted(first.rows, key=repr)
