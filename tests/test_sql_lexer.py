"""Tests for the SQL tokenizer."""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import SqlSyntaxError
from repro.sql import ast, normalize_sql, parse_statement, tokenize


def kinds(text):
    return [(token.kind, token.text) for token in tokenize(text)[:-1]]


class TestLexer:
    def test_keywords_vs_identifiers(self):
        tokens = kinds("SELECT foo FROM bar")
        assert tokens == [
            ("KEYWORD", "SELECT"),
            ("IDENT", "foo"),
            ("KEYWORD", "FROM"),
            ("IDENT", "bar"),
        ]

    def test_keywords_case_insensitive(self):
        assert tokenize("select")[0].kind == "KEYWORD"
        assert tokenize("SeLeCt")[0].kind == "KEYWORD"

    def test_numbers(self):
        assert kinds("1 2.5 .5 1e3 2.5E-2") == [
            ("INT", "1"),
            ("FLOAT", "2.5"),
            ("FLOAT", ".5"),
            ("FLOAT", "1e3"),
            ("FLOAT", "2.5E-2"),
        ]

    def test_strings_with_escapes(self):
        assert kinds("'hello' 'it''s'") == [
            ("STRING", "hello"),
            ("STRING", "it's"),
        ]

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_operators(self):
        ops = [text for kind, text in kinds("a <> b != c <= d >= e = f") if kind == "OP"]
        assert ops == ["<>", "!=", "<=", ">="] + ["="]

    def test_parameters(self):
        tokens = kinds("WHERE x = :i AND y = :point_id")
        params = [text for kind, text in tokens if kind == "PARAM"]
        assert params == ["i", "point_id"]

    def test_parameter_requires_name(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("x = : 5")

    def test_line_comments(self):
        assert kinds("SELECT -- a comment\n x FROM t") == [
            ("KEYWORD", "SELECT"),
            ("IDENT", "x"),
            ("KEYWORD", "FROM"),
            ("IDENT", "t"),
        ]

    def test_block_comments(self):
        assert len(kinds("a /* stuff \n more */ b")) == 2

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("a /* never ends")

    def test_error_reports_position(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            tokenize("SELECT\n  @")
        assert excinfo.value.line == 2

    def test_brackets_for_types(self):
        tokens = kinds("MATRIX[10][20]")
        assert [text for _, text in tokens] == ["MATRIX", "[", "10", "]", "[", "20", "]"]

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "EOF"


# -- the normalized text is SQL -------------------------------------------------

_NAMES = st.tuples(
    st.sampled_from(["a", "b", "x", "points", "t1", "col_2", "mi"]),
    st.integers(0, 2**12),
).map(
    # a mixed-case spelling: bit i of the mask upper-cases letter i
    lambda pair: "".join(
        c.upper() if pair[1] >> i & 1 else c for i, c in enumerate(pair[0])
    )
)
_STRINGS = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=8
).map(lambda text: "'" + text.replace("'", "''") + "'")
_NUMBERS = st.one_of(
    st.integers(0, 10**9).map(str),
    st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False).map(repr),
)
_ATOMS = st.one_of(
    _NAMES,
    _NAMES.map(lambda name: f"a.{name}"),
    _STRINGS,
    _NUMBERS,
    _NAMES.map(lambda name: f":{name}"),
)
_OPS = st.sampled_from(
    ["+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "or"]
)


def _compound(children):
    return st.one_of(
        st.tuples(children, _OPS, children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        children.map(lambda child: f"-{child}"),
        children.map(lambda child: f"NOT ({child})"),
        st.tuples(children, children).map(lambda t: f"inner_product({t[0]}, {t[1]})"),
    )


_EXPRS = st.recursive(_ATOMS, _compound, max_leaves=6)
_SPACE = st.sampled_from([" ", "  ", "\n", " /* c */ ", "\t"])


@st.composite
def _selects(draw):
    select = draw(st.sampled_from(["SELECT", "select", "Select"]))
    items = [
        item + (f" AS {draw(_NAMES)}" if draw(st.booleans()) else "")
        for item in draw(st.lists(_EXPRS, min_size=1, max_size=3))
    ]
    gap = draw(_SPACE)
    text = f"{select}{gap}{', '.join(items)} FROM {draw(_NAMES)} AS a"
    if draw(st.booleans()):
        text += f"{draw(_SPACE)}where {draw(_EXPRS)}"
    return text


_TYPES = st.sampled_from(["DOUBLE", "integer", "String", "VECTOR[3]", "matrix[2][]"])


@st.composite
def _ddl(draw):
    """A CREATE statement whose defined names are drawn in mixed case."""
    name = draw(_NAMES)
    kind = draw(st.sampled_from(["TABLE", "TABLE AS", "VIEW", "MATERIALIZED VIEW"]))
    if kind == "TABLE":
        columns = draw(st.lists(st.tuples(_NAMES, _TYPES), min_size=1, max_size=3))
        return f"create TABLE {name} ({', '.join(map(' '.join, columns))})"
    if kind == "TABLE AS":
        return f"CREATE table {name} AS {draw(_selects())}"
    names = draw(st.lists(_NAMES, min_size=1, max_size=3))
    listed = f" ({', '.join(names)})" if draw(st.booleans()) else ""
    return f"CREATE {kind} {name}{listed} AS {draw(_selects())}"


_statements = lambda: st.one_of(_selects(), _ddl())


def _labels(statement):
    """The output labels a select statement (or the query a CREATE
    statement holds) spells: aliases and bare column names, in item
    order."""
    select = getattr(statement, "query", statement)
    return [
        item.alias or getattr(item.expr, "column", None)
        for item in getattr(select, "items", [])
    ]


def _defined(statement):
    """The names a CREATE statement defines, as it spells them."""
    names = [getattr(statement, "name", None)]
    names += [column for column, _ in getattr(statement, "columns", [])]
    return names + (getattr(statement, "column_names", None) or [])


def _folded(node):
    """``node`` with every identifier lower-cased but the labels: the
    statement the dialect binds, whatever the identifiers' case."""
    if isinstance(node, list):
        return [_folded(child) for child in node]
    if isinstance(node, tuple):
        return tuple(_folded(child) for child in node)
    if isinstance(node, (ast.Literal, ast.Parameter)) or not dataclasses.is_dataclass(node):
        return node
    if isinstance(node, ast.SelectItem):
        expr = node.expr
        if isinstance(expr, ast.ColumnRef) and node.alias is None:
            table = expr.table and expr.table.lower()
            return ast.SelectItem(ast.ColumnRef(expr.column, table), node.alias)
        return ast.SelectItem(_folded(expr), node.alias)
    changes = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        changes[field.name] = value.lower() if isinstance(value, str) else _folded(value)
    return dataclasses.replace(node, **changes)


class TestNormalizedText:
    """``normalize_sql`` — the plan-cache key, and the text a statement
    can be stored as — is SQL: it parses back to the same statement up to
    the case the dialect folds, keeps every output label as spelled, and
    is a fixed point."""

    @settings(max_examples=200, deadline=None)
    @given(_statements())
    def test_parses_to_the_same_statement(self, sql):
        try:
            statement = parse_statement(sql)
        except SqlSyntaxError:
            assume(False)
        normalized = normalize_sql(sql)
        assert _folded(parse_statement(normalized)) == _folded(statement)
        assert _labels(parse_statement(normalized)) == _labels(statement)
        assert _defined(parse_statement(normalized)) == _defined(statement)
        assert normalize_sql(normalized) == normalized

    def test_only_labels_keep_their_case(self):
        assert normalize_sql("select T.Id AS Out, X, (a.Y), f(Z) from Points T") == (
            "SELECT t . id AS Out , X , ( a . Y ) , f ( z ) FROM points t"
        )

    def test_defined_names_keep_their_case(self):
        assert normalize_sql("create table Foo (MyCol DOUBLE, Id INTEGER)") == (
            "CREATE TABLE Foo ( MyCol double , Id integer )"
        )
        assert normalize_sql("create view V (Out) as select X from T") == (
            "CREATE VIEW V ( Out ) AS SELECT X FROM t"
        )

    def test_string_literals_keep_their_value(self):
        for literal, value in (("'it''s'", "it's"), ("'a\\b'", "a\\b"), ("''", "")):
            normalized = normalize_sql(f"SELECT {literal} FROM t")
            assert normalized == f"SELECT {literal} FROM t"
            (item,) = parse_statement(normalized).items
            assert item.expr.value == value
