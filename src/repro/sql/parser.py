"""Recursive-descent parser for the extended SQL dialect.

Grammar (informally)::

    script      := statement (';' statement)* ';'?
    statement   := select | create_table | create_table_as | create_view
                 | insert | drop
    select      := SELECT [DISTINCT] items FROM table_expr (',' table_expr)*
                   [WHERE expr] [GROUP BY expr_list] [HAVING expr]
                   [ORDER BY order_list] [LIMIT int]
    table_expr  := name [AS? alias] | '(' select ')' AS? alias
    expr        := or_expr with the usual precedence
                   (OR < AND < NOT < comparison/IS NULL < + - < * / < unary)

A statement nests at most :data:`MAX_NESTING` levels deep — counting
each parenthesised, call-argument or CASE expression, each ``NOT``, unary
sign and binary operator it is nested under, and each subquery — and a
deeper one is a :class:`SqlSyntaxError`: so neither this recursive
descent nor the binder, optimizer and evaluators that recurse over the
tree it builds ever run out of stack.

Aggregates are recognized by name at parse time (``SUM``, ``COUNT``,
``MIN``, ``MAX``, ``AVG``, ``VECTORIZE``, ``ROWMATRIX``, ``COLMATRIX``) so
that the AST distinguishes :class:`AggregateCall` from
:class:`FunctionCall`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Set, Tuple

from ..errors import SqlSyntaxError
from ..la import is_aggregate_name
from ..types import DataType, MatrixType, VectorType
from ..types.typeparse import parse_type
from . import ast
from .lexer import Token, normalize_tokens, tokenize

#: the deepest a statement may nest (see the module docstring): each
#: level costs this parser at most eleven frames, so the bound keeps it
#: inside Python's default recursion limit of 1000 with room for its
#: caller's stack; the recursions over the tree take a frame or two a
#: level
MAX_NESTING = 64


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        #: positions of identifiers whose case is kept in the normalised
        #: text: those that name a result column, and the names a
        #: statement defines (the catalog keeps them as spelled)
        self._labels: Set[int] = set()
        #: how deep the construct being parsed nests (``MAX_NESTING``)
        self._depth = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind != "EOF":
            self.pos += 1
        return token

    def _error(self, message: str, token: Optional[Token] = None) -> SqlSyntaxError:
        token = token or self._peek()
        return SqlSyntaxError(message, token.line, token.column)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._peek().matches(kind, text):
            return self._next()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._accept(kind, text)
        if token is None:
            want = text or kind
            got = self._peek().text or "end of input"
            raise self._error(f"expected {want!r}, found {got!r}")
        return token

    def _defined_name(self) -> str:
        """An identifier the statement defines: a table, view or column
        name, kept in the normalised text as spelled."""
        name = self._expect("IDENT").text
        self._labels.add(self.pos - 1)
        return name

    def _deeper(self) -> None:
        """Enter one more level of nesting, past ``MAX_NESTING`` an error;
        the caller steps back out by lowering ``_depth``."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise self._error(f"statement nests deeper than {MAX_NESTING} levels")

    def _accept_keyword(self, *words: str) -> bool:
        """Consume a sequence of keywords if all are present."""
        for offset, word in enumerate(words):
            if not self._peek(offset).matches("KEYWORD", word):
                return False
        for _ in words:
            self._next()
        return True

    # -- entry points ------------------------------------------------------

    def parse_script(self) -> List[ast.Statement]:
        return [statement for statement, _ in self.parse_keyed_script()]

    def parse_keyed_script(self) -> List[Tuple[ast.Statement, str]]:
        entries = []
        while not self._peek().matches("EOF"):
            entries.append(self.parse_keyed_statement())
            while self._accept("OP", ";"):
                pass
        return entries

    def parse_keyed_statement(self) -> Tuple[ast.Statement, str]:
        """One statement and its normalised text (its own tokens, no
        trailing ``;``) — the textual part of a plan-cache key."""
        start = self.pos
        statement = self.parse_statement()
        labels = {index - start for index in self._labels}
        return statement, normalize_tokens(self.tokens[start : self.pos], labels)

    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.matches("KEYWORD", "SELECT"):
            return self._parse_select_or_union()
        if token.matches("KEYWORD", "CREATE"):
            return self._parse_create()
        if token.matches("KEYWORD", "INSERT"):
            return self._parse_insert()
        if token.matches("KEYWORD", "DELETE"):
            return self._parse_delete()
        if token.matches("KEYWORD", "DROP"):
            return self._parse_drop()
        if token.matches("KEYWORD", "REFRESH"):
            return self._parse_refresh()
        raise self._error(f"unexpected {token.text!r}; expected a statement")

    def _parse_select_or_union(self) -> ast.Statement:
        selects = [self.parse_select()]
        dedupe = False
        while self._accept("KEYWORD", "UNION"):
            if not self._accept("KEYWORD", "ALL"):
                dedupe = True
            selects.append(self.parse_select())
        if len(selects) == 1:
            return selects[0]
        return ast.UnionStatement(selects, all=not dedupe)

    # -- DDL ----------------------------------------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect("KEYWORD", "CREATE")
        # TEMP/TEMPORARY are contextual (not reserved keywords, so
        # columns named "temp" keep working)
        if self._peek().kind == "IDENT" and self._peek().text.upper() in (
            "TEMP",
            "TEMPORARY",
        ):
            self._next()
            self._expect("KEYWORD", "VIEW")
            return self._parse_create_view(temporary=True)
        if self._accept("KEYWORD", "VIEW"):
            return self._parse_create_view()
        if self._accept("KEYWORD", "MATERIALIZED"):
            self._expect("KEYWORD", "VIEW")
            plain = self._parse_create_view()
            return ast.CreateMaterializedView(
                plain.name, plain.query, plain.column_names
            )
        self._expect("KEYWORD", "TABLE")
        name = self._defined_name()
        if self._accept("KEYWORD", "AS"):
            return ast.CreateTableAs(name, self.parse_select())
        self._expect("OP", "(")
        columns: List[Tuple[str, DataType]] = []
        while True:
            col_name = self._defined_name()
            columns.append((col_name, self._parse_column_type()))
            if not self._accept("OP", ","):
                break
        self._expect("OP", ")")
        return ast.CreateTable(name, columns)

    def _parse_column_type(self) -> DataType:
        base = self._expect("IDENT").text
        upper = base.upper()
        if upper in ("VECTOR", "MATRIX"):
            dims: List[Optional[int]] = []
            while self._accept("OP", "["):
                if self._peek().matches("OP", "]"):
                    dims.append(None)
                else:
                    dims.append(int(self._expect("INT").text))
                self._expect("OP", "]")
            if upper == "VECTOR":
                if len(dims) != 1:
                    raise self._error("VECTOR takes exactly one [length] suffix")
                return VectorType(dims[0])
            if len(dims) != 2:
                raise self._error("MATRIX takes exactly two [rows][cols] suffixes")
            return MatrixType(dims[0], dims[1])
        return parse_type(base)

    def _parse_create_view(self, temporary: bool = False) -> ast.CreateView:
        name = self._defined_name()
        column_names = None
        if self._accept("OP", "("):
            column_names = [self._defined_name()]
            while self._accept("OP", ","):
                column_names.append(self._defined_name())
            self._expect("OP", ")")
        self._expect("KEYWORD", "AS")
        return ast.CreateView(
            name, self.parse_select(), column_names, temporary=temporary
        )

    def _parse_insert(self) -> ast.Statement:
        self._expect("KEYWORD", "INSERT")
        self._expect("KEYWORD", "INTO")
        table = self._expect("IDENT").text
        if self._peek().matches("KEYWORD", "SELECT"):
            return ast.InsertSelect(table, self.parse_select())
        self._expect("KEYWORD", "VALUES")
        rows: List[List[ast.Expression]] = []
        while True:
            self._expect("OP", "(")
            row = [self.parse_expression()]
            while self._accept("OP", ","):
                row.append(self.parse_expression())
            self._expect("OP", ")")
            rows.append(row)
            if not self._accept("OP", ","):
                break
        return ast.InsertValues(table, rows)

    def _parse_delete(self) -> ast.Delete:
        self._expect("KEYWORD", "DELETE")
        self._expect("KEYWORD", "FROM")
        table = self._expect("IDENT").text
        where = self.parse_expression() if self._accept("KEYWORD", "WHERE") else None
        return ast.Delete(table, where)

    def _parse_drop(self) -> ast.Statement:
        self._expect("KEYWORD", "DROP")
        is_matview = False
        if self._accept("KEYWORD", "MATERIALIZED"):
            self._expect("KEYWORD", "VIEW")
            is_matview = True
            is_view = False
        else:
            is_view = bool(self._accept("KEYWORD", "VIEW"))
            if not is_view:
                self._expect("KEYWORD", "TABLE")
        if_exists = self._accept_keyword("IF", "EXISTS")
        name = self._expect("IDENT").text
        if is_matview:
            return ast.DropMaterializedView(name, if_exists)
        if is_view:
            return ast.DropView(name, if_exists)
        return ast.DropTable(name, if_exists)

    def _parse_refresh(self) -> ast.RefreshMaterializedView:
        self._expect("KEYWORD", "REFRESH")
        self._expect("KEYWORD", "MATERIALIZED")
        self._expect("KEYWORD", "VIEW")
        return ast.RefreshMaterializedView(self._expect("IDENT").text)

    # -- SELECT --------------------------------------------------------------

    def parse_select(self) -> ast.SelectStatement:
        self._expect("KEYWORD", "SELECT")
        distinct = bool(self._accept("KEYWORD", "DISTINCT"))
        items = [self._parse_select_item()]
        while self._accept("OP", ","):
            items.append(self._parse_select_item())
        self._expect("KEYWORD", "FROM")
        from_items = [self._parse_table_expr()]
        while self._accept("OP", ","):
            from_items.append(self._parse_table_expr())
        where = self.parse_expression() if self._accept("KEYWORD", "WHERE") else None
        group_by: List[ast.Expression] = []
        if self._accept_keyword("GROUP", "BY"):
            group_by.append(self.parse_expression())
            while self._accept("OP", ","):
                group_by.append(self.parse_expression())
        having = self.parse_expression() if self._accept("KEYWORD", "HAVING") else None
        order_by: List[ast.OrderItem] = []
        if self._accept_keyword("ORDER", "BY"):
            order_by.append(self._parse_order_item())
            while self._accept("OP", ","):
                order_by.append(self._parse_order_item())
        limit = None
        if self._accept("KEYWORD", "LIMIT"):
            limit = int(self._expect("INT").text)
        return ast.SelectStatement(
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        if self._peek().matches("OP", "*"):
            self._next()
            return ast.SelectItem(ast.Star())
        # t.* form
        if (
            self._peek().kind == "IDENT"
            and self._peek(1).matches("OP", ".")
            and self._peek(2).matches("OP", "*")
        ):
            table = self._next().text
            self._next()
            self._next()
            return ast.SelectItem(ast.Star(table=table))
        expr = self.parse_expression()
        label = self.pos - 1
        alias = None
        if self._accept("KEYWORD", "AS"):
            alias = self._expect("IDENT").text
        elif self._peek().kind == "IDENT":
            alias = self._next().text
        if alias is not None:
            self._labels.add(self.pos - 1)
        elif isinstance(expr, ast.ColumnRef):
            # the column name labels the result: the item's last
            # identifier (``t.c``, ``(c)``)
            while self.tokens[label].kind != "IDENT":
                label -= 1
            self._labels.add(label)
        return ast.SelectItem(expr, alias)

    def _parse_table_expr(self) -> ast.TableExpression:
        if self._accept("OP", "("):
            self._deeper()
            query = self.parse_select()
            self._depth -= 1
            self._expect("OP", ")")
            self._accept("KEYWORD", "AS")
            alias = self._expect("IDENT").text
            return ast.SubqueryRef(query, alias)
        name = self._expect("IDENT").text
        alias = None
        if self._accept("KEYWORD", "AS"):
            alias = self._expect("IDENT").text
        elif self._peek().kind == "IDENT":
            alias = self._next().text
        return ast.TableName(name, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        ascending = True
        if self._accept("KEYWORD", "DESC"):
            ascending = False
        else:
            self._accept("KEYWORD", "ASC")
        return ast.OrderItem(expr, ascending)

    # -- expressions ----------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        self._deeper()
        expr = self._parse_or()
        self._depth -= 1
        return expr

    # each binary operator nests its left operand one level deeper: a
    # chain's links count, however flat the parse of it

    def _parse_or(self) -> ast.Expression:
        left, depth = self._parse_and(), self._depth
        while self._accept("KEYWORD", "OR"):
            self._deeper()
            left = ast.BinaryOp("OR", left, self._parse_and())
        self._depth = depth
        return left

    def _parse_and(self) -> ast.Expression:
        left, depth = self._parse_not(), self._depth
        while self._accept("KEYWORD", "AND"):
            self._deeper()
            left = ast.BinaryOp("AND", left, self._parse_not())
        self._depth = depth
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept("KEYWORD", "NOT"):
            self._deeper()
            expr = ast.UnaryOp("NOT", self._parse_not())
            self._depth -= 1
            return expr
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "OP" and token.text in ("=", "<>", "!=", "<", ">", "<=", ">="):
            op = self._next().text
            return ast.BinaryOp(op, left, self._parse_additive())
        if self._accept("KEYWORD", "IS"):
            negated = bool(self._accept("KEYWORD", "NOT"))
            self._expect("KEYWORD", "NULL")
            return ast.IsNull(left, negated)
        negated = False
        if self._peek().matches("KEYWORD", "NOT") and (
            self._peek(1).matches("KEYWORD", "IN")
            or self._peek(1).matches("KEYWORD", "BETWEEN")
        ):
            self._next()
            negated = True
        if self._accept("KEYWORD", "IN"):
            self._expect("OP", "(")
            items = [self.parse_expression()]
            while self._accept("OP", ","):
                items.append(self.parse_expression())
            self._expect("OP", ")")
            return ast.InList(left, items, negated)
        if self._accept("KEYWORD", "BETWEEN"):
            low = self._parse_additive()
            self._expect("KEYWORD", "AND")
            high = self._parse_additive()
            between = ast.BinaryOp(
                "AND",
                ast.BinaryOp(">=", left, low),
                ast.BinaryOp("<=", left, high),
            )
            return ast.UnaryOp("NOT", between) if negated else between
        if negated:
            raise self._error("expected IN or BETWEEN after NOT")
        return left

    def _parse_additive(self) -> ast.Expression:
        left, depth = self._parse_multiplicative(), self._depth
        while self._peek().kind == "OP" and self._peek().text in ("+", "-"):
            op = self._next().text
            self._deeper()
            left = ast.BinaryOp(op, left, self._parse_multiplicative())
        self._depth = depth
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left, depth = self._parse_unary(), self._depth
        while self._peek().kind == "OP" and self._peek().text in ("*", "/"):
            op = self._next().text
            self._deeper()
            left = ast.BinaryOp(op, left, self._parse_unary())
        self._depth = depth
        return left

    def _parse_unary(self) -> ast.Expression:
        sign = self._accept("OP", "-") or self._accept("OP", "+")
        if sign is None:
            return self._parse_primary()
        self._deeper()
        operand = self._parse_unary()
        self._depth -= 1
        return ast.UnaryOp("-", operand) if sign.text == "-" else operand

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.kind == "INT":
            self._next()
            return ast.Literal(int(token.text))
        if token.kind == "FLOAT":
            self._next()
            return ast.Literal(float(token.text))
        if token.kind == "STRING":
            self._next()
            return ast.Literal(token.text)
        if token.kind == "PARAM":
            self._next()
            return ast.Parameter(token.text)
        if token.matches("KEYWORD", "NULL"):
            self._next()
            return ast.Literal(None)
        if token.matches("KEYWORD", "TRUE"):
            self._next()
            return ast.Literal(True)
        if token.matches("KEYWORD", "FALSE"):
            self._next()
            return ast.Literal(False)
        if token.matches("KEYWORD", "CASE"):
            return self._parse_case()
        if self._accept("OP", "("):
            expr = self.parse_expression()
            self._expect("OP", ")")
            return expr
        if token.kind == "IDENT":
            return self._parse_name_or_call()
        raise self._error(f"unexpected {token.text or 'end of input'!r} in expression")

    def _parse_case(self) -> ast.Case:
        self._expect("KEYWORD", "CASE")
        whens = []
        while self._accept("KEYWORD", "WHEN"):
            condition = self.parse_expression()
            self._expect("KEYWORD", "THEN")
            whens.append((condition, self.parse_expression()))
        if not whens:
            raise self._error("CASE requires at least one WHEN branch")
        otherwise = None
        if self._accept("KEYWORD", "ELSE"):
            otherwise = self.parse_expression()
        self._expect("KEYWORD", "END")
        return ast.Case(whens, otherwise)

    def _parse_name_or_call(self) -> ast.Expression:
        name = self._expect("IDENT").text
        if self._accept("OP", "("):
            return self._finish_call(name)
        if self._accept("OP", "."):
            column = self._expect("IDENT").text
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)

    def _finish_call(self, name: str) -> ast.Expression:
        if is_aggregate_name(name):
            distinct = bool(self._accept("KEYWORD", "DISTINCT"))
            if self._accept("OP", "*"):
                arg: ast.Expression = ast.Star()
            else:
                arg = self.parse_expression()
            self._expect("OP", ")")
            return ast.AggregateCall(name.upper(), arg, distinct)
        args: List[ast.Expression] = []
        if not self._peek().matches("OP", ")"):
            args.append(self.parse_expression())
            while self._accept("OP", ","):
                args.append(self.parse_expression())
        self._expect("OP", ")")
        return ast.FunctionCall(name.lower(), args)


#: Exact statement text -> ``(statement, normalised text)``: a repeated
#: text reaches neither the lexer nor the parser. Bounded (LRU) because
#: INSERTs with literal values are all distinct texts, and texts past
#: ``_MEMO_MAX_TEXT`` characters (bulk INSERTs) are never kept — the
#: statements worth remembering are short. The ASTs handed out are
#: shared: every consumer treats an AST as immutable.
_MEMO_CAPACITY = 512
_MEMO_MAX_TEXT = 8192
_memo: "OrderedDict[str, Tuple[ast.Statement, str]]" = OrderedDict()
_memo_lock = threading.Lock()


def parse_keyed(text: str) -> Tuple[ast.Statement, str]:
    """Parse exactly one statement (a trailing ';' is allowed); returns
    it with its normalised text. Memoised on the exact text."""
    with _memo_lock:
        entry = _memo.get(text)
        if entry is not None:
            _memo.move_to_end(text)
            return entry
    parser = Parser(text)
    entry = parser.parse_keyed_statement()
    while parser._accept("OP", ";"):
        pass
    if not parser._peek().matches("EOF"):
        raise parser._error(
            f"unexpected trailing input {parser._peek().text!r}; "
            f"use parse_script for multi-statement text"
        )
    if len(text) <= _MEMO_MAX_TEXT:
        with _memo_lock:
            _memo[text] = entry
            if len(_memo) > _MEMO_CAPACITY:
                _memo.popitem(last=False)
    return entry


def parse_statement(text: str) -> ast.Statement:
    """Parse exactly one statement (a trailing ';' is allowed)."""
    return parse_keyed(text)[0]


def normalize_sql(text: str) -> str:
    """The normalised text of one statement (:func:`parse_keyed`)."""
    return parse_keyed(text)[1]


def parse_keyed_script(text: str) -> List[Tuple[ast.Statement, str]]:
    """Parse a semicolon-separated sequence of statements, each with its
    normalised text."""
    return Parser(text).parse_keyed_script()


def parse_script(text: str) -> List[ast.Statement]:
    """Parse a semicolon-separated sequence of statements."""
    return Parser(text).parse_script()
