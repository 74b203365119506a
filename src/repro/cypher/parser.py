"""Recursive-descent parser for the Cypher subset.

Grammar (informal)::

    query       := clause+ [';']
    clause      := matchClause | withClause | returnClause
                 | createClause | deleteClause
    matchClause := [OPTIONAL] MATCH pattern (',' pattern)* [WHERE expr]
    withClause  := WITH [DISTINCT] ('*' | items) [WHERE expr]
    returnClause:= RETURN [DISTINCT] ('*' | items)
                   [ORDER BY orderItems] [SKIP count] [LIMIT count]
    count       := int | '$' name
    pattern     := nodePattern (relPattern nodePattern)*
    nodePattern := '(' [ident] (':' ident)* [mapLiteral] ')'
    relPattern  := '-' ['[' relBody ']'] '->'      (left to right)
                 | '<-' ['[' relBody ']'] '-'      (right to left)
                 | '-' ['[' relBody ']'] '-'       (undirected)
    relBody     := [ident] (':' ident ('|' [':'] ident)*) [mapLiteral]

Expressions use conventional precedence:
OR < XOR < AND < NOT < comparison < additive < multiplicative < unary < primary.

Parameters: each ``$name`` becomes an :class:`~repro.cypher.ast.Parameter`
slot, numbered by first occurrence. :func:`parse_shape` also turns every
INTEGER, FLOAT and STRING literal into a slot, numbered in text order
together with the names — the numbering of
:func:`repro.cypher.lexer.literal_shape`, so a shape's plan and any text's
values line up slot for slot.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cypher import ast
from repro.cypher.lexer import Token, TokenType, tokenize
from repro.errors import CypherSyntaxError

_LITERAL_CLASSES = {
    TokenType.INTEGER: ast.INT,
    TokenType.FLOAT: ast.FLOAT,
    TokenType.STRING: ast.STR,
}


def parse(query_text: str) -> ast.SingleQuery:
    """Parse ``query_text`` into an AST; raises :class:`CypherSyntaxError`.

    Literals stay :class:`~repro.cypher.ast.Literal`; a ``$name`` slot's
    type class is unknown."""
    return _Parser(tokenize(query_text)).parse_query()


def parse_shape(
    query_text: str, kinds: Optional[Mapping[str, str]] = None
) -> tuple[ast.SingleQuery, bool]:
    """Parse with every literal as a slot → ``(query, shared)``.

    ``shared`` is False when a literal's value would show in the plan or
    the result: it names an un-aliased projection column (``RETURN 1``),
    or sits in an ORDER BY item, which the planner matches to projection
    items by their text. Such a query is returned parsed as :func:`parse`
    would, literals kept, and must be planned per text.
    """
    tokens = tokenize(query_text)
    parser = _Parser(tokens, kinds, literal_slots=True)
    query = parser.parse_query()
    if parser.shared:
        return query, True
    return _Parser(tokens, kinds).parse_query(), False


class _Parser:
    def __init__(
        self,
        tokens: list[Token],
        kinds: Optional[Mapping[str, str]] = None,
        literal_slots: bool = False,
    ) -> None:
        self._tokens = tokens
        self._index = 0
        self._kinds = kinds or {}
        self._literal_slots = literal_slots
        self._slots = 0
        self._named: dict[str, int] = {}
        #: False once a literal slot lands where its value matters.
        self.shared = True

    # -- token helpers -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _expect(self, token_type: TokenType, what: str = "") -> Token:
        if self._current.type is not token_type:
            raise CypherSyntaxError(
                f"expected {what or token_type.value!r}, got "
                f"{self._current.text!r}",
                self._current.position,
            )
        return self._advance()

    def _expect_keyword(self, *names: str) -> Token:
        if not self._current.is_keyword(*names):
            raise CypherSyntaxError(
                f"expected {' or '.join(names)}, got {self._current.text!r}",
                self._current.position,
            )
        return self._advance()

    def _accept(self, token_type: TokenType) -> Optional[Token]:
        if self._current.type is token_type:
            return self._advance()
        return None

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        if self._current.is_keyword(*names):
            return self._advance()
        return None

    # -- query structure -----------------------------------------------------

    def parse_query(self) -> ast.SingleQuery:
        clauses: list[ast.Clause] = []
        while True:
            token = self._current
            if token.type is TokenType.EOF:
                break
            if token.type is TokenType.SEMICOLON:
                self._advance()
                if self._current.type is not TokenType.EOF:
                    raise CypherSyntaxError(
                        "text after query terminator", self._current.position
                    )
                break
            if token.is_keyword("MATCH") or token.is_keyword("OPTIONAL"):
                clauses.append(self._parse_match())
            elif token.is_keyword("WITH"):
                clauses.append(self._parse_with())
            elif token.is_keyword("RETURN"):
                clauses.append(self._parse_return())
            elif token.is_keyword("CREATE"):
                clauses.append(self._parse_create())
            elif token.is_keyword("DELETE") or token.is_keyword("DETACH"):
                clauses.append(self._parse_delete())
            else:
                raise CypherSyntaxError(
                    f"unexpected token {token.text!r}", token.position
                )
        if not clauses:
            raise CypherSyntaxError("empty query", 0)
        return ast.SingleQuery(clauses)

    def _parse_match(self) -> ast.MatchClause:
        optional = self._accept_keyword("OPTIONAL") is not None
        if optional:
            raise CypherSyntaxError(
                "OPTIONAL MATCH is not supported by this subset",
                self._current.position,
            )
        self._expect_keyword("MATCH")
        patterns = [self._parse_pattern()]
        while self._accept(TokenType.COMMA):
            patterns.append(self._parse_pattern())
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        return ast.MatchClause(patterns=patterns, where=where, optional=optional)

    def _parse_with(self) -> ast.WithClause:
        self._expect_keyword("WITH")
        distinct = self._accept_keyword("DISTINCT") is not None
        star, items = self._parse_projection_body()
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expression()
        return ast.WithClause(items=items, star=star, distinct=distinct, where=where)

    def _parse_return(self) -> ast.ReturnClause:
        self._expect_keyword("RETURN")
        distinct = self._accept_keyword("DISTINCT") is not None
        star, items = self._parse_projection_body()
        order_by: list[tuple[ast.Expression, bool]] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            while True:
                expr = self._parse_expression()
                if ast.has_literal_slot(expr):
                    self.shared = False
                ascending = True
                if self._accept_keyword("DESC"):
                    ascending = False
                else:
                    self._accept_keyword("ASC")
                order_by.append((expr, ascending))
                if not self._accept(TokenType.COMMA):
                    break
        skip = self._parse_count("SKIP")
        limit = self._parse_count("LIMIT")
        return ast.ReturnClause(
            items=items,
            star=star,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
            skip=skip,
        )

    def _parse_count(self, keyword: str):
        """``SKIP``/``LIMIT`` operand: a non-negative integer or an INT slot."""
        if not self._accept_keyword(keyword):
            return None
        token = self._current
        if token.type is TokenType.PARAMETER:
            self._advance()
            slot = self._parameter(token)
            if slot.kind not in (None, ast.INT):
                raise CypherSyntaxError(
                    f"{keyword} expects a non-negative integer, ${slot.name} "
                    f"is {slot.kind}",
                    token.position,
                )
            return slot
        token = self._expect(TokenType.INTEGER, "integer")
        return self._literal(token) if self._literal_slots else int(token.text)

    def _literal(self, token: Token) -> ast.Expression:
        if self._literal_slots:
            slot = self._slots
            self._slots += 1
            return ast.Parameter(slot, _LITERAL_CLASSES[token.type])
        if token.type is TokenType.INTEGER:
            return ast.Literal(int(token.text))
        if token.type is TokenType.FLOAT:
            return ast.Literal(float(token.text))
        return ast.Literal(token.text)

    def _parameter(self, token: Token) -> ast.Parameter:
        name = token.text
        slot = self._named.get(name)
        if slot is None:
            slot = self._named[name] = self._slots
            self._slots += 1
        return ast.Parameter(slot, self._kinds.get(name), name)

    def _parse_projection_body(self) -> tuple[bool, list[ast.ProjectionItem]]:
        if self._accept(TokenType.STAR):
            return True, []
        items = [self._parse_projection_item()]
        while self._accept(TokenType.COMMA):
            items.append(self._parse_projection_item())
        return False, items

    def _parse_projection_item(self) -> ast.ProjectionItem:
        expression = self._parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect(TokenType.IDENT, "alias").text
        elif ast.has_literal_slot(expression):
            self.shared = False  # the column is named by the literal's text
        return ast.ProjectionItem(expression=expression, alias=alias)

    def _parse_create(self) -> ast.CreateClause:
        self._expect_keyword("CREATE")
        patterns = [self._parse_pattern()]
        while self._accept(TokenType.COMMA):
            patterns.append(self._parse_pattern())
        return ast.CreateClause(patterns=patterns)

    def _parse_delete(self) -> ast.DeleteClause:
        detach = self._accept_keyword("DETACH") is not None
        self._expect_keyword("DELETE")
        expressions = [self._parse_expression()]
        while self._accept(TokenType.COMMA):
            expressions.append(self._parse_expression())
        return ast.DeleteClause(expressions=expressions, detach=detach)

    # -- patterns --------------------------------------------------------------

    def _parse_pattern(self) -> ast.PatternPath:
        elements: list = [self._parse_node_pattern()]
        while self._current.type in (TokenType.MINUS, TokenType.LT):
            elements.append(self._parse_rel_pattern())
            elements.append(self._parse_node_pattern())
        return ast.PatternPath(elements)

    def _parse_node_pattern(self) -> ast.NodePatternAst:
        self._expect(TokenType.LPAREN, "'(' starting a node pattern")
        variable = None
        if self._current.type is TokenType.IDENT:
            variable = self._advance().text
        labels: list[str] = []
        while self._accept(TokenType.COLON):
            labels.append(self._expect(TokenType.IDENT, "label name").text)
        properties = {}
        if self._current.type is TokenType.LBRACE:
            properties = self._parse_map_literal()
        self._expect(TokenType.RPAREN, "')' closing a node pattern")
        return ast.NodePatternAst(
            variable=variable, labels=tuple(labels), properties=properties
        )

    def _parse_rel_pattern(self) -> ast.RelPatternAst:
        # Leading arrow half: '-' or '<-'.
        points_left = False
        if self._accept(TokenType.LT):
            points_left = True
            self._expect(TokenType.MINUS, "'-' after '<'")
        else:
            self._expect(TokenType.MINUS, "'-' starting a relationship pattern")
        variable = None
        types: list[str] = []
        properties: dict[str, ast.Expression] = {}
        if self._accept(TokenType.LBRACKET):
            if self._current.type is TokenType.IDENT:
                variable = self._advance().text
            if self._accept(TokenType.COLON):
                types.append(self._expect(TokenType.IDENT, "relationship type").text)
                while self._accept(TokenType.PIPE):
                    self._accept(TokenType.COLON)
                    types.append(
                        self._expect(TokenType.IDENT, "relationship type").text
                    )
            if self._current.type is TokenType.LBRACE:
                properties = self._parse_map_literal()
            self._expect(TokenType.RBRACKET, "']' closing a relationship pattern")
        # Trailing arrow half: '->' or '-'.
        self._expect(TokenType.MINUS, "'-' after relationship body")
        points_right = self._accept(TokenType.GT) is not None
        if points_left and points_right:
            raise CypherSyntaxError(
                "relationship cannot point both ways", self._current.position
            )
        if points_left:
            direction = ast.RelDirection.RIGHT_TO_LEFT
        elif points_right:
            direction = ast.RelDirection.LEFT_TO_RIGHT
        else:
            direction = ast.RelDirection.UNDIRECTED
        return ast.RelPatternAst(
            variable=variable,
            types=tuple(types),
            direction=direction,
            properties=properties,
        )

    def _parse_map_literal(self) -> dict[str, ast.Expression]:
        self._expect(TokenType.LBRACE)
        entries: dict[str, ast.Expression] = {}
        if self._current.type is not TokenType.RBRACE:
            while True:
                key = self._expect(TokenType.IDENT, "map key").text
                self._expect(TokenType.COLON)
                entries[key] = self._parse_expression()
                if not self._accept(TokenType.COMMA):
                    break
        self._expect(TokenType.RBRACE)
        return entries

    # -- expressions --------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_xor()
        while self._accept_keyword("OR"):
            left = ast.BooleanOp("OR", left, self._parse_xor())
        return left

    def _parse_xor(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("XOR"):
            left = ast.BooleanOp("XOR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BooleanOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.Not(self._parse_not())
        return self._parse_comparison()

    _COMPARISON_OPS = {
        TokenType.EQ: ast.ComparisonOp.EQ,
        TokenType.NEQ: ast.ComparisonOp.NEQ,
        TokenType.LT: ast.ComparisonOp.LT,
        TokenType.GT: ast.ComparisonOp.GT,
        TokenType.LE: ast.ComparisonOp.LE,
        TokenType.GE: ast.ComparisonOp.GE,
    }

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        token_type = self._current.type
        if token_type in self._COMPARISON_OPS:
            self._advance()
            right = self._parse_additive()
            return ast.Comparison(self._COMPARISON_OPS[token_type], left, right)
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while self._current.type in (TokenType.PLUS, TokenType.MINUS):
            op = self._advance().text
            left = ast.Arithmetic(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while self._current.type in (
            TokenType.STAR,
            TokenType.SLASH,
            TokenType.PERCENT,
        ):
            op = self._advance().text
            left = ast.Arithmetic(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expression:
        if self._accept(TokenType.MINUS):
            return ast.Arithmetic("-", ast.Literal(0), self._parse_unary())
        if self._accept(TokenType.PLUS):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._current
        if token.type in _LITERAL_CLASSES:
            self._advance()
            return self._literal(token)
        if token.type is TokenType.PARAMETER:
            self._advance()
            return self._parameter(token)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self._parse_expression()
            self._expect(TokenType.RPAREN, "')'")
            return inner
        if token.type is TokenType.IDENT:
            self._advance()
            name = token.text
            if self._current.type is TokenType.LPAREN and (
                name.lower() in ast.AGGREGATE_FUNCTIONS
                or name.lower() in ast.SCALAR_FUNCTIONS
            ):
                return self._parse_function_call(name.lower())
            if self._accept(TokenType.DOT):
                key = self._expect(TokenType.IDENT, "property key").text
                return ast.PropertyAccess(name, key)
            if self._current.type is TokenType.COLON:
                # `var:Label` used as a predicate.
                self._advance()
                label = self._expect(TokenType.IDENT, "label name").text
                return ast.HasLabel(name, label)
            return ast.Variable(name)
        raise CypherSyntaxError(
            f"unexpected token {token.text!r} in expression", token.position
        )

    def _parse_function_call(self, name: str) -> ast.Expression:
        self._expect(TokenType.LPAREN)
        if name == "count" and self._accept(TokenType.STAR):
            self._expect(TokenType.RPAREN, "')' after count(*)")
            return ast.FunctionCall(name="count", star=True)
        distinct = self._accept_keyword("DISTINCT") is not None
        argument = self._parse_expression()
        self._expect(TokenType.RPAREN, "')' closing function arguments")
        return ast.FunctionCall(name=name, argument=argument, distinct=distinct)
