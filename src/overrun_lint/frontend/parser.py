"""Recursive-descent parser producing CompilationUnit trees.

Parsing is strict: the first syntax error aborts the unit with a
ParseError.  Control-structure bodies are normalized to Block nodes
(an `else if` keeps the nested If directly).  `i++`/`i--` are accepted
in statement and for-update position as sugar for `i = i + 1` / `i = i - 1`.
Binary operators are parsed by precedence climbing over `PRECEDENCE`,
which the printer also reads.  Keywords, operators and punctuation are told
apart by their text alone: the lexer gives no identifier, literal or string
one of those texts.

A node's level is the number of statements, expressions and parentheses
around it in its method or field (docs/GRAMMAR.md).  Levels are counted
on the way into a construct (`depth`) and, for the left-deep trees of
operator and postfix chains, up from the operands (`height`).
"""

from __future__ import annotations

from bisect import bisect_right

from ..errors import NestingError, ParseError
from . import ast
from .ast import TypeRef
from .index import NodeIndex
from .lexer import (
    DOUBLE_LITERAL,
    EOF,
    IDENTIFIER,
    INT_LITERAL,
    STRING_LITERAL,
    SourceSpan,
    TokenStream,
    string_literal_value,
    tokenize,
)

PRIMITIVE_TYPES = ("int", "byte", "double", "boolean")

# The deepest level a node may have.  At this level every command handles
# each nesting shape under the default recursion limit of 1000
# (tests/test_nesting.py); one more is a NestingError.
MAX_NESTING = 200

# Binary operators by precedence, all left-associative.  The
# right-associative "=" binds looser, in `_expr`.
PRECEDENCE = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4}
PRECEDENCE.update({"+": 5, "-": 5, "*": 6, "/": 6, "%": 6})

_LVALUES = (ast.Name, ast.Index, ast.FieldAccess)
_new_tuple = tuple.__new__  # a SourceSpan without its slower Python-level __new__


class Parser:
    """Reads the columns of a TokenStream; a token is its index there."""

    def __init__(self, stream: TokenStream, file: str):
        self.stream = stream
        self.file = file
        self.kinds = stream.kinds
        self.texts = stream.texts
        self.lines = stream.lines
        self.columns = stream.columns
        self.end_columns = stream.end_columns
        self.pos = 0
        self.taken = 0  # comments handed out so far
        # The token the first comment not yet taken precedes; past the
        # sentinel when every comment is taken.
        self.next_comment = stream.comment_at[0] if stream.comment_at else len(stream.kinds)
        self.depth = 0  # levels above the construct being parsed
        self.height = 0  # levels within the expression parsed last
        # Node u is created[u]: uids follow creation, which is a post-order,
        # so u's subtree is the uid range [first[u], u].  marks[t] is the
        # number of nodes created before the parser took token t, filled in
        # as the parser moves on; a node's subtree is every node created
        # since the parser took its start token, so first[u] is the mark
        # of that token.
        self.created: list[ast.Node] = []
        self.first: list[int] = []
        self.marks: list[int] = [0]
        self.type_refs: dict[tuple[str, int], TypeRef] = {}  # TypeRefs are frozen: one per type

    # -- helpers ---------------------------------------------------------

    def _take_comments(self) -> tuple[str, ...]:
        """Comments before the next token that no node has taken yet."""
        if self.next_comment > self.pos:
            return ()
        taken, at = self.taken, self.stream.comment_at
        self.taken = end = bisect_right(at, self.pos, taken)
        self.next_comment = at[end] if end < len(at) else len(self.kinds)
        return tuple(self.stream.comments[taken:end])

    def _error(self, what: str) -> ParseError:
        pos = self.pos
        found = EOF if self.kinds[pos] == EOF else repr(self.texts[pos])
        return ParseError(self.stream.span(pos), what, found)

    def _expect(self, text: str, what: str | None = None) -> int:
        pos = self.pos
        if self.texts[pos] != text:
            raise self._error(what or text)
        self.pos = pos + 1
        return pos

    def _ident(self, what: str) -> str:
        pos = self.pos
        if self.kinds[pos] != IDENTIFIER:
            raise self._error(what)
        self.pos = pos + 1
        return self.texts[pos]

    def _descend(self, tok: int) -> None:
        """Enter a construct one level down, opened by token tok."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise NestingError(self.stream.span(tok), MAX_NESTING)

    def _node(self, cls, start: int, *fields):
        """A node spanning token start through the last token taken, with
        fields in the order its class declares them."""
        pos = self.pos
        end = pos - 1
        created = self.created
        uid = len(created)
        marks = self.marks
        if len(marks) < pos:  # tokens before pos are taken
            marks += [uid] * (pos - len(marks))
        span = _new_tuple(
            SourceSpan, (self.file, self.lines[start], self.columns[start], self.lines[end], self.end_columns[end])
        )
        node = cls(span, uid, *fields)
        created.append(node)
        self.first.append(marks[start])
        return node

    # -- unit --------------------------------------------------------------

    def parse_unit(self, source: str = "") -> ast.CompilationUnit:
        texts = self.texts
        package = None
        lead = self._take_comments()
        if texts[0] == "package":
            self.pos += 1
            parts = [self._ident(IDENTIFIER)]
            while texts[self.pos] == ".":
                self.pos += 1
                parts.append(self._ident(IDENTIFIER))
            self._expect(";")
            package = ".".join(parts)
            lead += self._take_comments()
        classes = []
        while self.kinds[self.pos] != EOF:
            classes.append(self._class_decl(lead))
            lead = self._take_comments()
        # From the first token to the last, or the sentinel's 1:1 when the
        # source has none (index -1 is then the sentinel).
        end, uid = self.pos - 1, len(self.created)
        unit = ast.CompilationUnit(
            span=SourceSpan(self.file, self.lines[0], self.columns[0], self.lines[end], self.end_columns[end]),
            uid=uid, package_name=package, classes=classes, source=source, file=self.file,
            trailing_comments=lead,
        )
        self.created.append(unit)
        self.first.append(0)
        unit.tokens = self.stream
        unit.index = NodeIndex.from_post_order(self.created, self.first)
        return unit

    def _class_decl(self, lead: tuple[str, ...]) -> ast.ClassDecl:
        texts = self.texts
        start = self._expect("class")
        name = self._ident("class name")
        extends = None
        if texts[self.pos] == "extends":
            self.pos += 1
            extends = self._ident("superclass name")
        self._expect("{")
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while texts[self.pos] != "}":
            member = self._member(name, self._take_comments())
            if isinstance(member, ast.FieldDecl):
                fields.append(member)
            else:
                methods.append(member)
        self.pos += 1
        return self._node(ast.ClassDecl, start, name, extends, fields, methods, lead)

    def _member(self, class_name: str, lead: tuple[str, ...]):
        texts = self.texts
        start = self.pos
        if self.kinds[start] == EOF:
            raise self._error("class member")
        static = final = False
        while texts[self.pos] in ("static", "final"):
            if texts[self.pos] == "static":
                static = True
            else:
                final = True
            self.pos += 1
        pos = self.pos
        # Constructor: ClassName followed by '('.
        if self.kinds[pos] == IDENTIFIER and texts[pos] == class_name and texts[pos + 1] == "(":
            self.pos += 1
            params = self._params()
            body = self._block()
            return self._node(ast.MethodDecl, start, class_name, params, ast.VOID, body, True, static, lead)
        if texts[pos] == "void":
            self.pos += 1
            rtype = ast.VOID
        else:
            rtype = self._type()
        name = self._ident("member name")
        if texts[self.pos] == "(":
            params = self._params()
            body = self._block()
            return self._node(ast.MethodDecl, start, name, params, rtype, body, False, static, lead)
        init = None
        if texts[self.pos] == "=":
            self.pos += 1
            init = self._expr()
        self._expect(";")
        return self._node(ast.FieldDecl, start, name, rtype, static, final, init, lead)

    def _params(self) -> list[ast.Param]:
        texts = self.texts
        self._expect("(")
        params: list[ast.Param] = []
        if texts[self.pos] != ")":
            while True:
                start = self.pos
                final = texts[start] == "final"
                self.pos += final
                ptype = self._type()
                pname = self._ident("parameter name")
                params.append(self._node(ast.Param, start, pname, ptype, final))
                if texts[self.pos] != ",":
                    break
                self.pos += 1
        self._expect(")")
        return params

    def _type(self) -> TypeRef:
        texts = self.texts
        pos = self.pos
        text = texts[pos]
        if self.kinds[pos] != IDENTIFIER and text not in PRIMITIVE_TYPES:
            raise self._error("type")
        pos += 1
        dims = 0
        while texts[pos] == "[" and texts[pos + 1] == "]":
            pos += 2
            dims += 1
        self.pos = pos
        return self._type_ref(text, dims)

    def _type_ref(self, base: str, dims: int = 0) -> TypeRef:
        """The unit's one TypeRef for base with dims array dimensions."""
        ref = self.type_refs.get((base, dims))
        if ref is None:
            ref = self.type_refs[base, dims] = TypeRef(base, dims)
        return ref

    # -- statements --------------------------------------------------------

    def _block(self) -> ast.Block:
        texts = self.texts
        start = self._expect("{")
        stmts: list[ast.Stmt] = []
        while texts[self.pos] != "}":
            stmts.append(self._stmt())
        trailing = self._take_comments()
        self.pos += 1
        return self._node(ast.Block, start, stmts, trailing)

    def _body_block(self) -> ast.Block:
        """Parse a control-structure body, normalizing to a Block."""
        start = self.pos
        if self.texts[start] == "{":
            return self._block()
        stmt = self._stmt()
        return self._node(ast.Block, start, [stmt])

    def _stmt(self) -> ast.Stmt:
        tok = self.pos
        lead = self._take_comments() if self.next_comment <= tok else None
        self._descend(tok)
        parse = self._STATEMENTS.get(self.texts[tok])
        stmt = parse(self, tok) if parse is not None else self._expr_stmt(tok)
        self.depth -= 1
        if lead is not None:
            stmt.leading_comments = lead
        return stmt

    def _expr_stmt(self, tok: int) -> ast.Stmt:
        if self.kinds[tok] == EOF:
            raise self._error("statement")
        if self._looks_like_decl():
            return self._local_decl(tok)
        expr = self._expr_or_incr()
        self._expect(";")
        return self._node(ast.ExprStmt, tok, expr)

    def _empty(self, tok: int) -> ast.Empty:
        self.pos += 1
        return self._node(ast.Empty, tok)

    def _return(self, tok: int) -> ast.Return:
        self.pos += 1
        value = None
        if self.texts[self.pos] != ";":
            value = self._expr()
        self._expect(";")
        return self._node(ast.Return, tok, value)

    def _assert(self, tok: int) -> ast.Assert:
        self.pos += 1
        cond = self._expr()
        message = None
        if self.texts[self.pos] == ":":
            self.pos += 1
            message = self._expr()
        self._expect(";")
        return self._node(ast.Assert, tok, cond, message)

    def _synchronized(self, tok: int) -> ast.Synchronized:
        self.pos += 1
        self._expect("(")
        monitor = self._expr()
        self._expect(")")
        body = self._block()
        return self._node(ast.Synchronized, tok, monitor, body)

    def _looks_like_decl(self) -> bool:
        kinds, pos = self.kinds, self.pos
        if kinds[pos] != IDENTIFIER:
            return False
        return kinds[pos + 1] == IDENTIFIER or (self.texts[pos + 1] == "[" and self.texts[pos + 2] == "]")

    def _local_decl(self, start: int, consume_semi: bool = True) -> ast.LocalDecl:
        final = self.texts[start] == "final"
        self.pos += final
        dtype = self._type()
        name = self._ident("variable name")
        init = None
        if self.texts[self.pos] == "=":
            self.pos += 1
            init = self._expr()
        if consume_semi:
            self._expect(";")
        return self._node(ast.LocalDecl, start, name, dtype, final, init)

    def _condition(self) -> ast.Expr:
        """Skip the statement's keyword, then parse '(' expr ')'."""
        self.pos += 1
        self._expect("(")
        cond = self._expr()
        self._expect(")")
        return cond

    def _if_stmt(self, start: int) -> ast.If:
        cond = self._condition()
        then = self._body_block()
        els: ast.Stmt | None = None
        if self.texts[self.pos] == "else":
            self.pos += 1
            tok = self.pos
            if self.texts[tok] == "if":
                self._descend(tok)
                els = self._if_stmt(tok)
                self.depth -= 1
            else:
                els = self._body_block()
        return self._node(ast.If, start, cond, then, els)

    def _while_stmt(self, start: int) -> ast.While:
        cond = self._condition()
        body = self._body_block()
        return self._node(ast.While, start, cond, body)

    def _for_stmt(self, start: int) -> ast.For:
        texts = self.texts
        self.pos += 1
        self._expect("(")
        init: ast.Stmt | None = None
        first = self.pos
        if texts[first] != ";":
            if texts[first] == "final" or texts[first] in PRIMITIVE_TYPES or self._looks_like_decl():
                init = self._local_decl(first, consume_semi=False)
            else:
                expr = self._expr_or_incr()
                init = self._node(ast.ExprStmt, first, expr)
        self._expect(";")
        cond: ast.Expr | None = None
        if texts[self.pos] != ";":
            cond = self._expr()
        self._expect(";")
        update: ast.Expr | None = None
        if texts[self.pos] != ")":
            update = self._expr_or_incr()
        self._expect(")")
        body = self._body_block()
        return self._node(ast.For, start, init, cond, update, body)

    def _switch_stmt(self, start: int) -> ast.Switch:
        texts = self.texts
        subject = self._condition()
        self._expect("{")
        cases: list[ast.SwitchCase] = []
        while texts[self.pos] != "}":
            case_start = self.pos
            label: ast.Expr | None = None
            if texts[case_start] == "case":
                self.pos += 1
                label = self._expr()
            else:
                self._expect("default", "'case' or 'default'")
            self._expect(":")
            body: list[ast.Stmt] = []
            while texts[self.pos] not in ("case", "default", "}"):
                body.append(self._stmt())
            cases.append(self._node(ast.SwitchCase, case_start, label, body))
        self.pos += 1
        return self._node(ast.Switch, start, subject, cases)

    def _try_stmt(self, start: int) -> ast.Try:
        texts = self.texts
        self.pos += 1
        body = self._block()
        catches: list[ast.CatchClause] = []
        while texts[self.pos] == "catch":
            cstart = self.pos
            self.pos += 1
            self._expect("(")
            ctype = self._type()
            cname = self._ident("catch parameter")
            self._expect(")")
            cbody = self._block()
            catches.append(self._node(ast.CatchClause, cstart, ctype, cname, cbody))
        finally_block = None
        if texts[self.pos] == "finally":
            self.pos += 1
            finally_block = self._block()
        if not catches and finally_block is None:
            raise self._error("'catch' or 'finally'")
        return self._node(ast.Try, start, body, catches, finally_block)

    _STATEMENTS = {
        "{": lambda self, tok: self._block(),
        ";": _empty,
        "if": _if_stmt,
        "while": _while_stmt,
        "for": _for_stmt,
        "switch": _switch_stmt,
        "try": _try_stmt,
        "return": _return,
        "assert": _assert,
        "synchronized": _synchronized,
        **dict.fromkeys(("final",) + PRIMITIVE_TYPES, _local_decl),
    }

    # -- expressions -------------------------------------------------------

    def _expr_or_incr(self) -> ast.Expr:
        """Expression, allowing trailing ++/-- sugar in statement position."""
        start = self.pos
        expr = self._expr()
        op_tok = self.pos
        op_text = self.texts[op_tok]
        if op_text != "++" and op_text != "--":
            return expr
        self.pos += 1
        if not isinstance(expr, _LVALUES):
            raise ParseError(self.stream.span(op_tok), "assignable expression before '++'/'--'", repr(op_text))
        if self.depth + self.height + 2 > MAX_NESTING:
            raise NestingError(self.stream.span(op_tok), MAX_NESTING)
        one = self._node(ast.Literal, op_tok, 1, "int")
        op = "+" if op_text == "++" else "-"
        arith = self._node(ast.Binary, start, op, self._clone_expr(expr), one)
        # arith begins where expr does, but holds only the 1 and the copy.
        self.first[arith.uid] = one.uid
        return self._node(ast.Binary, start, "=", expr, arith)

    def _clone_expr(self, expr: ast.Expr) -> ast.Expr:
        """Deep-copy an lvalue expression with fresh uids (for ++/-- sugar).
        The copy keeps expr's spans, so its subtree is set here, not found
        from its start token."""
        first = len(self.created)
        if isinstance(expr, ast.Index):
            array, index = self._clone_expr(expr.array), self._clone_expr(expr.index)
            node = ast.Index(expr.span, len(self.created), array, index)
        elif isinstance(expr, ast.FieldAccess):
            receiver = self._clone_expr(expr.receiver)
            node = ast.FieldAccess(expr.span, len(self.created), receiver, expr.name)
        elif isinstance(expr, ast.Name):
            node = ast.Name(expr.span, first, expr.identifier)
        elif isinstance(expr, ast.Literal):
            node = ast.Literal(expr.span, first, expr.value, expr.kind)
        else:
            raise ParseError(expr.span, "assignable expression", type(expr).__name__)
        self.created.append(node)
        self.first.append(first)
        return node

    def _expr(self) -> ast.Expr:
        """Assignment: a binary chain, then a right-associative '=' chain."""
        texts = self.texts
        start = self.pos
        left = self._operand()
        if texts[self.pos] in PRECEDENCE:
            left = self._climb(start, left, 1)
        eq = self.pos
        if texts[eq] != "=":
            return left
        self.pos += 1
        if not isinstance(left, _LVALUES):
            raise ParseError(self.stream.span(eq), "assignable expression on left of '='", repr(texts[eq]))
        height = self.height + 1  # the target goes one level down
        if self.depth + height > MAX_NESTING:
            raise NestingError(self.stream.span(eq), MAX_NESTING)
        self.depth += 1
        right = self._expr()
        self.depth -= 1
        self.height = max(height, self.height + 1)
        return self._node(ast.Binary, start, "=", left, right)

    def _climb(self, start: int, left: ast.Expr, min_prec: int) -> ast.Expr:
        """Precedence climbing: extend left, which began at token start, with
        the operators of at least min_prec that follow it.  A right operand
        takes the operators that bind tighter than its own.  Each Binary is
        built after its right operand and begins at start."""
        texts = self.texts
        depth, height = self.depth, self.height
        self.depth = depth + 1
        prec = PRECEDENCE.get(texts[self.pos], 0)
        while prec >= min_prec:
            op = self.pos
            height += 1  # the chain so far goes one level down
            if depth + height > MAX_NESTING:
                raise NestingError(self.stream.span(op), MAX_NESTING)
            self.pos = right_start = op + 1
            right = self._operand()
            after = PRECEDENCE.get(texts[self.pos], 0)
            if after > prec:
                right = self._climb(right_start, right, prec + 1)
                after = PRECEDENCE.get(texts[self.pos], 0)
            if self.height >= height:
                height = self.height + 1
            left = self._node(ast.Binary, start, texts[op], left, right)
            prec = after
        self.depth = depth
        self.height = height
        return left

    def _operand(self) -> ast.Expr:
        """Unary operators, then a primary and its postfix operators."""
        texts = self.texts
        tok = self.pos
        kind, text = self.kinds[tok], texts[tok]
        self.height = 0
        if kind == IDENTIFIER:
            self.pos = tok + 1
            if texts[tok + 1] == "(":
                args = self._args()
                expr = self._node(ast.Call, tok, text, args)
            else:
                expr = self._node(ast.Name, tok, text)
        elif kind == INT_LITERAL:
            self.pos = tok + 1
            # Past 10 significant digits a literal is out of int range, and
            # the resolver rejects it: 10**10 stands in, unconverted.
            value = int(text) if len(text.lstrip("0")) <= 10 else 10**10
            expr = self._node(ast.Literal, tok, value, "int")
        elif text == "!" or text == "-":
            self.pos = tok + 1
            self._descend(tok)
            operand = self._operand()
            self.depth -= 1
            self.height += 1
            return self._node(ast.Unary, tok, text, operand)
        elif text == "(":
            self.pos = tok + 1
            self._descend(tok)
            expr = self._expr()
            self._expect(")")
            self.depth -= 1
            self.height += 1
        elif kind == DOUBLE_LITERAL:
            self.pos = tok + 1
            expr = self._node(ast.Literal, tok, float(text), "double")
        elif kind == STRING_LITERAL:
            self.pos = tok + 1
            expr = self._node(ast.Literal, tok, string_literal_value(text), "string")
        elif text == "true" or text == "false":
            self.pos = tok + 1
            expr = self._node(ast.Literal, tok, text == "true", "boolean")
        elif text == "null":
            self.pos = tok + 1
            expr = self._node(ast.Null, tok)
        elif text == "this":
            self.pos = tok + 1
            expr = self._node(ast.Name, tok, "this")
        elif text == "new":
            expr = self._new(tok)
        else:
            raise self._error("expression")
        if texts[self.pos] in (".", "["):
            return self._postfix(tok, expr)
        return expr

    def _new(self, tok: int) -> ast.Expr:
        texts = self.texts
        type_tok = tok + 1
        type_name = texts[type_tok]
        self.pos = type_tok
        if self.kinds[type_tok] != IDENTIFIER and type_name not in PRIMITIVE_TYPES:
            raise self._error("type after 'new'")
        self.pos += 1
        if texts[self.pos] != "[":
            args = self._args()
            return self._node(ast.New, tok, type_name, args)
        self._descend(self.pos)
        self.pos += 1
        size = self._expr()
        self._expect("]")
        self.depth -= 1
        self.height += 1
        return self._node(ast.NewArray, tok, self._type_ref(type_name), size)

    def _postfix(self, start: int, expr: ast.Expr) -> ast.Expr:
        """Member accesses, method calls and indexes applied to expr."""
        texts = self.texts
        depth, height = self.depth, self.height
        while True:
            op = self.pos
            if texts[op] == ".":
                height += 1  # the receiver goes one level down
                if depth + height > MAX_NESTING:
                    raise NestingError(self.stream.span(op), MAX_NESTING)
                self.pos += 1
                name = self._ident("member name")
                if texts[self.pos] == "(":
                    args = self._args()
                    height = max(height, self.height)
                    expr = self._node(ast.Call, start, name, args, expr)
                else:
                    expr = self._node(ast.FieldAccess, start, expr, name)
            elif texts[op] == "[":
                height += 1
                if depth + height > MAX_NESTING:
                    raise NestingError(self.stream.span(op), MAX_NESTING)
                self.pos += 1
                self.depth = depth + 1
                index = self._expr()
                self.depth = depth
                self._expect("]")
                height = max(height, self.height + 1)
                expr = self._node(ast.Index, start, expr, index)
            else:
                self.height = height
                return expr

    def _args(self) -> list[ast.Expr]:
        """'(' [ expr { ',' expr } ] ')', one level down; leaves the height
        of the call over them in self.height."""
        texts = self.texts
        self._expect("(")
        args: list[ast.Expr] = []
        height = 0
        if texts[self.pos] != ")":
            self._descend(self.pos)
            while True:
                args.append(self._expr())
                if self.height >= height:
                    height = self.height + 1
                if texts[self.pos] != ",":
                    break
                self.pos += 1
            self.depth -= 1
        self._expect(")")
        self.height = height
        return args


def parse(tokens: TokenStream, file: str = "<memory>", source: str = "") -> ast.CompilationUnit:
    """Build a CompilationUnit from the stream `tokenize` returned; the
    unit keeps it as `unit.tokens`."""
    return Parser(tokens, file).parse_unit(source)


def parse_source(source: str, file: str = "<memory>") -> ast.CompilationUnit:
    """Tokenize and parse in one step."""
    return parse(tokenize(source, file), file, source)
