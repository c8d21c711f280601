"""Every pass that dispatches on a node's class keys one table by it: the
resolver's statements and expressions, the CFG builder's statements and the
interpreter's code generator's statements and expressions.  Each table holds exactly one
entry for each concrete statement or expression class of `frontend/ast.py`,
so a class added to the grammar, or an entry dropped from a table, fails
here instead of as a KeyError on the first program that uses it."""

import pytest

from overrun_lint import cfg
from overrun_lint.frontend import ast
from overrun_lint.runtime.interpreter import _Gen
from overrun_lint.semantics.resolver import _Resolver


def _concrete(base: type) -> set[type]:
    # From the module, not base.__subclasses__(): a slotted record replaces
    # the class it was declared as, and the replaced class may linger there.
    return {c for c in vars(ast).values() if isinstance(c, type) and issubclass(c, base) and c is not base}


STMT_CLASSES = _concrete(ast.Stmt)
EXPR_CLASSES = _concrete(ast.Expr)


@pytest.mark.parametrize(
    "table, classes",
    [
        (_Resolver._STMTS, STMT_CLASSES),
        (_Resolver._EXPRS, EXPR_CLASSES),
        (cfg._Builder._STMTS, STMT_CLASSES),
        (_Gen._STMTS, STMT_CLASSES),
        (_Gen._EXPRS, EXPR_CLASSES),
    ],
    ids=["resolver-stmts", "resolver-exprs", "cfg-stmts", "interpreter-stmts", "interpreter-exprs"],
)
def test_every_dispatch_table_has_one_entry_per_node_class(table, classes):
    assert set(table) == classes
    assert all(callable(handler) for handler in table.values())
