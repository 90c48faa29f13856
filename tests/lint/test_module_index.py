"""``LintModule`` walks its tree once; everything else reads that walk.

The node list must be exactly what ``ast.walk`` yields (rules report in
that order), the parent/child maps must agree with
``ast.iter_child_nodes``, and the scope walkers must visit what — and
in the order — their ``ast``-walking predecessors did
(``_set_typed_names`` folds verdicts in visit order).
"""

import ast
from pathlib import Path

import pytest

from repro.lint.engine import iter_python_files
from repro.lint.module import _SCOPE_NODES, LintModule

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def reference_walk_scope(scope: ast.AST):
    """``walk_scope`` as it was: a stack over ``ast.iter_child_nodes``."""
    if isinstance(scope, _SCOPE_NODES):
        stack = list(scope.body)
    else:
        stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def reference_iter_scopes(tree: ast.Module):
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@pytest.fixture(scope="module")
def modules():
    return [
        LintModule.from_bytes(str(path), path.read_bytes())
        for path in iter_python_files([SRC])
    ]


def test_nodes_are_ast_walk_order(modules):
    for module in modules:
        walked = list(ast.walk(module.tree))
        assert len(module.nodes) == len(walked), module.path
        assert all(a is b for a, b in zip(module.nodes, walked)), module.path


#: CPython shares one instance of each of these across a whole tree, so
#: they have many syntactic parents and the map keeps the last one.
_SHARED = (ast.expr_context, ast.operator, ast.cmpop, ast.boolop, ast.unaryop)


def test_parent_and_child_maps_agree_with_ast(modules):
    for module in modules:
        assert module.parent(module.tree) is None
        for node in module.nodes:
            kids = list(ast.iter_child_nodes(node))
            assert module.children[node] == kids, module.path
            assert all(
                module.parent(kid) is node
                for kid in kids
                if not isinstance(kid, _SHARED)
            ), module.path
        assert len(module.parents) == len(set(module.nodes)) - 1


def test_scope_walkers_visit_in_the_reference_order(modules):
    for module in modules:
        scopes = list(module.iter_scopes())
        assert scopes == list(reference_iter_scopes(module.tree)), module.path
        for scope in scopes:
            assert list(module.walk_scope(scope)) == list(
                reference_walk_scope(scope)
            ), module.path
