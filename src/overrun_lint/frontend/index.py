"""The node index of a unit: every node in pre-order, and where each
node's subtree and parent lie.

The parser builds it as it goes.  It hands out uids in creation order, and
creates each node after its children, so the uids number the tree in
post-order and a node's subtree is the uid range [first[u], u].
`from_post_order` turns those ranges into the index in one backward pass
with no child listing.  The pre-order it gives visits siblings in creation
order, which is source order except for the lvalue copy of `++`/`--`,
created after the `1` it is added to.  A unit built by hand is indexed by
a walk (`by_walk`) that visits siblings by span, so in source order too.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from operator import add, attrgetter, sub

from . import ast


class NodeIndex:
    """nodes: every node in pre-order.  positions: uid -> the node's place
    in nodes.  ends: uid -> where the node's subtree ends in nodes, so that
    it is nodes[positions[uid]:ends[uid]].  parents: uid -> parent node
    (None for the root).  by_type: the nodes of each class, in pre-order."""

    __slots__ = ("nodes", "positions", "ends", "parents", "by_type")

    def __init__(self, nodes: list[ast.Node], positions: array, ends: array, parents: list[ast.Node | None]):
        self.nodes = nodes
        self.positions = positions
        self.ends = ends
        self.parents = parents
        by_type: defaultdict[type, list[ast.Node]] = defaultdict(list)
        for node in nodes:
            by_type[type(node)].append(node)
        self.by_type = dict(by_type)

    @classmethod
    def from_post_order(cls, created: list[ast.Node], first: list[int]) -> NodeIndex:
        """The index of a tree whose node u is created[u], the root last,
        and whose subtree is the uid range [first[u], u].  The last child of
        u is u - 1, and the child before child j is first[j] - 1.  Before u
        in pre-order come the first[u] nodes of the subtrees that end before
        u's begins, and u's ancestors."""
        n = len(created)
        parents: list[ast.Node | None] = [None] * n
        depth = [0] * n
        for u in range(n - 1, -1, -1):
            f, node = first[u], created[u]
            d = depth[u] + 1
            j = u - 1
            while j >= f:
                parents[j] = node
                depth[j] = d
                j = first[j] - 1
        positions = array("l", map(add, first, depth))
        nodes: list[ast.Node] = [None] * n  # type: ignore[list-item]
        for node, pos in zip(created, positions):
            nodes[pos] = node
        ends = array("l", map(add, positions, map(sub, range(1, n + 1), first)))
        return cls(nodes, positions, ends, parents)

    @classmethod
    def by_walk(cls, root: ast.Node) -> NodeIndex:
        """The index of a tree with any uids, by one walk that visits each
        node's children in source order (by span start, ties in field
        order)."""
        # When the walk pops a node, the entry below it on the stack is the
        # node it reaches after that node's subtree (None: the end), so
        # that node's position is where the subtree ends.
        nodes: list[ast.Node] = []
        walked: list[tuple[ast.Node, ast.Node | None]] = []
        stack: list[ast.Node | None] = [None, root]
        while (node := stack.pop()) is not None:
            nodes.append(node)
            walked.append((node, stack[-1]))
            stack.extend(reversed(sorted(ast.child_nodes(node), key=_start)))
        # One slot past the largest uid: a unit built with the default uid
        # -1 indexes that slot, which no other node has.
        size = max(node.uid for node in nodes) + 2
        positions = array("l", [0]) * size
        ends = array("l", [0]) * size
        parents: list[ast.Node | None] = [None] * size
        for position, node in enumerate(nodes):
            positions[node.uid] = position
            for child in ast.child_nodes(node):
                parents[child.uid] = node
        for node, nxt in walked:
            ends[node.uid] = len(nodes) if nxt is None else positions[nxt.uid]
        return cls(nodes, positions, ends, parents)


_start = attrgetter("span.line", "span.column")
