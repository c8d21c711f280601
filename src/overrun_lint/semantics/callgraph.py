"""Call graph construction: one edge per syntactic Call/New site."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend import ast
from ..frontend.lexer import SourceSpan
from .resolver import Resolution

_CONDITIONING = (ast.If, ast.While, ast.For, ast.Switch, ast.Try)


@dataclass
class CallEdge:
    caller: str
    callee: str
    span: SourceSpan
    unconditional: bool
    callee_builtin: bool = False
    is_new: bool = False
    call_uid: int = -1
    # True when every conditioning ancestor is a constant-true branch,
    # i.e. the call runs whenever the caller does.
    effectively_unconditional: bool = False


@dataclass
class CallGraph:
    nodes: set[str] = field(default_factory=set)
    builtin_nodes: set[str] = field(default_factory=set)
    edges: list[CallEdge] = field(default_factory=list)

    def edges_from(self, node: str) -> list[CallEdge]:
        return [e for e in self.edges if e.caller == node]


def build_call_graph(unit: ast.CompilationUnit, resolution: Resolution) -> CallGraph:
    graph = CallGraph()
    graph.nodes.add("unknown")
    for info in resolution.classes.values():
        for minfo in info.methods.values():
            caller = minfo.method_id
            graph.nodes.add(caller)
            body = minfo.decl.body
            for node in ast.walk(body):
                if not isinstance(node, (ast.Call, ast.New)):
                    continue
                target = resolution.call_targets.get(node.uid)
                if target is None:
                    callee, builtin = "unknown", False
                elif target.kind == "builtin":
                    callee, builtin = target.id, True
                elif target.kind == "unknown":
                    callee, builtin = "unknown", False
                else:
                    callee, builtin = target.id, False
                if builtin:
                    graph.builtin_nodes.add(callee)
                else:
                    graph.nodes.add(callee)
                unconditional, effectively = _conditioning(node, body, resolution)
                graph.edges.append(
                    CallEdge(
                        caller=caller,
                        callee=callee,
                        span=node.span,
                        unconditional=unconditional,
                        callee_builtin=builtin,
                        is_new=isinstance(node, ast.New),
                        call_uid=node.uid,
                        effectively_unconditional=effectively,
                    )
                )
    return graph


def _conditioning(node: ast.Node, body: ast.Block, resolution: Resolution) -> tuple[bool, bool]:
    """(unconditional, effectively unconditional) for a call site in body,
    from one climb to the body.  Unconditional: no if, loop, switch or try
    lies between them.  Effectively unconditional: the same after folding
    constant-true conditions (if(1) et al)."""
    plain = True
    cur = node
    while cur.uid != body.uid:
        parent = resolution.parents.get(cur.uid)
        if parent is None:
            return False, False
        if isinstance(parent, _CONDITIONING):
            plain = False
        if isinstance(parent, ast.If):
            truth = ast.literal_truth(parent.cond)
            if not (
                cur is parent.cond
                or (truth is True and cur is parent.then)
                or (truth is False and cur is parent.els)
            ):
                return False, False
        elif isinstance(parent, (ast.While, ast.For)):
            cond = parent.cond
            truth = True if (isinstance(parent, ast.For) and cond is None) else ast.literal_truth(cond)
            if cur is not cond and truth is not True:
                return False, False
        elif isinstance(parent, (ast.Switch, ast.Try, ast.SwitchCase, ast.CatchClause)):
            return False, False
        cur = parent
    return plain, True


def unconditional_cycles(graph: CallGraph) -> list[list[str]]:
    """Strongly connected components of the effectively-unconditional subgraph
    that contain a cycle, sorted for determinism."""
    adjacency: dict[str, set[str]] = {}
    for edge in graph.edges:
        if edge.effectively_unconditional and not edge.callee_builtin and edge.callee != "unknown":
            adjacency.setdefault(edge.caller, set()).add(edge.callee)
    return _cyclic_sccs(adjacency)


def constructor_cycles(graph: CallGraph) -> list[list[str]]:
    """Cycles among constructors regardless of conditioning."""
    adjacency: dict[str, set[str]] = {}
    for edge in graph.edges:
        if ".<init>/" in edge.caller and ".<init>/" in edge.callee:
            adjacency.setdefault(edge.caller, set()).add(edge.callee)
    return _cyclic_sccs(adjacency)


def _cyclic_sccs(adjacency: dict[str, set[str]]) -> list[list[str]]:
    # Tarjan, iterative to keep deep graphs safe.
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []
    nodes = sorted(set(adjacency) | {n for targets in adjacency.values() for n in targets})

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(adjacency.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(adjacency.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in adjacency.get(node, ()):
                    sccs.append(sorted(component))

    for node in nodes:
        if node not in index:
            strongconnect(node)
    return sorted(sccs)
