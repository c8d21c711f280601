"""Call graph construction: one edge per syntactic Call/New site."""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..records import field, record
from ..cfg import is_constructor_id
from ..frontend import ast
from .resolver import Resolution


@record
class CallEdge:
    caller: str
    callee: str
    site: ast.Call | ast.New
    callee_builtin: bool = False


@record
class CallGraph:
    edges: list[CallEdge] = field(default_factory=list)


def build_call_graph(unit: ast.CompilationUnit, resolution: Resolution) -> CallGraph:
    graph = CallGraph()
    for info in resolution.classes.values():
        for minfo in info.methods.values():
            caller = minfo.method_id
            for node in resolution.subtree(minfo.decl.body):
                if not isinstance(node, (ast.Call, ast.New)):
                    continue
                target = resolution.call_targets.get(node.uid)
                callee = target.id if target is not None else "unknown"
                graph.edges.append(
                    CallEdge(
                        caller=caller,
                        callee=callee,
                        site=node,
                        callee_builtin=target is not None and target.builtin is not None,
                    )
                )
    return graph


def unconditional_cycles(graph: CallGraph, always_runs: Callable[[CallEdge], bool]) -> list[list[str]]:
    """Cycles of calls among declared methods in which every call always
    runs, as the strongly connected components that contain one, sorted for
    determinism.  always_runs is asked only about edges inside a cycle of
    the whole graph."""
    declared = [e for e in graph.edges if not e.callee_builtin and e.callee != "unknown"]
    component = {m: i for i, scc in enumerate(_cyclic_sccs(_adjacency(declared))) for m in scc}
    kept = [
        e
        for e in declared
        if e.caller in component and component[e.caller] == component.get(e.callee) and always_runs(e)
    ]
    return _cyclic_sccs(_adjacency(kept))


def constructor_cycles(graph: CallGraph) -> list[list[str]]:
    """Cycles among constructors, whether or not their calls always run."""
    return _cyclic_sccs(
        _adjacency(e for e in graph.edges if is_constructor_id(e.caller) and is_constructor_id(e.callee))
    )


def _adjacency(edges: Iterable[CallEdge]) -> dict[str, set[str]]:
    adjacency: dict[str, set[str]] = {}
    for edge in edges:
        adjacency.setdefault(edge.caller, set()).add(edge.callee)
    return adjacency


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
