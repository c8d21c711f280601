"""Call graph construction: one edge per Call/New site and target."""

from __future__ import annotations

from bisect import bisect_left
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
    """One edge per Call/New site in a method body and each of its targets,
    by class, then method, then site in pre-order.  A body's sites are the
    run of the unit's sites whose index positions lie in the body's subtree."""
    graph = CallGraph()
    sites = resolution.nodes_of(ast.Call, ast.New)
    positions, ends = resolution.index.positions, resolution.index.ends
    starts = [positions[site.uid] for site in sites]
    for info in resolution.classes.values():
        for minfo in info.methods.values():
            caller = minfo.method_id
            body = minfo.decl.body.uid
            first = bisect_left(starts, positions[body])
            for site in sites[first : bisect_left(starts, ends[body], first)]:
                for target in resolution.targets(site):
                    graph.edges.append(CallEdge(caller, target.id, site, target.builtin is not None))
    return graph


def unconditional_cycles(graph: CallGraph, recurses: Callable[[str, list[CallEdge]], bool]) -> list[list[str]]:
    """Cycles of calls among declared methods that never return once
    entered: the strongly connected components each of whose members m
    passes recurses(m, its calls into its component), sorted for
    determinism.  A member that fails is dropped and the components are
    found again without it, until every member passes."""
    edges = [e for e in graph.edges if not e.callee_builtin]
    while True:
        cycles = _cyclic_sccs(_adjacency(edges))
        component = {m: i for i, scc in enumerate(cycles) for m in scc}
        inner: dict[str, list[CallEdge]] = {}
        for e in edges:
            if e.caller in component and component[e.caller] == component.get(e.callee):
                inner.setdefault(e.caller, []).append(e)
        dropped = {m for m, calls in inner.items() if not recurses(m, calls)}
        if not dropped:
            return cycles
        edges = [e for calls in inner.values() for e in calls if e.caller not in dropped and e.callee not in dropped]


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
