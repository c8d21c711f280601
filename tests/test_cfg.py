import gc
import hashlib
import random
import types

from overrun_lint.cfg import (
    CfgTable,
    ControlFlowGraph,
    build_unit_cfgs,
    complexity_bd,
    complexity_en,
    reach,
    unreachable_nodes,
)
from overrun_lint.frontend import ast, parse_source
from overrun_lint.frontend.lexer import SourceSpan

from progen import gen_structured_method, seeded_unit, wrap_body_in_try


def graph(method, n, edges, entry=0, exit=1):
    """A graph of n blocks with no instructions and the (src, dst, key)
    edges, over a table of its own."""
    src, dst, key = (list(column) for column in zip(*edges)) if edges else ([], [], [])
    table = CfgTable()
    table.first.extend([-1] * n)
    table.stop.extend([-1] * n)
    table.add_edges(src, dst, key)
    return ControlFlowGraph(method, table, range(n), range(0), entry, exit)


def cfg_of(source, method="work"):
    unit = parse_source(source)
    cfgs = build_unit_cfgs(unit)
    return next(cfg for mid, cfg in cfgs.cfgs.items() if f".{method}/" in mid)


def test_straight_line_chain():
    cfg = cfg_of("class C { static void work() { int a = 1; int b = 2; int c = 3; } }")
    assert cfg.E == cfg.N - 1
    assert complexity_en(cfg) == 1
    assert complexity_bd(cfg) == 1


def test_if_else_single_decision():
    cfg = cfg_of(
        "class C { static void work(int x) { if (x < 0) { println(1); } else { println(2); } } }"
    )
    assert cfg.D == 1 and cfg.B == 2
    assert complexity_en(cfg) == 2 == complexity_bd(cfg)


def test_single_loop_single_decision():
    cfg = cfg_of(
        "class C { static void work() { for (int i = 1; i < 10; i++) { println(i); } println(0); } }"
    )
    assert cfg.D == 1
    assert complexity_en(cfg) == 2 == complexity_bd(cfg)


def test_formula_on_synthetic_diamond():
    # complexity functions are pure functions of any well-formed graph
    cfg = graph("synthetic", 4, [(0, 1, "true-branch"), (0, 2, "false-branch"),
                                 (1, 3, "fallthrough"), (2, 3, "fallthrough")], exit=3)
    assert cfg.E == 4 and cfg.N == 4
    assert complexity_en(cfg) == 2
    assert complexity_bd(cfg) == 2


def test_branch_free_bd():
    cfg = cfg_of("class C { static void work() { println(1); } }")
    assert cfg.B == 0 and cfg.D == 0
    assert complexity_bd(cfg) == 1


def test_switch_counts_one_decision():
    cfg = cfg_of(
        """\
class C {
    static void work(int x) {
        switch (x) {
        case 1:
            println(1);
        case 2:
            println(2);
        default:
            println(3);
        }
    }
}
"""
    )
    assert cfg.D == 1 and cfg.B == 3
    assert complexity_en(cfg) == complexity_bd(cfg) == 3


def test_try_catch_adds_no_complexity():
    plain = cfg_of("class C { static void work(int x) { if (x < 0) { println(1); } } }")
    wrapped = cfg_of(
        """\
class C {
    static void work(int x) {
        try {
            if (x < 0) {
                println(1);
            }
        } catch (Exception e) {
            println(2);
        } finally {
            println(3);
        }
    }
}
"""
    )
    assert complexity_en(plain) == complexity_en(wrapped) == 2
    assert complexity_bd(plain) == complexity_bd(wrapped) == 2


def test_reachability_linear_chain_all_ones_from_entry():
    cfg = graph("chain", 3, [(0, 1, "fallthrough"), (1, 2, "fallthrough")], exit=2)
    assert reach(cfg) == {0, 1, 2}
    assert all(i in reach(cfg, i) for i in range(3))


def test_reachability_matches_dfs_oracle_on_random_dags():
    rng = random.Random(20260809)
    for _ in range(60):
        n = rng.randint(2, 8)
        edges = [(i, j, "fallthrough") for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        cfg = graph("dag", n, edges, exit=n - 1)

        def dfs(start):
            seen = {start}
            stack = [start]
            while stack:
                cur = stack.pop()
                for src, dst, _ in edges:
                    if src == cur and dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
            return seen

        for i in range(n):
            assert reach(cfg, i) == dfs(i)
        assert unreachable_nodes(cfg) == sorted(set(range(n)) - dfs(0))


def test_reach_matches_dfs_oracle_with_blocked_blocks():
    # Random graphs with cycles and self-loops; a path stops at a blocked
    # block, which it reaches but does not leave.
    rng = random.Random(20261019)
    for _ in range(200):
        n = rng.randint(1, 9)
        edges = [(i, j, "fallthrough") for i in range(n) for j in range(n) if rng.random() < 0.25]
        cfg = graph("g", n, edges)
        blocked = {bid for bid in range(n) if rng.random() < 0.3}
        start = rng.randrange(n)

        seen, stack = {start}, [start]
        while stack:
            cur = stack.pop()
            if cur in blocked:
                continue
            for src, dst, _ in edges:
                if src == cur and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        assert reach(cfg, start, blocked) == seen
        cfg.entry = start
        assert reach(cfg, blocked=frozenset(blocked)) == seen


def test_unreachable_after_return():
    source = """\
class C {
    static int work() {
        return 1;
        println(9);
    }
}
"""
    cfg = cfg_of(source)
    dead = unreachable_nodes(cfg)
    assert len(dead) == 1
    span = cfg.table.instr_spans[cfg.instructions(dead[0])[0]]
    assert span.line == 4


def test_structured_method_no_unreachable():
    cfg = cfg_of("class C { static void work(int x) { if (x < 0) { println(1); } println(2); } }")
    assert unreachable_nodes(cfg) == []


def test_while_false_body_unreachable():
    cfg = cfg_of("class C { static void work() { while (false) { println(1); } println(2); } }")
    dead = unreachable_nodes(cfg)
    assert len(dead) == 1
    assert complexity_en(cfg) == 1  # folded: no decision remains


def test_random_structured_methods_formulas_agree():
    rng = random.Random(7)
    for _ in range(50):
        source, decisions = gen_structured_method(rng)
        cfg = cfg_of(source)
        assert complexity_en(cfg) == complexity_bd(cfg) == decisions + 1


def test_try_wrap_neutrality_on_random_methods():
    rng = random.Random(8)
    for _ in range(30):
        source, decisions = gen_structured_method(rng)
        plain = cfg_of(source)
        wrapped = cfg_of(wrap_body_in_try(source))
        assert complexity_en(wrapped) == complexity_en(plain) == decisions + 1
        assert complexity_bd(wrapped) == complexity_bd(plain)


def test_v_is_one_iff_no_decisions():
    rng = random.Random(9)
    for _ in range(30):
        source, decisions = gen_structured_method(rng)
        cfg = cfg_of(source)
        assert (complexity_en(cfg) == 1) == (cfg.D == 0)
        assert complexity_en(cfg) >= 1


def test_every_statement_maps_to_instruction(corpus_sources):
    leafs = (ast.ExprStmt, ast.LocalDecl, ast.Return, ast.Assert, ast.Empty,
             ast.If, ast.While, ast.For, ast.Switch, ast.Synchronized)
    for name, source in corpus_sources.items():
        unit = parse_source(source, name)
        cfgs = build_unit_cfgs(unit)
        for node in ast.walk(unit):
            if isinstance(node, leafs):
                assert node.uid in cfgs.stmt_iids, (name, type(node).__name__)


def test_edge_count_is_outdegree_sum(corpus_sources):
    for name, source in corpus_sources.items():
        cfgs = build_unit_cfgs(parse_source(source, name))
        for cfg in cfgs.cfgs.values():
            assert cfg.E == sum(len(list(cfg.out_edges(b))) for b in cfg.blocks)
            assert [b for b in cfg.blocks for dst, _ in cfg.out_edges(b) if dst == cfg.entry] == []
            assert list(cfg.out_edges(cfg.exit)) == []


def test_while_false_body_never_executes_at_runtime():
    from overrun_lint.pipeline import run_source
    from overrun_lint.runtime import RunOptions

    source = """\
class C {
    static void main(String[] args) {
        while (false) {
            println(1);
        }
        println(2);
    }
}
"""
    trace, analyzed = run_source(source, "c.sl", RunOptions())
    cfg = next(c for m, c in analyzed.cfgs.cfgs.items() if ".main/" in m)
    dead_iids = {iid for block in unreachable_nodes(cfg) for iid in cfg.instructions(block)}
    assert dead_iids
    assert dead_iids.isdisjoint(trace.executed_instruction_ids)
    assert trace.stdout == ["2"]


def _units(corpus_sources):
    yield from corpus_sources.items()
    for seed in range(300):
        yield f"seeded{seed}.sl", seeded_unit(seed)


# The structure digest below, recorded before the graphs moved into flat
# columns: every graph's blocks by position, each block's instruction ids
# and its out-edges (target position and key, in the order they were added),
# entry, exit, implicit return, synthetic flag and skippable ids, and each
# unit's statement ids and instruction spans.
STRUCTURE_DIGEST = "49d7822a129bdbb813728ba03b001a9238a2d18ae983a717a320b56dcbd8c843"


def test_structure_digest_is_unchanged(corpus_sources):
    h = hashlib.sha256()
    for name, source in _units(corpus_sources):
        cfgs = build_unit_cfgs(parse_source(source, name))
        skippable = cfgs.table.skippable
        for mid, cfg in cfgs.cfgs.items():
            pos = {b: k for k, b in enumerate(cfg.blocks)}
            skip = [i for i in cfg.iids if skippable[i]]
            head = f"{name} {mid} {cfg.synthetic} {pos[cfg.entry]} {pos[cfg.exit]} {cfg.implicit_return_iid} {skip}"
            h.update(f"{head}\n".encode())
            for b in cfg.blocks:
                out = [(pos[dst], key) for dst, key in cfg.out_edges(b)]
                h.update(f"{list(cfg.instructions(b))} {out}\n".encode())
        spans = [(i, s.line, s.column, s.end_line, s.end_column) for i, s in sorted(cfgs.instr_spans.items())]
        h.update(f"{sorted(cfgs.stmt_iids.items())} {spans}\n".encode())
    assert h.hexdigest() == STRUCTURE_DIGEST


def test_columns_partition_each_graph(corpus_sources):
    # A unit's graphs own disjoint runs of block and instruction ids that
    # together cover the table, entry and exit come first, and block_of
    # inverts the blocks' instruction runs.
    for name, source in _units(corpus_sources):
        cfgs = build_unit_cfgs(parse_source(source, name))
        table, graphs = cfgs.table, list(cfgs.cfgs.values())
        assert [g.blocks.start for g in graphs[1:]] == [g.blocks.stop for g in graphs[:-1]], name
        assert [g.iids.start for g in graphs[1:]] == [g.iids.stop for g in graphs[:-1]], name
        assert graphs[-1].blocks.stop == len(table.first) == len(table.out) - 1, name
        assert graphs[-1].iids.stop == len(table.block_of) == len(table.instr_spans), name
        for cfg in graphs:
            assert (cfg.entry, cfg.exit) == (cfg.blocks[0], cfg.blocks[1])
            owned = [iid for b in cfg.blocks for iid in cfg.instructions(b)]
            assert sorted(owned) == list(cfg.iids), (name, cfg.method)
            assert all(table.block_of[iid] == b for b in cfg.blocks for iid in cfg.instructions(b))
            assert all(dst in cfg.blocks for b in cfg.blocks for dst, _ in cfg.out_edges(b))


def _tracked(root) -> int:
    """The collector-tracked objects reachable from root, not entering AST
    nodes, spans, classes, functions or modules."""
    skip = (ast.Node, SourceSpan, type, types.FunctionType, types.ModuleType)
    seen, stack, count = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        count += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return count


def test_tracked_objects_stay_within_two_per_graph():
    # No block, edge or instruction is a collector-tracked object: a unit's
    # graphs own at most 2 each, plus a constant for the unit.
    for classes in (2, 8):
        source = "\n".join(seeded_unit(k).replace("class Seeded", f"class Seeded{k}") for k in range(classes))
        cfgs = build_unit_cfgs(parse_source(source, f"seeded{classes}.sl"))
        graphs = len(cfgs.cfgs)
        assert sum(cfg.N for cfg in cfgs.cfgs.values()) > 5 * graphs  # blocks would show
        assert _tracked(cfgs) <= 2 * graphs + 8, (classes, graphs)
