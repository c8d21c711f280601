import random

from overrun_lint.cfg import (
    BasicBlock,
    ControlFlowGraph,
    Edge,
    build_unit_cfgs,
    complexity_bd,
    complexity_en,
    reach,
    unreachable_nodes,
)
from overrun_lint.frontend import parse_source

from progen import gen_structured_method, wrap_body_in_try


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
    cfg = ControlFlowGraph(method="synthetic")
    for bid in range(4):
        cfg.blocks.append(BasicBlock(bid=bid))
    cfg.entry, cfg.exit = 0, 3
    cfg.edges = [Edge(0, 1, "true-branch"), Edge(0, 2, "false-branch"),
                 Edge(1, 3, "fallthrough"), Edge(2, 3, "fallthrough")]
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
    cfg = ControlFlowGraph(method="chain")
    for bid in range(3):
        cfg.blocks.append(BasicBlock(bid=bid))
    cfg.entry, cfg.exit = 0, 2
    cfg.edges = [Edge(0, 1, "fallthrough"), Edge(1, 2, "fallthrough")]
    assert reach(cfg) == {0, 1, 2}
    assert all(i in reach(cfg, i) for i in range(3))


def test_reachability_matches_dfs_oracle_on_random_dags():
    rng = random.Random(20260809)
    for _ in range(60):
        n = rng.randint(2, 8)
        cfg = ControlFlowGraph(method="dag")
        for bid in range(n):
            cfg.blocks.append(BasicBlock(bid=bid))
        cfg.entry, cfg.exit = 0, n - 1
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    cfg.edges.append(Edge(i, j, "fallthrough"))

        def dfs(start):
            seen = {start}
            stack = [start]
            while stack:
                cur = stack.pop()
                for e in cfg.edges:
                    if e.src == cur and e.dst not in seen:
                        seen.add(e.dst)
                        stack.append(e.dst)
            return seen

        for i in range(n):
            assert reach(cfg, i) == dfs(i)
        assert [b.bid for b in unreachable_nodes(cfg)] == sorted(set(range(n)) - dfs(0))


def test_reach_matches_dfs_oracle_with_blocked_blocks():
    # Random graphs with cycles and self-loops; a path stops at a blocked
    # block, which it reaches but does not leave.
    rng = random.Random(20261019)
    for _ in range(200):
        n = rng.randint(1, 9)
        cfg = ControlFlowGraph(method="g")
        cfg.blocks = [BasicBlock(bid=bid) for bid in range(n)]
        cfg.edges = [Edge(i, j, "fallthrough") for i in range(n) for j in range(n) if rng.random() < 0.25]
        blocked = {bid for bid in range(n) if rng.random() < 0.3}
        start = rng.randrange(n)

        seen, stack = {start}, [start]
        while stack:
            cur = stack.pop()
            if cur in blocked:
                continue
            for e in cfg.edges:
                if e.src == cur and e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
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
    span = cfg.instr_spans[dead[0].instructions[0]]
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
    from overrun_lint.frontend import ast

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
            assert cfg.E == sum(len(cfg.out_edges(b.bid)) for b in cfg.blocks)
            assert [e for e in cfg.edges if e.dst == cfg.entry] == []
            assert cfg.out_edges(cfg.exit) == []


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
    dead_iids = {iid for block in unreachable_nodes(cfg) for iid in block.instructions}
    assert dead_iids
    assert dead_iids.isdisjoint(trace.executed_instruction_ids)
    assert trace.stdout == ["2"]
