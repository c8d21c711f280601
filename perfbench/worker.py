"""One measurement in a fresh process; run.py starts it and reads its result.

    python3 -m perfbench.worker setup --workload W --seed N
    python3 -m perfbench.worker run   --workload W --seed N --seconds S
    python3 -m perfbench.worker trace --seed N --seconds S

`setup` imports overrun_lint, finishes the warm-up job and exits: run.py
times it from outside.  `run` warms up, then repeats untraced passes over
the workload until S seconds are used.  `trace` does, for every workload,
one untraced and one traced pass, and repeats that round while another one
fits in S seconds.  The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from overrun_lint.detectors import RULES

from . import gen, jobs
from .spans import LAYERS, NullTracer, Tracer

# Layers whose growth on large-unit the trace reports (ROADMAP item 2).
GROWTH_LAYERS = ("lexer", "parser", "resolver", "cfg", "rules", "boundcheck")
# Share of traced job time that layer spans must account for.
MIN_ATTRIBUTED = 0.95
SPAN_DIR = Path(__file__).resolve().parent / "out"


def _warm_up(warm: gen.Workload) -> None:
    records = jobs.run_pass(warm, NullTracer())
    problems = [p for r in records for p in r.problems]
    if problems:
        raise SystemExit(f"warm-up job failed: {problems[0]}")


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(wl: gen.Workload, warm: gen.Workload, seconds: float) -> dict:
    """Untraced passes over `wl` until `seconds` are used; end-to-end figures
    except setup_s, which run.py times from outside."""
    _warm_up(warm)
    tracer = NullTracer()
    passes = []
    deadline = perf_counter() + seconds
    while True:
        passes.append(jobs.run_pass(wl, tracer))
        if perf_counter() >= deadline:
            break
    records = [r for p in passes for r in p]
    digests = [jobs.digest(p) for p in passes]
    problems = [p for r in records for p in r.problems]
    problems += [f"pass {k} digest differs from pass 0" for k, d in enumerate(digests) if d != digests[0]]
    walls = [sum(r.seconds for r in p) for p in passes]
    wall = statistics.median(walls)
    # Each file's typical time to verdict is its median over the passes.
    per_file = defaultdict(list)
    for r in records:
        if r.latency:
            per_file[r.id].append(r)
    latencies = [statistics.median(r.seconds for r in rs) for rs in per_file.values()]
    raw_latencies = [statistics.median(r.raw_seconds for r in rs) for rs in per_file.values()]
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems),
        "problems": problems,
        "output_digest": digests[0],
        "stats": wl.stats(),
        "passes": len(passes),
        "files": len(latencies),
        "raw_wall_s": statistics.median(sum(r.raw_seconds for r in p) for p in passes),
        "raw_file_p50_ms": 1000 * statistics.median(raw_latencies),
        "metrics": {
            "wall_s": wall,
            "kloc_per_s": sum(r.lines for r in passes[0]) / 1000 / wall,
            "file_p50_ms": 1000 * statistics.median(latencies),
            "file_p90_ms": 1000 * _percentile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


@dataclasses.dataclass
class _TracedPass:
    tracer: Tracer
    speed: dict[str, float]  # job id -> reference-speed seconds per raw second
    untraced_s: float
    traced_s: float


def trace(workloads: list[gen.Workload], warmups: list[gen.Workload], seconds: float, span_file: Path) -> dict:
    """Per-layer figures over the whole suite, so that every layer has one."""
    for warm in warmups:
        _warm_up(warm)
    null = NullTracer()
    rounds, problems, attempted, failed = [], [], 0, 0
    deadline = perf_counter() + seconds
    while True:
        round_start = perf_counter()
        layer_round = {}
        for wl in workloads:
            plain = jobs.run_pass(wl, null)
            tracer = Tracer()
            with jobs.rules_traced(tracer):
                traced = jobs.run_pass(wl, tracer)
            for records in (plain, traced):
                attempted += len(records)
                failed += sum(1 for r in records if r.problems)
                problems += [p for r in records for p in r.problems]
            if jobs.digest(plain) != jobs.digest(traced):
                problems.append(f"{wl.name}: traced output differs from untraced")
            layer_round[wl.name] = _TracedPass(
                tracer,
                {r.id: r.seconds / r.raw_seconds for r in traced},
                sum(r.seconds for r in plain),
                sum(r.seconds for r in traced),
            )
        rounds.append(layer_round)
        now = perf_counter()
        if now + (now - round_start) > deadline:  # another round would not fit
            break
    per_round = [_layer_metrics(r, problems) for r in rounds]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    _dump_spans(rounds, span_file)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": len(rounds),
        "spans_file": os.path.relpath(span_file),
        "by_workload": _by_workload(rounds[0]),
        "metrics": metrics,
    }


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _layer_metrics(layer_round: dict[str, _TracedPass], problems: list[str]) -> dict[str, float]:
    self_s: dict[str, float] = defaultdict(float)
    failed: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    job_layer_s: dict[tuple[str, str], float] = defaultdict(float)
    job_total = unattributed = 0.0
    for traced in layer_round.values():
        tracer = traced.tracer
        for span, own in zip(tracer.spans, tracer.self_times()):
            scale = traced.speed[span.job]
            own *= scale
            if span.name == "job":
                job_total += (span.end - span.start) * scale
                unattributed += own
                continue
            if span.name == "trace":
                job_total -= own
                continue
            self_s[span.name] += own
            layer = _layer_of(span.name)
            job_layer_s[span.job, layer] += own
            failed[layer] += span.failed
        for (job, name), value in tracer.counts.items():
            counts[name] += value
            if name == "interpreter.steps":
                counts["steps:" + job.rsplit(":", 1)[1]] += value
    if unattributed > (1 - MIN_ATTRIBUTED) * job_total:
        problems.append(f"layer spans cover only {1 - unattributed / job_total:.1%} of traced job time")
    rule_ids = [rule.id for rule in RULES]
    if not any(self_s.get(f"rules.{rid}") for rid in rule_ids):
        problems.append("no per-rule spans were recorded")

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = sum(v for k, v in self_s.items() if _layer_of(k) == layer)
    for name in COUNTS:
        out[name] = counts[name]
    out["lexer.tokens_per_s"] = counts["lexer.tokens"] / out["lexer.s"]
    out["parser.nodes_per_s"] = counts["parser.nodes"] / out["parser.s"]
    plain_s = sum(v for (job, layer), v in job_layer_s.items() if job.endswith(":plain") and layer == "interpreter")
    cov_s = sum(
        v for (job, layer), v in job_layer_s.items()
        if job.endswith(":cov") and layer in ("interpreter", "coverage")
    )
    out["interpreter.steps_per_s"] = counts["steps:plain"] / plain_s
    out["interpreter.cov_steps_per_s"] = counts["steps:cov"] / cov_s
    for rid in rule_ids:
        out[f"rules.{rid}.s"] = self_s[f"rules.{rid}"]
    small, big = (f"large-unit:{name}" for name in ("LargeSmall.sl", "LargeBig.sl"))
    for layer in GROWTH_LAYERS:
        out[f"{layer}.growth"] = math.log(job_layer_s[big, layer] / job_layer_s[small, layer]) / math.log(4)
    for layer in LAYERS:
        out[f"{layer}.failed"] = failed[layer]
    out["trace.overhead_s"] = sum(t.traced_s - t.untraced_s for t in layer_round.values())
    return out


COUNTS = (
    "lexer.tokens",
    "parser.nodes",
    "resolver.symbols",
    "callgraph.edges",
    "cfg.blocks",
    "cfg.instructions",
    "rules.findings",
    "boundcheck.findings",
    "clones.pairs",
    "interpreter.steps",
    "emit.bytes",
)


def _by_workload(layer_round: dict[str, _TracedPass]) -> dict[str, dict[str, float]]:
    """Self time per layer on each workload, for the human-readable table."""
    table = {}
    for name, traced in layer_round.items():
        row: dict[str, float] = defaultdict(float)
        for span, own in zip(traced.tracer.spans, traced.tracer.self_times()):
            if span.name not in ("job", "trace"):
                row[_layer_of(span.name)] += own * traced.speed[span.job]
        row["untraced_wall"] = traced.untraced_s
        row["traced_wall"] = traced.traced_s
        table[name] = dict(row)
    return table


def _dump_spans(rounds: list[dict], path: Path) -> None:
    payload = [
        {name: [dataclasses.asdict(s) for s in traced.tracer.spans] for name, traced in r.items()}
        for r in rounds
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _warm_up(gen.warmup(args.workload, args.seed))
        result: dict = {"ok": True}
    elif args.mode == "run":
        wl = gen.make(args.workload, args.seed)
        result = measure(wl, gen.warmup(args.workload, args.seed), args.seconds)
    else:
        workloads = [gen.make(name, args.seed) for name in gen.WORKLOADS]
        warmups = [gen.warmup(name, args.seed) for name in gen.WORKLOADS]
        SPAN_DIR.mkdir(exist_ok=True)
        result = trace(workloads, warmups, args.seconds, SPAN_DIR / f"spans-seed{args.seed}.json")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
