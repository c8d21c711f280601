"""The benchmark's jobs and the checks on their outputs.

A job calls each layer's public function itself, in the order that
``pipeline.analyze_source`` / ``run_source`` and ``cli._cmd_*`` do, so the
tracer can time every layer from outside the program.  Untraced runs pass a
``NullTracer`` and take the same path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import itertools
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from overrun_lint import __version__
from overrun_lint.boundcheck import run_bound_check
from overrun_lint.cfg import build_unit_cfgs
from overrun_lint.detectors import find_duplicates, run_rules
from overrun_lint.detectors import rules as rules_module
from overrun_lint.detectors.model import Finding
from overrun_lint.frontend import ast, instrument_asserts, parse, tokenize
from overrun_lint.reporting import Report, bound_finding_to_finding, emit_report
from overrun_lint.runtime import RunOptions, coverage_summary, execute
from overrun_lint.semantics import build_call_graph, build_symbol_table

from .gen import ClonePlant, Source, Workload

# Fixed so that report bytes, and so the output digest, repeat.
TIMESTAMP = "2000-01-01 00:00:00"
# The CLI's `cpd --min-tokens` default.
MIN_TOKENS = 25


class JobError(Exception):
    """A job's input was rejected before analysis (like the CLI's exit 2)."""


@dataclass
class JobRecord:
    id: str
    seconds: float  # at reference speed (see speed.py)
    raw_seconds: float  # wall time as the clock read it
    lines: int  # source lines this job takes to a verdict
    latency: bool  # a per-file time to verdict (file_p50_ms / file_p90_ms)
    problems: list[str]  # empty when the output matches the planted answers
    digest: bytes  # output bytes that go into the output digest


# --- calls into the layers ------------------------------------------------------


def frontend(tr, src: Source, instrument: bool = False):
    tokens = tr.call("lexer", tokenize, src.text, src.name)
    tr.count("lexer.tokens", len, tokens)
    unit = tr.call("parser", parse, tokens, src.name, src.text)
    tr.count("parser.nodes", ast.count_nodes, unit)
    if instrument:
        unit = tr.call("instrument", instrument_asserts, unit)
    res = tr.call("resolver", build_symbol_table, unit)
    tr.count("resolver.symbols", len, res.symbols)
    if res.diagnostics:
        raise JobError(f"{src.name}: resolution failed: {res.diagnostics[0]}")
    graph = tr.call("callgraph", build_call_graph, unit, res)
    tr.count("callgraph.edges", len, graph.edges)
    cfgs = tr.call("cfg", build_unit_cfgs, unit)
    tr.count("cfg.blocks", _blocks, cfgs)
    tr.count("cfg.instructions", len, cfgs.instr_spans)
    return unit, res, graph, cfgs


def _blocks(cfgs) -> int:
    return sum(len(cfg.blocks) for cfg in cfgs.cfgs.values())


def lint(tr, src: Source) -> list[Finding]:
    """Rules and bound check on one file: `analyze` plus `boundcheck`."""
    unit, res, graph, cfgs = frontend(tr, src)
    findings = tr.call("rules", run_rules, unit, res, graph, cfgs)
    tr.count("rules.findings", len, findings)
    bounds = tr.call("boundcheck", run_bound_check, unit, res)
    tr.count("boundcheck.findings", len, bounds)
    findings = findings + [bound_finding_to_finding(b) for b in bounds]
    findings.sort(key=Finding.sort_key)
    return findings


def report(tr, findings: list[Finding], sources: dict[str, str]) -> str:
    document = tr.call(
        "emit",
        emit_report,
        Report(tool_version=__version__, generated_at=TIMESTAMP, findings=findings, sources=sources),
        "xml",
    )
    tr.count("emit.bytes", _utf8_len, document)
    return document


def _utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


def clones(tr, sources: list[Source]):
    """`cpd`: every file through the frontend, then find_duplicates."""
    units = [frontend(tr, src)[0] for src in sources]
    pairs = tr.call("clones", find_duplicates, units, MIN_TOKENS)
    tr.count("clones.pairs", len, pairs)
    return pairs


def run(tr, src: Source, covered: bool):
    """`run`, with coverage and assertions both off or both on."""
    unit, res, _graph, cfgs = frontend(tr, src, instrument=True)
    options = RunOptions(assertions_enabled=covered, coverage_enabled=covered)
    trace = tr.call("interpreter", execute, unit, options, res, cfgs)
    tr.count("interpreter.steps", _steps, trace)
    summary = tr.call("coverage", coverage_summary, trace, unit, cfgs) if covered else None
    return trace, summary


def _steps(trace) -> int:
    return trace.steps


@contextlib.contextmanager
def rules_traced(tr):
    """Give each rule of detectors.RULES its own span, for as long as the
    block runs.  run_rules looks the tuple up at call time."""
    original = rules_module.RULES

    def wrap(rule):
        name, detector = f"rules.{rule.id}", rule.detector
        return dataclasses.replace(rule, detector=lambda r, ctx: tr.call(name, detector, r, ctx))

    rules_module.RULES = tuple(wrap(rule) for rule in original)
    try:
        yield
    finally:
        rules_module.RULES = original


# --- checks against the planted answers ------------------------------------------


def check_findings(src: Source, found: set[tuple[str, int]]) -> list[str]:
    return [f"{src.name}:{line}: no {rule}" for rule, line in src.planted if (rule, line) not in found]


def xml_findings(document: str) -> tuple[set[tuple[str, str, int]], int, int]:
    """(rule, file, line) of every finding, their number, and the count attribute."""
    root = ET.fromstring(document.encode("utf-8"))
    node = root.find("findings")
    items = node.findall("finding")
    found = {(f.get("BUGTYPE"), f.get("file"), int(f.get("lineNumber"))) for f in items}
    return found, len(items), int(node.get("count"))


def check_report(sources: list[Source], document: str, expected_count: int) -> list[str]:
    found, listed, count = xml_findings(document)
    problems = [
        f"{src.name}:{line}: no {rule} in the report"
        for src in sources
        for rule, line in src.planted
        if (rule, src.name, line) not in found
    ]
    if not listed == count == expected_count:
        problems.append(f"report lists {listed} findings, says {count}, expected {expected_count}")
    return problems


def _covers(span, where: tuple[str, int, int]) -> bool:
    file, first, last = where
    return span.file == file and span.line <= first and span.end_line >= last


def check_clones(plants: list[ClonePlant], pairs) -> list[str]:
    problems = []
    for plant in plants:
        if not any(
            (_covers(p.span_a, plant.a) and _covers(p.span_b, plant.b))
            or (_covers(p.span_a, plant.b) and _covers(p.span_b, plant.a))
            for p in pairs
        ):
            problems.append(f"clone {plant.a} ~ {plant.b} not reported")
    return problems


def check_run(src: Source, trace) -> list[str]:
    problems = []
    if trace.halting_fault is not None:
        problems.append(f"{src.name}: halted: {trace.halting_fault.kind}")
    if trace.stdout != src.stdout:
        problems.append(f"{src.name}: stdout {trace.stdout[:3]}... != {src.stdout[:3]}...")
    return problems


def cpd_lines(pairs) -> list[str]:
    """The clone list as `overrun-lint cpd` prints it."""
    return [
        f"{p.token_length} duplicated tokens: "
        f"{p.span_a.file}:{p.span_a.line}-{p.span_a.end_line} and "
        f"{p.span_b.file}:{p.span_b.line}-{p.span_b.end_line}"
        for p in pairs
    ]


# --- one pass over a workload -----------------------------------------------------


def _job(records: list[JobRecord], tr, job_id: str, lines: int, fn, args: tuple, check, digest,
         latency: bool = True):
    """Run, time and check one job, append its record, and return its output.
    Each job starts from an empty young heap, as a fresh CLI process does,
    so a collection left over from the previous job is not billed to it."""
    gc.collect()
    tr.clock.start()
    try:
        with tr.job(job_id):
            output = fn(tr, *args)
    except Exception as err:  # a failed job is counted, not fatal
        output = None
        problems = [f"{job_id}: raised {type(err).__name__}: {err}"]
    tr.clock.stop()
    if output is not None:
        problems = check(output)
    data = digest(output) if output is not None else b""
    records.append(JobRecord(job_id, tr.clock.seconds, tr.clock.raw_seconds, lines, latency, problems, data))
    return output


def run_pass(workload: Workload, tr) -> list[JobRecord]:
    """Every job of the workload once, in order."""
    sources, kind = workload.sources, workload.name
    records: list[JobRecord] = []
    if kind == "large-unit":
        for src in sources:
            _job(records, tr, f"{kind}:{src.name}", src.lines, _lint_and_report, (src,),
                 lambda out: check_report([src], out[1], len(out[0])), lambda out: _b(out[1]))
    elif kind == "project":
        found: list[Finding] = []
        for src in sources:
            findings = _job(records, tr, f"{kind}:{src.name}", src.lines, lint, (src,),
                            lambda out: check_findings(src, {(f.rule_id, f.span.line) for f in out}),
                            lambda out: b"")
            found += findings or []
        found.sort(key=Finding.sort_key)
        texts = {src.name: src.text for src in sources}
        _job(records, tr, f"{kind}:report", 0, report, (found, texts),
             lambda out: check_report(sources, out, len(found)), _b, latency=False)
    elif kind == "copy-paste":
        for project, files in itertools.groupby(sources, key=lambda src: src.project):
            files = list(files)
            names = {src.name for src in files}
            plants = [plant for plant in workload.clones if plant.a[0] in names]
            _job(records, tr, f"{kind}:{project}", sum(src.lines for src in files), clones, (files,),
                 lambda out: check_clones(plants, out), lambda out: _b("\n".join(cpd_lines(out))))
    elif kind == "interp":
        for covered in (False, True):
            for src in sources:
                job_id = f"{kind}:{src.name}:{'cov' if covered else 'plain'}"
                _job(records, tr, job_id, src.lines, run, (src, covered),
                     lambda out: check_run(src, out[0]), _run_digest)
    else:
        raise ValueError(f"unknown workload {kind!r}")
    return records


def _lint_and_report(tr, src: Source) -> tuple[list[Finding], str]:
    findings = lint(tr, src)
    return findings, report(tr, findings, {src.name: src.text})


def _b(text: str) -> bytes:
    return text.encode("utf-8")


def _run_digest(result) -> bytes:
    trace, summary = result
    parts = list(trace.stdout)
    if summary is not None:
        parts += [f"{c.kind} {c.covered} {c.missed}" for c in summary.counters]
    return "\n".join(parts).encode("utf-8")


def digest(records: list[JobRecord]) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(record.id.encode("utf-8") + b"\0" + record.digest + b"\0")
    return h.hexdigest()
