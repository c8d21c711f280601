"""The benchmark's own tests: deterministic inputs, a checker that catches a
wrong answer, and every metric BENCHMARK.json names actually emitted.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gen, jobs, run, worker
from perfbench.spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small(name: str, seed: int = 3) -> gen.Workload:
    """The workload's own generator at warm-up size."""
    return gen.warmup(name, seed)


def problems(records) -> list[str]:
    return [p for r in records for p in r.problems]


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    a, b, other = gen.make(name, 11), gen.make(name, 11), gen.make(name, 12)
    assert a == b
    assert [s.text for s in a.sources] != [s.text for s in other.sources]
    assert a.stats()["files"] == other.stats()["files"]
    if name != "copy-paste":  # copy-paste draws statement shapes, not line counts
        assert a.stats()["lines"] == other.stats()["lines"]


def test_generator_plants_answers():
    assert all(src.planted for src in gen.make("project", 1).sources)
    assert len(gen.make("copy-paste", 1).clones) == gen.CLONE_PROJECTS * gen.CLONE_SOURCES * math.comb(gen.CLONE_COPIES + 1, 2)
    assert all(src.stdout for src in gen.make("interp", 1).sources)


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_outputs_match_planted_answers_and_digest_repeats(name):
    first = jobs.run_pass(small(name), NullTracer())
    again = jobs.run_pass(small(name), NullTracer())
    assert problems(first) == []
    assert jobs.digest(first) == jobs.digest(again)


def _shift_planted(src: gen.Source) -> gen.Source:
    return dataclasses.replace(src, planted=[(rule, line + 1) for rule, line in src.planted])


@pytest.mark.parametrize("name", ["large-unit", "project"])
def test_checker_flags_a_missing_finding(name):
    wl = small(name)
    doctored = dataclasses.replace(wl, sources=[_shift_planted(s) for s in wl.sources])
    assert problems(jobs.run_pass(doctored, NullTracer()))


def test_checker_flags_a_missing_clone():
    wl = small("copy-paste")
    # A method paired with itself is never a reported clone pair.
    doctored = [gen.ClonePlant(p.a, p.a) for p in wl.clones]
    assert problems(jobs.run_pass(dataclasses.replace(wl, clones=doctored), NullTracer()))


def test_checker_flags_wrong_stdout():
    wl = small("interp")
    wrong = [dataclasses.replace(s, stdout=["0"] + s.stdout[1:]) for s in wl.sources]
    assert problems(jobs.run_pass(dataclasses.replace(wl, sources=wrong), NullTracer()))


def test_failed_job_is_counted_not_fatal():
    wl = small("project")
    broken = [dataclasses.replace(s, text=s.text + "class {") for s in wl.sources]
    records = jobs.run_pass(dataclasses.replace(wl, sources=broken), NullTracer())
    assert any("raised" in p for p in problems(records))


def test_rule_spans_keep_findings_and_restore_rules():
    from overrun_lint.detectors import rules as rules_module

    original = rules_module.RULES
    wl = small("large-unit")
    plain = jobs.run_pass(wl, NullTracer())
    tracer = Tracer()
    with jobs.rules_traced(tracer):
        traced = jobs.run_pass(wl, tracer)
    assert rules_module.RULES is original
    assert jobs.digest(plain) == jobs.digest(traced)
    assert {s.name for s in tracer.spans} >= {f"rules.{r.id}" for r in original}


def test_every_end_to_end_metric_is_emitted():
    result = worker.measure(small("interp"), small("interp", 4), seconds=0)
    assert result["failed"] == 0 and result["problems"] == []
    emitted = {"setup_s": "s", **{k: run.END_TO_END_UNITS[k] for k in result["metrics"]}}
    assert emitted == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert all(v > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_is_emitted(tmp_path):
    workloads = [small(name) for name in gen.WORKLOADS]
    warmups = [small(name, 4) for name in gen.WORKLOADS]
    result = worker.trace(workloads, warmups, 0, tmp_path / "spans.json")
    assert result["problems"] == []
    units = run.per_layer_units(result["metrics"])
    assert units == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert set(spans[0]) == set(gen.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
