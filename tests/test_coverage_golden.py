"""Golden coverage and metrics bytes: what `run --coverage` and `metrics` print.

For every corpus file and 40 seeded units, four outputs are pinned by
digest: the `run --ea --coverage` stdout (the program's output, then the
complexity table) with its stderr and exit code, the `--coverage-out`
JSON, and the `metrics` table without and with that JSON as
`--coverage-data`.  One more entry pins `metrics` over the whole corpus,
whose first row rolls every file up into the project.  The commands run in
a scratch directory on bare file names, so the paths in the output repeat.

A change that means to alter these bytes re-records the file with
`PYTHONPATH=src:tests python tests/test_coverage_golden.py --record`
and says which entries changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from overrun_lint.cli import main as cli_main

from progen import seeded_unit

GOLDEN_FILE = Path(__file__).with_name("coverage_golden.json")
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# Fed to readLine(), one line per call, for every run.
STDIN = "3\n20\n1\n7\n"
# The seeded units' fill methods run; their work methods, whose loops may
# not end, stay uncovered.
MAIN = (
    "class Main {\n    static void main(String[] args) {\n"
    + "".join(f"        Seeded.fill{k}(args);\n" for k in range(4))
    + "    }\n}\n"
)


def units() -> dict[str, str]:
    out = {p.name: p.read_text() for p in sorted(CORPUS.glob("*.sl"))}
    for seed in range(1, 41):
        out[f"seeded{seed}.sl"] = seeded_unit(seed) + MAIN
    return out


def _cli(*argv: str) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(list(argv))
    return f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outputs() -> dict[str, str]:
    """Entry -> digest of its bytes, for every unit and the corpus rollup."""
    sources = units()
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            Path("stdin.txt").write_text(STDIN)
            for name, source in sources.items():
                Path(name).write_text(source)
                cov = f"{name}.json"
                run = _cli("run", name, "--ea", "--coverage", "--stdin", "stdin.txt",
                           "--coverage-out", cov)
                out[f"{name} run"] = _digest(run)
                out[f"{name} coverage-out"] = _digest(Path(cov).read_text())
                out[f"{name} metrics"] = _digest(_cli("metrics", name))
                out[f"{name} metrics --coverage-data"] = _digest(
                    _cli("metrics", name, "--coverage-data", cov)
                )
            corpus = sorted(p.name for p in CORPUS.glob("*.sl"))
            out["corpus metrics"] = _digest(_cli("metrics", *corpus))
        finally:
            os.chdir(cwd)
    return out


@pytest.fixture(scope="module")
def actual() -> dict[str, str]:
    return outputs()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_FILE.read_text())


def test_golden_covers_every_unit(actual, golden):
    assert sorted(actual) == sorted(golden)


def test_coverage_and_metrics_bytes_are_unchanged(actual, golden):
    changed = sorted(k for k in golden if actual.get(k) != golden[k])
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_coverage_golden.py --record")
    GOLDEN_FILE.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
