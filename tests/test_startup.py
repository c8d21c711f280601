"""Each layer is imported on first use.  `import overrun_lint` loads no
layer, the clone-detection path loads no rule, bound checker, report
emitter or interpreter, and `analyze` loads no interpreter.  Each check runs
in a fresh interpreter, because this one has imported every module already."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def loaded_after(code: str) -> set[str]:
    """The overrun_lint modules that a fresh interpreter holds after code."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('overrun_lint'))))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_importing_the_package_loads_no_layer():
    assert loaded_after("import overrun_lint") == {"overrun_lint", "overrun_lint.lazy"}


def test_clone_detection_loads_no_rules_checker_emitter_or_interpreter():
    loaded = loaded_after(
        "from pathlib import Path\n"
        "from overrun_lint.frontend import parse_source\n"
        "from overrun_lint.semantics import build_symbol_table\n"
        "from overrun_lint.detectors import find_duplicates\n"
        "units = [parse_source(p.read_text(), str(p)) for p in sorted(Path('corpus').glob('*.sl'))]\n"
        "assert not any(build_symbol_table(u).diagnostics for u in units)\n"
        "assert find_duplicates(units, 10)\n"
    )
    assert "overrun_lint.detectors.clones" in loaded
    unread = {
        "overrun_lint.runtime.interpreter",
        "overrun_lint.detectors.rules",
        "overrun_lint.boundcheck",
        "overrun_lint.reporting.emit",
    }
    assert not loaded & unread


def test_analyze_loads_no_interpreter():
    loaded = loaded_after(
        "import contextlib, io\n"
        "from overrun_lint.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['analyze', 'corpus/makeover.sl', '--timestamp', 'T0']) == 1\n"
    )
    assert "overrun_lint.detectors.rules" in loaded
    assert not {m for m in loaded if m.startswith("overrun_lint.runtime")}
