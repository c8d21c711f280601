"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload project --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; `--workload all` runs the four workloads in
turn.  With --trace 0 the workload runs untraced
in a fresh process and the end-to-end metrics are printed; set-up time comes
from SETUP_RUNS further fresh processes that only import overrun_lint and
finish the warm-up job.  With --trace 1 a fresh process runs every workload
once untraced and once traced and prints the per-layer metrics.  A readable
summary goes to stderr; the last line of stdout (one line per workload with
`all`) is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.gen import WORKLOADS  # noqa: E402
from perfbench.speed import at_reference_speed, reference_seconds  # noqa: E402

SETUP_RUNS = 5
# All children of one run must finish well inside the 180 s a run may take.
RUN_BUDGET_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "kloc_per_s": "kloc/s",
    "file_p50_ms": "ms",
    "file_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units(metrics: dict[str, float]) -> dict[str, str]:
    units = {}
    for name in metrics:
        if name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith(".s") or name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(".growth"):
            units[name] = "exponent"
        elif name == "emit.bytes":
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - perf_counter()),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="'all' runs each workload in turn, one JSON line each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "overrun_lint" / "__init__.py").is_file():
        print(f"error: no overrun_lint sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The traced run covers the whole suite whichever workload is named.
    names = WORKLOADS if args.workload == "all" and not args.trace else [args.workload]
    for name in names:
        try:
            result, metrics, units = _measure(name, args, perf_counter() + RUN_BUDGET_S)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        _summary(name, args, result, metrics, units)
        line = {
            "correct": not result["problems"] and result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        print(json.dumps(line), flush=True)
    return 0


def _measure(workload: str, args, deadline: float) -> tuple[dict, dict, dict]:
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        result = _child(["trace", *common], deadline)
        return result, result["metrics"], per_layer_units(result["metrics"])
    setups = []
    for _ in range(SETUP_RUNS):
        before = reference_seconds()
        start = perf_counter()
        _child(["setup", "--workload", workload, "--seed", str(args.seed)], deadline)
        raw = perf_counter() - start
        setups.append(at_reference_speed(raw, before, reference_seconds()))
    result = _child(["run", "--workload", workload, *common], deadline)
    return result, {"setup_s": statistics.median(setups), **result["metrics"]}, END_TO_END_UNITS


def _summary(workload: str, args, result: dict, metrics: dict, units: dict) -> None:
    err = sys.stderr
    head = "suite (traced)" if args.trace else workload
    print(f"overrun-lint benchmark: {head}, seed {args.seed}, {args.seconds} s", file=err)
    for key in ("stats", "passes", "files", "raw_wall_s", "raw_file_p50_ms", "rounds", "output_digest",
                "spans_file"):
        if key in result:
            print(f"  {key}: {result[key]}", file=err)
    for problem in result["problems"][:10]:
        print(f"  problem: {problem}", file=err)
    for name in units:
        print(f"  {name:36s} {metrics[name]:14.6g} {units[name]}", file=err)
    for workload, row in result.get("by_workload", {}).items():
        total = row.pop("untraced_wall"), row.pop("traced_wall")
        layers = ", ".join(f"{k} {v:.3f}" for k, v in sorted(row.items(), key=lambda kv: -kv[1]))
        print(f"  {workload}: untraced {total[0]:.3f} s, traced {total[1]:.3f} s: {layers}", file=err)


if __name__ == "__main__":
    sys.exit(main())
