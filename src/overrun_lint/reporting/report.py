"""Report assembly plus the percentage/rate arithmetic used everywhere."""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

from ..errors import DomainError
from ..cfg import UnitCfgs, complexity_bd, display_method, method_owner
from ..detectors.model import Finding
from ..frontend import ast
from ..runtime.coverage import CoverageReport

PER_100 = "per_100"
PER_1000 = "per_1000"

_SCALES = {PER_100: 100, PER_1000: 1000}


def coverage_percent(covered: int, missed: int) -> float:
    """100*covered/(covered+missed), rounded half-up to one decimal."""
    if covered < 0 or missed < 0:
        raise DomainError("counts must be non-negative")
    total = covered + missed
    if total == 0:
        raise DomainError("coverage percentage undefined for an empty population")
    pct = (Decimal(covered) * 100) / Decimal(total)
    return float(pct.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def efficiency_rate(positive_warnings: int, loc: int, scale: str = PER_100) -> float:
    """Warnings per `scale` lines of code, one decimal, half-up."""
    if loc < 1:
        raise DomainError("efficiency rate undefined for loc < 1")
    if scale not in _SCALES:
        raise DomainError(f"scale must be one of {sorted(_SCALES)}")
    rate = (Decimal(positive_warnings) * _SCALES[scale]) / Decimal(loc)
    return float(rate.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


@dataclass
class MetricsRow:
    element: str
    kind: str
    covered: int
    missed: int

    @property
    def total(self) -> int:
        return self.covered + self.missed

    @property
    def percent(self) -> float:
        if self.total == 0:
            return 0.0
        return coverage_percent(self.covered, self.missed)


@dataclass
class Report:
    tool_version: str
    generated_at: str
    findings: list[Finding] = field(default_factory=list)
    coverage: CoverageReport | None = None
    metrics_rows: list[MetricsRow] = field(default_factory=list)
    sources: dict[str, str] = field(default_factory=dict)

    @property
    def category_summary(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.category] = out.get(finding.category, 0) + 1
        return dict(sorted(out.items()))


def build_metrics_rows(
    units: list[tuple[ast.CompilationUnit, UnitCfgs]],
    covered: dict[str, int],
    project_label: str = "project",
) -> list[MetricsRow]:
    """Figure-10-shaped rows: the project rollup, then for each unit its
    file row, and each class's row followed by its methods' rows.  A
    method's complexity is covered up to covered[method id]."""
    rows: list[MetricsRow] = []
    project = MetricsRow(project_label, "project", 0, 0)
    for unit, cfgs in units:
        total = {mid: complexity_bd(cfg) for mid, cfg in cfgs.cfgs.items()}
        hit = {mid: min(covered.get(mid, 0), v) for mid, v in total.items()}

        def row(element: str, kind: str, mids: list[str]) -> MetricsRow:
            got = sum(hit[m] for m in mids)
            return MetricsRow(element, kind, got, sum(total[m] for m in mids) - got)

        file_row = row(unit.file, "file", list(total))
        project.covered += file_row.covered
        project.missed += file_row.missed
        rows.append(file_row)
        for class_decl in unit.classes:
            mids = sorted(m for m in total if method_owner(m) == class_decl.name)
            rows.append(row(class_decl.name, "class", mids))
            rows.extend(row(display_method(m), "method", [m]) for m in mids)
    return [project, *rows]
