"""Structured verification reports: JSON serialization and CSV emission.

Residuals are serialized as decimal strings and exact rationals as "p/q" so
reports are byte-identical across runs with the same configuration and seed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

SCHEMA_VERSION = "1"


def _residual_str(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return f"{value}/1"
    return format(float(value), ".17e")


@dataclass
class CheckEntry:
    id: str
    tag: str
    residual: object
    tolerance: float
    exact: bool

    @property
    def passed(self) -> bool:
        """The one pass rule: an exact check passes iff its residual is 0, a
        float check iff |residual| <= tolerance."""
        if self.exact:
            return self.residual == 0
        return abs(float(self.residual)) <= self.tolerance

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def as_json(self) -> dict:
        # runtime_ms is written as 0.0 so reports are byte-identical across runs
        return {
            "id": self.id,
            "tag": self.tag,
            "status": self.status,
            "residual": _residual_str(self.residual),
            "tolerance": format(self.tolerance, ".3e"),
            "exact": self.exact,
            "runtime_ms": 0.0,
        }


@dataclass
class CheckReport:
    suite: str
    config: dict
    checks: list = field(default_factory=list)
    series: dict = field(default_factory=dict)

    def add(self, id: str, tag: str, residual, tolerance: float, exact: bool):
        self.checks.append(CheckEntry(id, tag, residual, tolerance, exact))

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def n_fail(self) -> int:
        return len(self.checks) - self.n_pass

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def as_json(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "config": self.config,
            "checks": [c.as_json() for c in self.checks],
            "summary": {
                "suite": self.suite,
                "pass": self.n_pass,
                "fail": self.n_fail,
                "total": len(self.checks),
            },
        }

    def write_json(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.as_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def print_lines(self):
        for c in self.checks:
            marker = "PASS" if c.passed else "FAIL"
            kind = "exact" if c.exact else f"tol {c.tolerance:.1e}"
            print(f"[{marker}] {c.id}  residual={_residual_str(c.residual)}  ({kind})")
        print(f"summary: {self.n_pass} passed, {self.n_fail} failed")


def emit_csv(report: CheckReport, what: str, path: str):
    """Write a named data series from the report as a CSV file."""
    if what not in report.series:
        raise KeyError(f"report holds no series named {what!r}")
    header, rows = report.series[what]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(x) for x in row) + "\n")


def _csv_cell(x) -> str:
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return format(x, ".12e")
    return str(x)
