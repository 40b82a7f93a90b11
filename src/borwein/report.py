"""Machine-readable verification reports.

Every verification entry point returns a ReportDocument; the CLI
serializes them as single JSON objects. Serialization is deterministic:
keys emit in a fixed order, and integers too wide for safe interchange
(|v| >= 2^63) render as decimal strings so nothing is ever rounded.

Timestamps come from SOURCE_DATE_EPOCH when that variable is set (the
reproducible-build convention); elapsed then renders as 0.0 so reruns
are byte-identical.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "TOOL_VERSION",
    "Violation",
    "CrossCheck",
    "ReportDocument",
    "new_report",
    "report_to_json",
]

TOOL_VERSION = "0.1.0"

_JSON_SAFE_BOUND = 1 << 63


@dataclass(frozen=True)
class Violation:
    """One failed claim instance: where, what value, what was expected."""

    kind: str
    location: dict[str, int]
    value: int
    expected: str


@dataclass(frozen=True)
class CrossCheck:
    """One oracle-vs-oracle comparison, stored as rendered strings."""

    name: str
    expected: str
    actual: str

    @property
    def agree(self) -> bool:
        return self.expected == self.actual


@dataclass
class ReportDocument:
    """Outcome of one verification command.

    status is derived, never set by hand: pass iff there are no
    violations and every cross-check agrees; error marks an internal
    failure (an oracle mismatch, not a falsified claim).
    """

    command: str
    params: dict[str, str]
    violations: list[Violation] = field(default_factory=list)
    cross_checks: list[CrossCheck] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)
    started: str = ""
    elapsed: float = 0.0
    tool_version: str = TOOL_VERSION
    internal_error: str | None = None
    _clock_start: float = field(default=0.0, repr=False, compare=False)

    @property
    def status(self) -> str:
        if self.internal_error is not None:
            return "error"
        if self.violations or any(not c.agree for c in self.cross_checks):
            return "fail"
        return "pass"

    def finish(self) -> "ReportDocument":
        """Freeze the elapsed time (0.0 under SOURCE_DATE_EPOCH)."""
        if _source_date_epoch() is None:
            self.elapsed = round(time.monotonic() - self._clock_start, 6)
        else:
            self.elapsed = 0.0
        return self


def _source_date_epoch() -> int | None:
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _utc_stamp(epoch: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))


def new_report(command: str, params: dict[str, Any]) -> ReportDocument:
    """Start a report; params are rendered to strings immediately."""
    sde = _source_date_epoch()
    started = _utc_stamp(sde if sde is not None else time.time())
    return ReportDocument(
        command=command,
        params={k: str(v) for k, v in params.items()},
        started=started,
        _clock_start=time.monotonic(),
    )


def _jsonable(value: Any) -> Any:
    """Recursively convert to JSON-safe values; huge ints become strings."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if -_JSON_SAFE_BOUND < value < _JSON_SAFE_BOUND else str(value)
    if isinstance(value, float) or isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def report_to_json(doc: ReportDocument) -> str:
    """Serialize one report as a single JSON object with fixed key order."""
    payload = {
        "command": doc.command,
        "params": doc.params,
        "status": doc.status,
        "violations": [
            {
                "kind": v.kind,
                "location": _jsonable(v.location),
                "value": _jsonable(v.value),
                "expected": v.expected,
            }
            for v in doc.violations
        ],
        "cross_checks": [
            {"name": c.name, "expected": c.expected, "actual": c.actual, "agree": c.agree}
            for c in doc.cross_checks
        ],
        "data": _jsonable(doc.data),
        "started": doc.started,
        "elapsed": doc.elapsed,
        "tool_version": doc.tool_version,
    }
    if doc.internal_error is not None:
        payload["internal_error"] = doc.internal_error
    return json.dumps(payload, separators=(", ", ": "), sort_keys=False)
