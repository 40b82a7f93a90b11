"""Guards for the benchmark's view of the package."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

DESIGN = Path(__file__).resolve().parent.parent / "perfbench" / "design.json"


def test_traced_functions_are_public_callables():
    """Every traced function must exist and be in its module's __all__.

    perfbench/spans.py wraps only the names in each module's __all__, so a
    traced function that is deleted or unexported would fail a traced
    benchmark run's coverage check; this catches it in the test suite.
    """
    workloads = json.loads(DESIGN.read_text(encoding="utf-8"))["workloads"]
    missing = []
    for name, workload in workloads.items():
        for traced in workload["traced_functions"]:
            layer, attr = traced.split(".")
            module = importlib.import_module(f"borwein.{layer}")
            if attr not in module.__all__ or not callable(getattr(module, attr, None)):
                missing.append(f"{name}: {traced}")
    assert missing == []
