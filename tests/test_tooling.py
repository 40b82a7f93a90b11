"""Guards for the benchmark's view of the package."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

import borwein
import borwein.cli as cli

SRC = Path(borwein.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DESIGN = PERFBENCH / "design.json"

# One command per sweep family, each a key of perfbench/reference.json.
REFERENCE_COMMANDS = [
    "verify --n-min 0 --n-max 100 --jobs 1 --json -",
    "conjecture23 --n-min 0 --n-max 40 --jobs 1 --json -",
    "modcount --n-min 14 --n-max 40 --jobs 1 --json -",
    "identity --n-min 6 --n-max 40 --jobs 1 --json -",
    "partial-sums --n 249 --json -",
    "stanley --k-max 196 --json -",
    "coherence --j-max 3960 --json -",
]


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


def test_reference_points_match(monkeypatch, capsys):
    """Reports of one command per sweep family match the benchmark reference.

    Each command runs in-process under the reference's SOURCE_DATE_EPOCH,
    and perfbench/run.py's own Bench.check digests its points against
    perfbench/reference.json, so a changed claim field (status,
    violations, cross-checks, degree, partial sums, signed counts or
    literal form) fails here before it fails a benchmark run.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    bench_run = importlib.import_module("run")
    design = bench_run.load_json(DESIGN)
    reference = bench_run.load_json(PERFBENCH / "reference.json")
    bench = bench_run.Bench(design)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", design["output_check"]["source_date_epoch"])
    problems = []
    for line in REFERENCE_COMMANDS:
        command = line.split()
        capsys.readouterr()
        returncode = cli.run(command)
        out, err = capsys.readouterr()
        run = bench_run.CommandRun(
            command=command,
            returncode=returncode,
            wall_s=0.0,
            first_line_s=None,
            stdout=out.encode("utf-8"),
            stderr=err,
            csv_sha256=None,
            csv_bytes=0,
            trace=None,
        )
        problems.extend(bench.check(run, reference)[1])
    assert problems == []


# Exports whose only callers are tests, each kept for the reason given.
TEST_REFERENCES = {
    "trinomial_coeff": "the independent reference row for G_d when 3 | d",
    "euler_phi": "the value every Ramanujan sum c_d(0) is checked against",
    "character_class_polynomial": "G_d with its validation, against reference rows",
}


def test_public_names_have_callers():
    """Every name in borwein.__all__ is used somewhere in the package.

    A use is an identifier (a name or an attribute) or a string constant
    (the prime sweeps look their workers up by name) in any module but
    __init__.py, outside the __all__ lists. Definitions and imports are
    not uses. Exports used only by tests are listed in TEST_REFERENCES;
    __version__ is package metadata and has no caller by design.
    """
    used: set[str] = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                node.value = ast.Constant(None)  # the export list is no use
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    public = set(borwein.__all__) - {"__version__"}
    assert sorted(public - used - set(TEST_REFERENCES)) == []
    assert sorted(set(TEST_REFERENCES) & used) == []


MATH_MODULES = ("qpoly", "series", "modcount", "partitions", "exactmath")


def test_optional_parameters_are_set_by_src():
    """Every defaulted parameter of a public math function is passed in src.

    A default that no call in src/borwein/ overrides, by keyword or by
    position, is an option only tests use. Classes are not checked.
    """
    calls: dict[str, list[ast.Call]] = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for layer in MATH_MODULES:
        module = importlib.import_module(f"borwein.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isclass(fn) or not callable(fn):
                continue
            params = list(inspect.signature(fn).parameters.values())
            for index, param in enumerate(params):
                if param.default is inspect.Parameter.empty:
                    continue
                if not any(
                    len(call.args) > index
                    or any(kw.arg == param.name for kw in call.keywords)
                    for call in calls.get(attr, [])
                ):
                    unset.append(f"{layer}.{attr}({param.name}=)")
    assert unset == []


def test_project_version_matches_tool_version():
    """pyproject.toml's [project] version is the one reports carry."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == borwein.TOOL_VERSION
