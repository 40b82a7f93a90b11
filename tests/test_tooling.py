"""Guards for the benchmark's view of the package."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
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
    "modcount --n 10 --json -",
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


def workload_command(template: list[str], csv: Path) -> list[str]:
    """A design.json command template with its {fields} filled.

    A template that becomes a REFERENCE_COMMANDS entry takes that entry's
    values; any other takes n = 20 and writes its CSV to `csv`.
    """
    matches = [
        command
        for command in map(str.split, REFERENCE_COMMANDS)
        if len(command) == len(template)
        and all(t == c or t.startswith("{") for t, c in zip(template, command))
    ]
    if matches:
        (command,) = matches
        return command
    return [
        str(csv) if t == "{csv}" else "20" if t.startswith("{") else t
        for t in template
    ]


def test_traced_functions_are_called_on_their_workload(tmp_path):
    """Every function a workload traces records a span when its commands run.

    Each command of every workload runs under perfbench/spans.py in a
    fresh child process, at the values workload_command gives it: warm
    lru_caches in this process would hide pow_trunc and
    gaussian_binomial, and which functions run does not depend on n.
    Every child must exit 0. So a counter hook that can no longer bind
    its argument, or a traced function that src stops calling, fails
    here, not only in a traced benchmark run's coverage check.
    """
    workloads = json.loads(DESIGN.read_text(encoding="utf-8"))["workloads"]
    paths = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    missing = []
    for name, workload in workloads.items():
        recorded: set[str] = set()
        for i, template in enumerate(workload["commands"]):
            command = workload_command(template, tmp_path / f"{name}{i}.csv")
            out = tmp_path / f"{name}{i}.json"
            argv = [sys.executable, str(PERFBENCH / "spans.py"), str(out), str(i), "--"]
            subprocess.run(
                [*argv, *command], env=env, stdout=subprocess.DEVNULL, check=True
            )
            recorded.update(json.loads(out.read_text(encoding="utf-8"))["names"])
        missing += [
            f"{name}: {f}" for f in workload["traced_functions"] if f not in recorded
        ]
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


# A child that runs one command line in a fresh interpreter, after the
# setup lines of its first argument, and prints its exit code and the
# modules the run added to those a bare `python -c pass` has loaded.
PROBE = """
import sys
base = set(sys.modules)
exec(sys.argv[1])
import borwein.cli
code = borwein.cli.run(sys.argv[2:])
print(code, *sorted(set(sys.modules) - base))
"""

# Modules that only some commands, or only a large expansion, need.
NOT_FOR_VERIFY = {
    "multiprocessing",
    "concurrent.futures",
    "hashlib",
    "fractions",
    "borwein.modcount",
    "borwein.partitions",
    "borwein.exactmath",
}


# A child that builds the parser, as every command line does first, and
# prints the modules this added to those a bare `python -c pass` has loaded.
PARSER_PROBE = """
import sys
base = set(sys.modules)
import borwein.cli
borwein.cli._build_parser()
print(*sorted(set(sys.modules) - base))
"""

CLAIM_MODULES = {
    "borwein.series",
    "borwein.qpoly",
    "borwein.modcount",
    "borwein.partitions",
    "borwein.exactmath",
}


def child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this checkout's src."""
    paths = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def probe(command: str, setup: str = "") -> tuple[int, set[str]]:
    """Exit code of one CLI run in a fresh interpreter, and the modules it loaded."""
    child = subprocess.run(
        [sys.executable, "-c", PROBE, setup, *command.split()],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    code, *added = child.stdout.split()
    return int(code), set(added)


def test_commands_load_only_the_modules_they_run():
    """The parser loads no claim module, and a command only the ones it runs.

    verify loads none of the stdlib its other paths need, and stanley
    and coherence load neither series nor qpoly. Counts modules, not
    time, against what a bare interpreter has loaded, so the result does
    not depend on the machine or on how site is set up.
    """
    child = subprocess.run(
        [sys.executable, "-c", PARSER_PROBE],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    added = set(child.stdout.split())
    assert {"borwein.cli", "borwein.report"} <= added
    assert sorted(added & CLAIM_MODULES) == []
    code, added = probe("verify --n 2")
    assert code == 0
    assert {"borwein.cli", "borwein.series", "borwein.qpoly"} <= added
    assert sorted(added & NOT_FOR_VERIFY) == []
    code, added = probe("modcount --n 1")
    assert code == 0
    assert "borwein.modcount" in added
    for command in ("stanley --p 3 --k-max 5", "coherence --p 3 --j-max 50"):
        code, added = probe(command)
        assert code == 0
        assert "borwein.partitions" in added
        assert sorted(added & {"borwein.series", "borwein.qpoly"}) == []


def test_command_tables_name_exported_claims():
    """Every row of cli's two tables names a public callable of its module.

    _claim_point looks a row's claim up only when a point runs, so a
    renamed or unexported claim fails here rather than in a user's run.
    """
    rows = [*cli._SWEEPS.values(), *cli._PRIME_SWEEPS.values()]
    unexported = []
    for module_name, claim in (row[3:5] for row in rows):
        module = importlib.import_module(f"borwein.{module_name}")
        if claim not in module.__all__ or not callable(getattr(module, claim, None)):
            unexported.append(f"{module_name}.{claim}")
    assert unexported == []


# A child that asks the bare package for a private name, and prints the
# answer and every borwein module then loaded.
PRIVATE_PROBE = """
import sys
import borwein
print(hasattr(borwein, "_x"), *sorted(m for m in sys.modules if m.startswith("borwein.")))
"""


def test_private_names_load_no_module():
    """An underscore name is refused before any module is looked through."""
    child = subprocess.run(
        [sys.executable, "-c", PRIVATE_PROBE],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    assert child.stdout.split() == ["False"]


def test_internal_failure_exits_3_without_modcount():
    """run() maps a mirror mismatch to exit 3 in a process that never loads modcount."""
    setup = (
        "import borwein.qpoly as qpoly\n"
        "exact = qpoly._expand_passes\n"
        "def bumped(*args):\n"
        "    cs = exact(*args)\n"
        "    cs[30] += 1\n"
        "    return cs\n"
        "qpoly._expand_passes = bumped\n"
    )
    code, added = probe("verify --n 3", setup)
    assert code == 3
    assert "borwein.modcount" not in added


def test_lazy_exports_resolve():
    """The package's __all__ is every module's, in order, and each name binds."""
    modules = [
        importlib.import_module(f"borwein.{layer}")
        for layer in ("exactmath", "qpoly", "series", "modcount", "partitions", "report")
    ]
    assert borwein.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    namespace: dict[str, object] = {}
    exec("from borwein import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(borwein.__all__)
    assert namespace["__version__"] == borwein.TOOL_VERSION
    assert namespace["expand_product"] is modules[1].expand_product
    assert borwein.modcount is modules[3]
    with pytest.raises(AttributeError):
        borwein.no_such_name
    child = subprocess.run(
        [sys.executable, "-m", "borwein.cli", "--version"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True,
    )
    assert child.stdout == f"borwein {borwein.TOOL_VERSION}\n"


# Exports whose only callers are tests, each kept for the reason given.
TEST_REFERENCES = {
    "trinomial_coeff": "the independent reference row for G_d when 3 | d",
    "euler_phi": "the value every Ramanujan sum c_d(0) is checked against",
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


# The exactness contract allows true division only of Fractions, in these
# functions (module, function); every other `/` in MATH_MODULES is a float.
FRACTION_DIVISIONS = [("exactmath", "generalized_binomial"), ("modcount", "literal_closed_form")]
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def enclosing_function(tree: ast.Module, node: ast.AST) -> str:
    """Name of the innermost function whose lines hold node."""
    holders = [
        f
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.lineno <= node.lineno <= f.end_lineno
    ]
    return max(holders, key=lambda f: f.lineno).name if holders else "<module>"


def test_math_modules_use_no_floats():
    """No float can reach a claim from the source of MATH_MODULES.

    Fails on a float or complex literal, the name `float`, `cmath`, a
    `math` function outside INTEGER_MATH, and a true division `/` outside
    FRACTION_DIVISIONS; a listed division that is gone fails as well.
    """
    found: list[str] = []
    divisions: list[tuple[str, str]] = []
    for layer in MATH_MODULES:
        tree = ast.parse((SRC / f"{layer}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            problem = None
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                problem = f"literal {node.value!r}"
            elif isinstance(node, ast.Name) and node.id == "float":
                problem = "float"
            elif isinstance(node, ast.Import) and "cmath" in {a.name for a in node.names}:
                problem = "import cmath"
            elif isinstance(node, ast.ImportFrom) and node.module in ("cmath", "math"):
                if node.module == "cmath" or {a.name for a in node.names} - INTEGER_MATH:
                    problem = f"from {node.module} import"
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr not in INTEGER_MATH
            ):
                problem = f"math.{node.attr}"
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                divisions.append((layer, enclosing_function(tree, node)))
            if problem is not None:
                found.append(f"{layer}.py:{node.lineno} {problem}")
    assert found == []
    assert sorted(divisions) == FRACTION_DIVISIONS


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


def test_readme_examples_run():
    """README's Library block executes, and its command lines parse.

    Every line of a README code block that starts with `borwein ` must be
    accepted by the CLI's parser (comments after `#` dropped), so a
    renamed subcommand or option fails here rather than in a reader's
    shell. The commands are parsed, not run: one expands n = 1000.
    """
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library") :]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md (Library)", "exec"), {})
    commands = [
        line.split("#")[0]
        for block in re.findall(r"```\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("borwein ")
    ]
    assert len(commands) >= 9
    for line in commands:
        cli._build_parser().parse_args(shlex.split(line)[1:])


# Every violation kind in src; test_cli.py makes each of them fire.
VIOLATION_KINDS = {
    "sign",
    "sign-squared",
    "sign-mod5",
    "nonpositive-partial-sum",
    "nonpositive-signed-count",
    "partition-formula-mismatch",
    "sign-incoherence",
}
INTERNAL_ERRORS = {"OracleMismatchError", "InexactDivisionError", "MirrorMismatchError"}


def src_trees() -> list[tuple[str, ast.Module]]:
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    ]


def string_constants(nodes: list[ast.AST]) -> set[str]:
    return {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_violation_kind_fires_in_a_cli_test():
    """Every violation kind in src is named by a failing test in test_cli.py.

    src's kinds are read by AST from `kind=` keywords, `kind` defaults and
    partial_sum_violations' third argument, and must be exactly
    VIOLATION_KINDS, so a scanner that finds nothing fails. test_cli.py
    names a kind only where it makes it fire: in a FAILURE_PATHS row's
    located message, or in a violation it asserts.
    """
    kinds: set[str] = set()
    for _, tree in src_trees():
        for node in ast.walk(tree):
            values: list[ast.AST] = []
            if isinstance(node, ast.Call):
                values += [kw.value for kw in node.keywords if kw.arg == "kind"]
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "partial_sum_violations" and len(node.args) > 2:
                    values.append(node.args[2])
            elif isinstance(node, ast.arguments):
                positional = node.posonlyargs + node.args
                defaults = [
                    *zip(positional[len(positional) - len(node.defaults) :], node.defaults),
                    *zip(node.kwonlyargs, node.kw_defaults),
                ]
                values += [value for arg, value in defaults if arg.arg == "kind"]
            kinds |= string_constants(values)
    assert kinds == VIOLATION_KINDS
    named: set[str] = set()
    tests = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in ast.walk(tests):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.update(re.findall(r'"kind": "([^"]+)"', node.value))
        elif isinstance(node, ast.Dict):
            named |= string_constants(
                [
                    value
                    for key, value in zip(node.keys, node.values)
                    if isinstance(key, ast.Constant) and key.value == "kind"
                ]
            )
    assert sorted(kinds - named) == []


# Every CrossCheck name in src. A CAN_FAIL check compares two values that
# can differ, so test_cli.py makes it disagree.
CAN_FAIL = {"degree", "endpoints", "palindromic", "value_at_1", "a_polynomial"}
# cross_validate appends these only after _first_difference has passed on
# the values they record, so they cannot disagree.
RECORD_ONLY = {"dp_vs_divisor_formula", "dp_vs_enumeration", "signed_vs_partial_sums"}


def test_every_cross_check_that_can_fail_disagrees_in_a_cli_test(capsys):
    """Every CrossCheck name is classified, and each that can fail fails in test_cli.py.

    The names are collected from the reports of verify, identity and
    modcount at run time, because cross_validate passes its names through
    a variable, and must be exactly CAN_FAIL and RECORD_ONLY, so a new
    name fails until it is classified. test_cli.py names a check where it
    makes it disagree: in a FAILURE_PATHS row's rendered cross check, or
    in a dict it asserts, with "agree" false.
    """
    names: set[str] = set()
    for argv in (["verify", "--n", "1"], ["identity", "--n", "2"], ["modcount", "--n", "1"]):
        assert cli.run([*argv, "--json", "-"]) == 0
        for line in capsys.readouterr().out.splitlines():
            names.update(c["name"] for c in json.loads(line)["cross_checks"])
    assert CAN_FAIL.isdisjoint(RECORD_ONLY)
    assert names == CAN_FAIL | RECORD_ONLY
    failing: set[str] = set()
    tests = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in ast.walk(tests):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            failing.update(re.findall(r'"name": "([^"]+)"[^{}]*"agree": false', node.value))
        elif isinstance(node, ast.Dict):
            fields = {
                key.value: value
                for key, value in zip(node.keys, node.values)
                if isinstance(key, ast.Constant)
            }
            agree = fields.get("agree")
            if isinstance(agree, ast.Constant) and agree.value is False:
                failing |= string_constants([fields.get("name")])
    assert sorted(CAN_FAIL - failing) == []


def test_every_internal_error_raise_has_a_failure_path():
    """Every raise of an internal error in src has a FAILURE_PATHS row.

    A raise of OracleMismatchError, InexactDivisionError or
    MirrorMismatchError is covered when the first literal piece of its
    message, without the separators around it, appears in a FAILURE_PATHS
    row's message. Each of the three must be raised somewhere, so a
    scanner that finds nothing fails.
    """
    from test_cli import FAILURE_PATHS

    messages = [row.values[5] for row in FAILURE_PATHS]
    raised: set[str] = set()
    uncovered: list[str] = []
    for name, tree in src_trees():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) in INTERNAL_ERRORS
            ):
                continue
            raised.add(node.exc.func.id)
            message = node.exc.args[0]
            pieces = message.values if isinstance(message, ast.JoinedStr) else [message]
            piece = next((p.value for p in pieces if isinstance(p, ast.Constant)), "")
            # the piece after a leading {value} starts with its separator
            piece = piece.strip(" :,")
            if not piece or not any(piece in m for m in messages):
                uncovered.append(f"{name}:{node.lineno} {piece!r}")
    assert raised == INTERNAL_ERRORS
    assert uncovered == []
