"""Mutate the package one edit at a time, and run tier 1 against each mutant.

    python tools/mutants.py

Three kinds of edit make the mutants of `src/sedg`:

- a guard, an `if` with no `else` whose body is one `raise` or `return`, is
  deleted;
- a boundary, one operator of a comparison (chained ones included), is
  swapped: `<` with `<=` and `>` with `>=`, so an off-by-one limit shows;
- a connective, the operator of one `and` or `or` expression (every one of
  its keywords), is swapped for the other, so a condition that is too
  strict or too loose shows.

The tool first runs the unmutated suite twice: once plainly, which must
pass and whose time sets the timeout, and once under `sys.settrace`, which
records the package lines each test runs and how long it takes. Before each
traced test it clears the caches a test can warm (`codec`'s
`functools.cache` entries and each group's `_dh_key_head`), so a test
records the lines behind them itself. Lines run outside any test, at import
or collection, count as reached by every test, and so does every line for a
test that starts a process, whose lines no tracer sees.

For every mutant the tool copies `src` and `tests` into a temporary
directory, makes that one edit there, and runs the tests that reach the
edited line, fastest first, with `-x`, in a child process. A mutant that no
test reaches is not run. The child gets a timeout and an address-space cap,
which it sets on itself, so a mutant that loops or allocates without bound
stops instead of taking the machine with it. Mutants run at most one per
core. Each one is:

- killed: the suite fails;
- survived: the suite passes, or no test reaches the mutant, so no test
  needs the guard or that boundary;
- hung: the suite runs past the timeout.

`tools/mutants.txt` lists the survivors and hangs that are accepted, one a
line as `<outcome> <mutant> -- <reason>`, where `<mutant>` is what this tool
prints: `<path>:<function>: if <condition>` for a guard,
`<path>:<function>: <comparison> -> <mutated comparison>` for a boundary and
`<path>:<function>: <expr> -> <mutated expr>` for a connective.
The tool exits 1 on an outcome the list lacks, and on a listed mutant that
is now killed or gone, so the list cannot go stale. It exits 2 if the suite
fails with no mutant at all.
"""
from __future__ import annotations

import ast
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/sedg"
ACCEPTED = ROOT / "tools" / "mutants.txt"
# Unmutated, the suite peaks below 200 MiB resident; 1 GiB of address space
# is room enough for it and stops a mutant that allocates without bound.
ADDRESS_SPACE = 1 << 30
# The hypothesis seed is fixed, so a mutant's outcome does not vary by run.
# The child runs the tests that `SEDG_MUTANT_TESTS` names, a JSON file of
# node ids, in that order; without it, the whole suite.
CHILD = (
    "import resource, sys\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))\n"
    "import pytest\n"
    "sys.exit(pytest.main(\n"
    "    ['-q', '-x', '-p', 'no:cacheprovider', '--hypothesis-seed=0', '-p', 'mutant_plugin',"
    " 'tests']\n"
    "))\n"
)
# The child's plugin: it keeps the named tests in the named order, or runs
# every test if one of them is not collected. Traced with `SEDG_MUTANT_TRACE`,
# it records, as JSON in that file, the package lines run outside any test
# and, per test, the lines it ran, its time and whether it started a process.
PLUGIN = """\
import functools, json, os, subprocess, sys, threading, time

import pytest

SELECT = os.environ.get("SEDG_MUTANT_TESTS")
TRACE = os.environ.get("SEDG_MUTANT_TRACE")
PACKAGE = os.path.join(os.getcwd(), "src", "sedg") + os.sep


def pytest_collection_modifyitems(session, config, items):
    if not SELECT:
        return
    with open(SELECT, encoding="utf-8") as fh:
        order = {nodeid: i for i, nodeid in enumerate(json.load(fh))}
    chosen = [item for item in items if item.nodeid in order]
    chosen.sort(key=lambda item: order[item.nodeid])
    if len(chosen) == len(order):
        config.hook.pytest_deselected(items=[item for item in items if item.nodeid not in order])
        items[:] = chosen


if TRACE:
    outside = set()
    tests = {}
    into = [outside]
    spawns = [False]

    def _line(frame, event, arg):
        if event == "line":
            into[0].add((frame.f_code.co_filename[len(PACKAGE):], frame.f_lineno))
        return _line

    def _call(frame, event, arg):
        return _line if frame.f_code.co_filename.startswith(PACKAGE) else None

    _popen_init = subprocess.Popen.__init__

    @functools.wraps(_popen_init)
    def _spawning(self, *args, **kwargs):
        spawns[0] = True
        return _popen_init(self, *args, **kwargs)

    subprocess.Popen.__init__ = _spawning
    sys.settrace(_call)
    threading.settrace(_call)

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_protocol(item, nextitem):
        from sedg import codec, crypto

        codec._codec.cache_clear()
        codec._dataclass_codec.cache_clear()
        for group in crypto.GROUPS.values():
            vars(group).pop("_dh_key_head", None)
        into[0], spawns[0] = set(), False
        started = time.perf_counter()
        try:
            return (yield)
        finally:
            tests[item.nodeid] = (sorted(into[0]), time.perf_counter() - started, spawns[0])
            into[0] = outside

    def pytest_sessionfinish(session, exitstatus):
        sys.settrace(None)
        with open(TRACE, "w", encoding="utf-8") as fh:
            json.dump({"outside": sorted(outside), "tests": tests}, fh)
"""


# Each boundary operator and connective, as a token and as an AST node, and its swap.
SWAPPED_TOKEN = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "and": "or", "or": "and"}
SWAPPED_OP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SWAPPED_BOOL = {ast.And: ast.Or, ast.Or: ast.And}


def scoped_nodes(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(function, node) of each node in `tree` but a def or class, in source
    order, where the function is the innermost def or class around it."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            found.append((scope or "<module>", child))
            visit(child, scope)

    visit(tree, "")
    return found


def is_guard(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If)
        and not node.orelse
        and len(node.body) == 1
        and isinstance(node.body[0], (ast.Raise, ast.Return))
    )


def operator_tokens(source: str) -> dict[tuple[int, int], tokenize.TokenInfo]:
    """Each `<`, `<=`, `>`, `>=`, `and` or `or` token of `source`, keyed by its
    row and its column in UTF-8 bytes, as `ast` counts columns."""
    lines = source.splitlines(keepends=True)
    found = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.OP, tokenize.NAME) and token.string in SWAPPED_TOKEN:
            row, col = token.start
            found[row, len(lines[row - 1][:col].encode("utf-8"))] = token
    return found


def mutants() -> list[tuple[str, str, str, set[tuple[str, int]]]]:
    """(name, path, mutated source, lines) for each guard, boundary and
    connective of the package, where `lines` are the (file in the package,
    line) that a test runs whenever it runs the guard's test or the
    expression."""
    result = []
    for path in sorted((ROOT / PACKAGE).rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        module = path.relative_to(ROOT / PACKAGE).as_posix()
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines(keepends=True)
        tokens = operator_tokens(source)
        seen: Counter[str] = Counter()

        def add(name: str, mutated: list[str], node: ast.AST) -> None:
            seen[name] += 1
            if seen[name] > 1:
                name += f" ({seen[name]})"
            rows = range(node.lineno, node.end_lineno + 1)
            result.append((name, rel, "".join(mutated), {(module, row) for row in rows}))

        for scope, node in scoped_nodes(ast.parse(source, rel)):
            if is_guard(node):
                first = lines[node.lineno - 1]
                indent = first[: len(first) - len(first.lstrip())]
                # An `elif` goes with its lines; an `if` leaves a `pass` behind,
                # in case it was the only statement of its block.
                stub = "\n" if first.lstrip().startswith("elif") else f"{indent}pass\n"
                mutated = lines[: node.lineno - 1] + [stub] + lines[node.end_lineno :]
                add(f"{rel}:{scope}: if {ast.unparse(node.test)}", mutated, node.test)
            if isinstance(node, ast.BoolOp):
                after = ast.BoolOp(SWAPPED_BOOL[type(node.op)](), node.values)
                between = list(zip(node.values, node.values[1:]))
                mutated = swap_tokens(lines, [token_between(tokens, *pair) for pair in between])
                add(f"{rel}:{scope}: {ast.unparse(node)} -> {ast.unparse(after)}", mutated, node)
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) not in SWAPPED_OP:
                    continue
                token = token_between(tokens, operands[i], operands[i + 1])
                after = ast.Compare(node.left, [*node.ops], node.comparators)
                after.ops[i] = SWAPPED_OP[type(op)]()
                mutated = swap_tokens(lines, [token])
                add(f"{rel}:{scope}: {ast.unparse(node)} -> {ast.unparse(after)}", mutated, node)
    return result


def token_between(
    tokens: dict[tuple[int, int], tokenize.TokenInfo], left: ast.AST, right: ast.AST
) -> tokenize.TokenInfo:
    """The one operator token between two operands."""
    start = (left.end_lineno, left.end_col_offset)
    end = (right.lineno, right.col_offset)
    (token,) = [tokens[at] for at in tokens if start <= at < end]
    return token


def swap_tokens(lines: list[str], swapped: list[tokenize.TokenInfo]) -> list[str]:
    """`lines` with each token swapped, the last first, so that the columns
    of the earlier ones on a line still hold."""
    mutated = [*lines]
    for token in sorted(swapped, key=lambda token: token.start, reverse=True):
        (row, col), (_, end_col) = token.start, token.end
        line = mutated[row - 1]
        mutated[row - 1] = line[:col] + SWAPPED_TOKEN[token.string] + line[end_col:]
    return mutated


def run_suite(
    mutation: tuple[str, str] | None,
    timeout: float,
    tests: list[str] | None = None,
    trace: Path | None = None,
) -> str:
    """'killed', 'survived' or 'hung': the outcome of `tests` (node ids, run
    in that order; all by default) with `mutation` (a path and its mutated
    source) applied in a fresh copy. With `trace`, the child records there
    what each test runs."""
    with tempfile.TemporaryDirectory(prefix="sedg-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, Path(tmp, part), ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy(ROOT / "pyproject.toml", tmp)
        Path(tmp, "mutant_plugin.py").write_text(PLUGIN, encoding="utf-8")
        if mutation:
            Path(tmp, mutation[0]).write_text(mutation[1], encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")), "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("SEDG_MUTANT_TESTS", None)
        env.pop("SEDG_MUTANT_TRACE", None)
        if tests is not None:
            Path(tmp, "selected.json").write_text(json.dumps(tests), encoding="utf-8")
            env["SEDG_MUTANT_TESTS"] = str(Path(tmp, "selected.json"))
        if trace is not None:
            env["SEDG_MUTANT_TRACE"] = str(trace)
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD],
            cwd=tmp,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,  # a timeout stops the tests' own children too
        )
        try:
            code = child.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return "hung"
    return "survived" if code == 0 else "killed"


def reaching_tests(timeout: float) -> Callable[[set[tuple[str, int]]], list[str]] | None:
    """Trace the unmutated suite, and return the map from a mutant's lines to
    the tests that reach them, fastest first; None if the traced suite fails."""
    with tempfile.TemporaryDirectory(prefix="sedg-trace-") as tmp:
        trace = Path(tmp, "trace.json")
        if run_suite(None, timeout, trace=trace) != "survived":
            return None
        record = json.loads(trace.read_text(encoding="utf-8"))
    outside = {tuple(line) for line in record["outside"]}
    ran = {
        test: (None if spawns else {tuple(line) for line in lines}, seconds)
        for test, (lines, seconds, spawns) in record["tests"].items()
    }
    fastest = sorted(ran, key=lambda test: ran[test][1])

    def reaching(lines: set[tuple[str, int]]) -> list[str]:
        if lines & outside:
            return fastest
        return [test for test in fastest if ran[test][0] is None or lines & ran[test][0]]

    return reaching


def accepted() -> dict[str, str]:
    """Mutant name -> accepted outcome, from `tools/mutants.txt`."""
    listed = {}
    for number, line in enumerate(ACCEPTED.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        entry, _, reason = line.partition(" -- ")
        outcome, _, name = entry.partition(" ")
        if outcome not in ("survived", "hung") or not name or not reason.strip():
            raise SystemExit(
                f"{ACCEPTED.name}:{number}: expected '<survived|hung> <mutant> -- <reason>'"
            )
        listed[name] = outcome
    return listed


def main() -> int:
    listed = accepted()
    started = time.monotonic()
    if run_suite(None, timeout=600) != "survived":
        print("the suite fails with no mutant; fix it before gating on mutants")
        return 2
    # Room for a mutant that fails late while another one shares the cores.
    timeout = 60 + 3 * (time.monotonic() - started)
    reaching = reaching_tests(timeout=600)
    if reaching is None:
        print("the suite fails under the tracer; fix it before gating on mutants")
        return 2

    def outcome(mutant: tuple[str, str, str, set[tuple[str, int]]]) -> str:
        _, path, source, lines = mutant
        tests = reaching(lines)
        return run_suite((path, source), timeout, tests) if tests else "survived"

    found = mutants()
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = {}
        for (name, *_), result in zip(found, pool.map(outcome, found)):
            print(f"{result:8} {name}", flush=True)
            results[name] = result

    problems = [
        f"{outcome} but not listed: {name}"
        for name, outcome in results.items()
        if outcome != "killed" and listed.get(name) != outcome
    ] + [
        f"listed as {outcome} but {results.get(name, 'gone')}: {name}"
        for name, outcome in listed.items()
        if results.get(name) != outcome
    ]
    counts = Counter(results.values())
    print(
        f"{len(results)} mutants: {counts['killed']} killed, {counts['survived']} survived, "
        f"{counts['hung']} hung (timeout {timeout:.0f} s) in {time.monotonic() - started:.0f} s"
    )
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
