"""Mutate the package one edit at a time, and run tier 1 against each mutant.

    python tools/mutants.py

Two kinds of edit make the mutants of `src/sedg`:

- a guard, an `if` with no `else` whose body is one `raise` or `return`, is
  deleted;
- a boundary, one operator of a comparison (chained ones included), is
  swapped: `<` with `<=` and `>` with `>=`, so an off-by-one limit shows.

For every mutant the tool copies `src` and `tests` into a temporary
directory, makes that one edit there, and runs the suite with `-x` in a
child process. The child gets a timeout and an address-space cap, which it
sets on itself, so a mutant that loops or allocates without bound stops
instead of taking the machine with it. Mutants run at most one per
core. Each one is:

- killed: the suite fails;
- survived: the suite passes, so no test needs the guard or that boundary;
- hung: the suite runs past the timeout.

`tools/mutants.txt` lists the survivors and hangs that are accepted, one a
line as `<outcome> <mutant> -- <reason>`, where `<mutant>` is what this tool
prints: `<path>:<function>: if <condition>` for a guard and
`<path>:<function>: <comparison> -> <mutated comparison>` for a boundary.
The tool exits 1 on an outcome the list lacks, and on a listed mutant that
is now killed or gone, so the list cannot go stale. It exits 2 if the suite
fails with no mutant at all.
"""
from __future__ import annotations

import ast
import io
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

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/sedg"
ACCEPTED = ROOT / "tools" / "mutants.txt"
# Unmutated, the suite peaks below 200 MiB resident; 1 GiB of address space
# is room enough for it and stops a mutant that allocates without bound.
ADDRESS_SPACE = 1 << 30
# The hypothesis seed is fixed, so a mutant's outcome does not vary by run.
CHILD = (
    "import resource, sys\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))\n"
    "import pytest\n"
    "sys.exit(pytest.main(\n"
    "    ['-q', '-x', '-p', 'no:cacheprovider', '--hypothesis-seed=0', 'tests']\n"
    "))\n"
)


# Each boundary operator, as a token and as an AST node, and its swap.
SWAPPED_TOKEN = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
SWAPPED_OP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


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


def boundary_tokens(source: str) -> dict[tuple[int, int], tokenize.TokenInfo]:
    """Each `<`, `<=`, `>` or `>=` token of `source`, keyed by its row and its
    column in UTF-8 bytes, as `ast` counts columns."""
    lines = source.splitlines(keepends=True)
    found = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.OP and token.string in SWAPPED_TOKEN:
            row, col = token.start
            found[row, len(lines[row - 1][:col].encode("utf-8"))] = token
    return found


def mutants() -> list[tuple[str, str, str]]:
    """(name, path, mutated source) for each guard and each boundary of the package."""
    result = []
    for path in sorted((ROOT / PACKAGE).rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines(keepends=True)
        tokens = boundary_tokens(source)
        seen: Counter[str] = Counter()

        def add(name: str, mutated: list[str]) -> None:
            seen[name] += 1
            if seen[name] > 1:
                name += f" ({seen[name]})"
            result.append((name, rel, "".join(mutated)))

        for scope, node in scoped_nodes(ast.parse(source, rel)):
            if is_guard(node):
                first = lines[node.lineno - 1]
                indent = first[: len(first) - len(first.lstrip())]
                # An `elif` goes with its lines; an `if` leaves a `pass` behind,
                # in case it was the only statement of its block.
                stub = "\n" if first.lstrip().startswith("elif") else f"{indent}pass\n"
                mutated = lines[: node.lineno - 1] + [stub] + lines[node.end_lineno :]
                add(f"{rel}:{scope}: if {ast.unparse(node.test)}", mutated)
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) not in SWAPPED_OP:
                    continue
                # The operator's one token lies between its two operands.
                start = (operands[i].end_lineno, operands[i].end_col_offset)
                end = (operands[i + 1].lineno, operands[i + 1].col_offset)
                (token,) = [tokens[at] for at in tokens if start <= at < end]
                (row, col), (_, end_col) = token.start, token.end
                mutated = [*lines]
                line = lines[row - 1]
                mutated[row - 1] = line[:col] + SWAPPED_TOKEN[token.string] + line[end_col:]
                after = ast.Compare(node.left, [*node.ops], node.comparators)
                after.ops[i] = SWAPPED_OP[type(op)]()
                add(f"{rel}:{scope}: {ast.unparse(node)} -> {ast.unparse(after)}", mutated)
    return result


def run_suite(mutation: tuple[str, str] | None, timeout: float) -> str:
    """'killed', 'survived' or 'hung': the suite's outcome with `mutation`
    (a path and its mutated source) applied in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="sedg-mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, Path(tmp, part), ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutation:
            Path(tmp, mutation[0]).write_text(mutation[1], encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")), "PYTHONDONTWRITEBYTECODE": "1"}
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
    found = mutants()
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        outcomes = pool.map(lambda m: run_suite(m[1:], timeout), found)
        results = {}
        for (name, _, _), outcome in zip(found, outcomes):
            print(f"{outcome:8} {name}", flush=True)
            results[name] = outcome

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
