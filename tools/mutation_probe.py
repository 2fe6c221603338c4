"""Mutation probe: which one-operator changes to fitchgraph do the tests miss?

Each mutant changes one node of one module's syntax tree:

  <  <-> <=     >  <-> >=     == <-> !=     is <-> is not
  in <-> not in     and <-> or     the int constants 0 <-> 1

Every mutant runs, in a scratch copy of the repository, against its
module's test files with ``pytest -x``; a mutant that hangs past the time
limit counts as killed.  A survivor runs again against the Tier-1 suite
without criteria 8 and 9.  A mutant that survives both is either listed,
with a reason, in ``tools/equivalent_mutants.txt`` or reported as a gap.
A listed key that matches no mutant of the probed modules is printed as
stale, since the code it quotes is gone.

Usage, from the repository root (all eight modules take about 20 minutes
on two cores; name modules to probe only those):

    python tools/mutation_probe.py [module ...]

Exits 1 if any survivor is not listed as equivalent.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = ROOT / "tools" / "equivalent_mutants.txt"
TESTS = {
    "cli": ["test_cli.py"],
    "enumeration": ["test_enumeration.py"],
    "fitch": ["test_fitch.py"],
    "graphs": ["test_graphs.py"],
    "io": ["test_io.py", "test_io_properties.py"],
    "recognition": ["test_recognition.py"],
    "synthesis": ["test_synthesis.py"],
    "tree": ["test_tree.py"],
}
WIDER = ["tests", "-k", "not criterion_08 and not criterion_09"]
MEMORY = 4 << 30  # address-space cap per run, so a mutant that loops while allocating stops
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}


def _sites(tree: ast.Module) -> list[tuple[ast.AST, int | None, str, ast.expr]]:
    """Every mutable site, in a fixed order: (node, index of the operator
    in a comparison or None, enclosing function or class path, the
    outermost expression holding the node)."""
    sites = []

    def visit(node: ast.AST, scope: str, outer: ast.expr | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, ast.expr) and outer is None:
            outer = node
        if isinstance(node, ast.Compare):
            sites.extend((node, i, scope, outer) for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, ast.BoolOp):
            sites.append((node, None, scope, outer))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1):
            sites.append((node, None, scope, outer))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, outer)

    visit(tree, "<module>", None)
    return sites


def _mutate(node: ast.AST, index: int | None) -> None:
    if isinstance(node, ast.Compare):
        node.ops[index] = SWAPS[type(node.ops[index])]()
    elif isinstance(node, ast.BoolOp):
        node.op = SWAPS[type(node.op)]()
    else:
        node.value = 1 - node.value


def mutants(module: str, source: str) -> list[tuple[str, str]]:
    """(key, mutated module source) for every site of *module*.  The key
    names the module, the enclosing scope and the outermost expression
    before and after, so it survives edits elsewhere in the file."""
    out, seen = [], {}
    for k in range(len(_sites(ast.parse(source)))):
        tree = ast.parse(source)
        node, index, scope, outer = _sites(tree)[k]
        before = ast.unparse(outer)
        _mutate(node, index)
        key = f"{module}.py:{scope}: {before} => {ast.unparse(outer)}"
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" [{seen[key]}]"
        out.append((key, ast.unparse(tree)))
    return out


def load_equivalents() -> dict[str, str]:
    """Listed key -> reason; a line is ``key  # reason``."""
    listed = {}
    for line in EQUIVALENT.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, reason = line.rsplit("  # ", 1)
            listed[key] = reason
    return listed


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_pytest(work: Path, args: list[str], timeout: float) -> tuple[bool, float]:
    """(passed, seconds) for one pytest run in *work*; a timeout fails it."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)  # no example carries over
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout, preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        return False, timeout
    return proc.returncode == 0, time.perf_counter() - t0


def main(argv: list[str]) -> int:
    modules = argv or sorted(TESTS)
    unknown = set(modules) - set(TESTS)
    if unknown:
        print(f"unknown module {sorted(unknown)[0]!r}; choose from {', '.join(sorted(TESTS))}")
        return 2
    listed = load_equivalents()
    total = killed = wider = 0
    gaps, accepted, keys = [], set(), set()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "perfbench", "tools"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "BENCHMARK.json"):
            shutil.copy(ROOT / name, work)
        # A wider suite that fails unmutated would count every survivor as killed.
        if not run_pytest(work, WIDER, timeout=600)[0]:
            print("the wider suite fails on the unmutated package")
            return 2
        for module in modules:
            path = work / "src" / "fitchgraph" / f"{module}.py"
            source = path.read_text()
            tests = [f"tests/{name}" for name in TESTS[module]]
            # The unmutated module, unparsed the same way, must pass; its
            # time sets the limit past which a mutant counts as hung.
            path.write_text(ast.unparse(ast.parse(source)))
            ok, base = run_pytest(work, tests, timeout=600)
            if not ok:
                print(f"{module}: the tests fail on the unmutated module")
                return 2
            found = mutants(module, source)
            keys.update(key for key, _ in found)
            print(f"{module}: {len(found)} mutants, tests pass in {base:.1f} s", flush=True)
            for key, text in found:
                total += 1
                path.write_text(text)
                if not run_pytest(work, tests, timeout=3 * base + 30)[0]:
                    killed += 1
                elif not run_pytest(work, WIDER, timeout=600)[0]:
                    wider += 1
                elif key in listed:
                    accepted.add(key)
                else:
                    gaps.append(key)
                    print(f"  SURVIVED {key}", flush=True)
            path.write_text(source)
    print(f"mutants {total}: killed {killed} by their module's tests, {wider} by the wider suite; "
          f"survivors {len(accepted) + len(gaps)} ({len(accepted)} listed equivalent, {len(gaps)} not)")
    probed = tuple(f"{m}.py:" for m in modules)
    for key in sorted(k for k in listed if k.startswith(probed) and k not in accepted):
        print(f"  listed but {'not a survivor' if key in keys else 'matches no mutant'}: {key}")
    return 1 if gaps else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
