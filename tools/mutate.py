"""One-token mutation audit of named library functions.

    python tools/mutate.py NAME [NAME ...]

Each NAME is a function (``_largest``) or a method
(``BlockCompression.norm``) of a module under ``src/normloc``.  Every
mutant changes one token inside one of them:

- a comparison: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``is`` and ``is not``, ``in`` and ``not in`` swap;
- ``and`` and ``or``, ``+`` and ``-``, ``*`` and ``/``, ``&`` and ``|``
  swap, also in augmented assignments;
- ``max`` and ``min`` swap, as functions and as methods;
- ``not``, ``~`` and unary ``-`` are dropped;
- ``True`` and ``False`` swap;
- a float constant is zeroed and scaled by 1000 (0.0 becomes 1.0).

Each mutant runs the tier-1 suite, ``tests``, in a fresh copy of the
files it reads (``COPIED``), stopping at the first failure, with one run
at a time per CPU.  A mutant is killed when the tests fail and survives
when they pass.  The unmutated copy must pass first.  Uses the standard
library only; prints one line per mutant and the counts, and exits 1 when
a mutant survives.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "normloc"
# What the tests read: the package, the tests, the README whose code they
# run and the benchmark whose imports they check.
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
# A mutant whose tests run this many times longer than the unmutated
# tests (at least a minute) counts as killed: it may loop forever.
SLOWDOWN = 5

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult, ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd,
}
DROPPED = (ast.Not, ast.Invert, ast.USub)
EXTREMES = {"max": "min", "min": "max"}


class Mutator(ast.NodeTransformer):
    """Applies mutant number ``target`` of the tree it visits and names it
    in ``done``; ``count`` is the number of mutants the tree has."""

    def __init__(self, target: int = -1):
        self.target, self.count, self.done = target, 0, None

    def _hit(self, node, what: str) -> bool:
        self.count += 1
        if self.count - 1 != self.target:
            return False
        self.done = f"line {node.lineno}: {what}"
        return True

    def _swap(self, node, op):
        new = SWAPS.get(type(op))
        if new and self._hit(node, f"{type(op).__name__} -> {new.__name__}"):
            return new()
        return op

    def visit_FunctionDef(self, node):
        # Annotations are never evaluated here, so they are not mutated.
        returns, node.returns = node.returns, None
        self.generic_visit(node)
        node.returns = returns
        return node

    def visit_arg(self, node):
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        node.ops = [self._swap(node, op) for op in node.ops]
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        node.op = self._swap(node, node.op)
        return node

    visit_BinOp = visit_AugAssign = visit_BoolOp

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, DROPPED):
            if self._hit(node, f"{type(node.op).__name__} dropped"):
                return node.operand
        return node

    def visit_Name(self, node):
        if node.id in EXTREMES and self._hit(node, f"{node.id} swapped"):
            node.id = EXTREMES[node.id]
        return node

    def visit_Attribute(self, node):
        self.generic_visit(node)
        if node.attr in EXTREMES and self._hit(node, f".{node.attr} swapped"):
            node.attr = EXTREMES[node.attr]
        return node

    def visit_Constant(self, node):
        value = node.value
        if isinstance(value, bool):
            if self._hit(node, f"{value} -> {not value}"):
                node.value = not value
        elif isinstance(value, float):
            for new in ((0.0, value * 1000) if value else (1.0,)):
                if self._hit(node, f"{value!r} -> {new!r}"):
                    node.value = new
        return node


def find(name: str) -> Path:
    """The module that defines the function or method ``name``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if _locate(ast.parse(path.read_text()), name) is not None:
            return path
    raise SystemExit(f"no function {name!r} under {PACKAGE}")


def _locate(tree: ast.Module, name: str):
    """The definition of ``name`` in ``tree``, or None."""
    body, node = tree.body, None
    for part in name.split("."):
        node = next((n for n in body if getattr(n, "name", "") == part), None)
        if node is None:
            return None
        body = node.body
    return node if isinstance(node, ast.FunctionDef) else None


def mutant_source(path: Path, name: str, target: int) -> tuple[str, str]:
    """(mutated module text, what changed) of mutant ``target``: the
    function's lines are replaced by the mutated function, unparsed."""
    text = path.read_text()
    node = _locate(ast.parse(text), name)
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    mutator = Mutator(target)
    mutator.visit(node)
    lines = text.splitlines(keepends=True)
    pad = " " * node.col_offset
    new = "".join(f"{pad}{line}\n" for line in ast.unparse(node).splitlines())
    head, tail = lines[: start - 1], lines[node.end_lineno :]
    return "".join(head) + new + "".join(tail), mutator.done


def count(path: Path, name: str) -> int:
    mutator = Mutator()
    mutator.visit(_locate(ast.parse(path.read_text()), name))
    return mutator.count


def run_tests(
    timeout: float | None, module: Path | None = None, text: str = ""
) -> bool:
    """Whether the tests pass within ``timeout`` seconds in a fresh copy,
    with ``module`` replaced by ``text`` when given."""
    skip = shutil.ignore_patterns("__pycache__")
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        copy = Path(work)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part, ignore=skip)
            else:
                shutil.copy(ROOT / part, copy)
        if module is not None:
            (copy / module.relative_to(ROOT)).write_text(text)
        env = {
            **os.environ,
            "PYTHONPATH": str(copy / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        command = [
            sys.executable, "-m", "pytest", "-x", "-q",
            "-p", "no:cacheprovider", "tests",
        ]
        try:
            done = subprocess.run(
                command, cwd=copy, env=env, capture_output=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return False
        return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="+", help="function or Class.method")
    args = parser.parse_args(argv)
    start = time.monotonic()
    if not run_tests(None):
        print("the unmutated tests fail; nothing to audit", file=sys.stderr)
        return 2
    timeout = max(60.0, SLOWDOWN * (time.monotonic() - start))
    jobs = []
    for name in args.names:
        path = find(name)
        jobs += [(path, name, i) for i in range(count(path, name))]

    def audit(job):
        path, name, i = job
        text, what = mutant_source(path, name, i)
        passed = run_tests(timeout, path, text)
        return f"{path.name} {name} {what}", passed

    survivors = 0
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        for label, passed in pool.map(audit, jobs):
            survivors += passed
            verdict = "SURVIVED" if passed else "killed  "
            print(f"{verdict} {label}", flush=True)
    killed = len(jobs) - survivors
    print(f"{len(jobs)} mutants, {killed} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
