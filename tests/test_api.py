"""Every name the package exports, and every public method of an
exported class, is reached by the code it ships, and every command line
option is read by its command.

A name is reached when perfbench reads it, when module-level code of the
package reads it (imports aside), or when the body of a reached function,
class or method reads it.  An export or method that only its own tests
call is dead API.
"""

import ast
import inspect
import re
from pathlib import Path

from helpers import leaf_parsers
from normloc import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "normloc"


def _reads(node) -> set:
    """Every name and attribute name read in a syntax tree."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _is_public_method(node) -> bool:
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("_")


def _reach() -> tuple:
    """(names read, public methods never read) by the shipped code.

    A top-level function or class is reached when reached code reads its
    name or an attribute of that name.  A public method or property of an
    exported class is reached only when reached code outside its own body
    reads it as an attribute; the rest of its class is reached with the
    class.  Unreached methods come back as ``Class.method``.
    """
    exports = _exports()
    bodies: dict = {}
    methods: dict = {}
    names, attrs = set(), set()

    def read(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
                attrs.add(n.attr)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in exports:
                kept = [*node.bases, *node.decorator_list]
                for item in node.body:
                    if _is_public_method(item):
                        methods.setdefault(item.name, []).append(
                            (node.name, item)
                        )
                    else:
                        kept.append(item)
                bodies.setdefault(node.name, []).extend(kept)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                read(node)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        read(tree)
        # the tracer names the functions it wraps in strings such as
        # "BandedOperator.__matmul__" and reads them with getattr; prose
        # (docstrings) names nothing
        words = {
            word
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and re.fullmatch(r"[\w.]+", n.value)
            for word in n.value.split(".")
        }
        names |= words
        attrs |= words
    while True:
        ready = [k for k in bodies if k in names]
        ready_methods = [k for k in methods if k in attrs]
        if not ready and not ready_methods:
            break
        for key in ready:
            for node in bodies.pop(key):
                read(node)
        for key in ready_methods:
            for _, node in methods.pop(key):
                read(node)
    unreached = {f"{cls}.{name}" for name, found in methods.items()
                 for cls, _ in found}
    return names, unreached


def test_every_export_is_reached():
    assert sorted(_exports() - _reach()[0]) == []


def test_every_public_method_is_reached():
    assert sorted(_reach()[1]) == []


def test_no_module_imports_a_name_it_never_uses():
    # __init__ is skipped: its imports are the exports checked above.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            future = getattr(node, "module", None) == "__future__"
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
                unused += [
                    f"{path.name}: {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert unused == []


# Modules below duality and cli, which import neither of them.
_LOWER = ("space", "operators", "certificates", "localization")


def test_imports_are_module_level_and_layered():
    # An import in a function body hides a dependency, and a lower module
    # that imports duality or cli runs the layers in a cycle.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}: import in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
        if path.stem not in _LOWER:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = [alias.name for alias in node.names]
            names += [getattr(node, "module", None) or ""]
            found += [
                f"{path.name}:{node.lineno}: imports {name}"
                for name in names
                if {"duality", "cli"} & set(name.split("."))
            ]
    assert found == []


def _defaults() -> dict:
    """Exported name -> its defaulted parameters, as (name, position).

    Functions give their parameters and dataclasses their fields; a
    keyword-only parameter has no position.
    """
    exports = _exports()
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", None) not in exports:
                continue
            if isinstance(node, ast.FunctionDef):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args]
                first = len(names) - len(args.defaults)
                found[node.name] = [
                    (a, i) for i, a in enumerate(names) if i >= first
                ] + [
                    (a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                ]
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in _reads(d) for d in node.decorator_list
            ):
                fields = [
                    n for n in node.body
                    if isinstance(n, ast.AnnAssign)
                    and isinstance(n.target, ast.Name)
                ]
                found[node.name] = [
                    (n.target.id, i)
                    for i, n in enumerate(fields)
                    if n.value is not None
                ]
    return found


def _passed() -> set:
    """(callee name, parameter name or position) of every shipped call."""
    passed = set()
    paths = sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").glob("*.py")
        if p.name != "test_perfbench.py"
    )
    for path in paths:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(
                call.func, "attr", None
            )
            for position, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    break
                passed.add((name, position))
            passed |= {(name, k.arg) for k in call.keywords}
    return passed


def test_every_defaulted_parameter_is_set_by_shipped_code():
    # A default that no call in the library or perfbench overrides is a
    # knob nobody turns, and the parameter should go.
    passed = _passed()
    unset = [
        f"{name}({param}=)"
        for name, defaults in sorted(_defaults().items())
        for param, position in defaults
        if (name, param) not in passed and (name, position) not in passed
    ]
    assert unset == []


def test_every_option_is_read_by_its_command():
    # An option that the command's function never reads as args.<dest>
    # is a flag that changes nothing.
    unread = []
    for words, parser in sorted(leaf_parsers(cli.build_parser()).items()):
        tree = ast.parse(inspect.getsource(parser.get_default("func")))
        read = {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id == "args"
        }
        unread += [
            f"{words} {action.option_strings[0]}"
            for action in parser._actions
            if action.dest != "help" and action.dest not in read
        ]
    assert unread == []
