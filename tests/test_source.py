"""Source hygiene checks on the rcaudit package (no linter is installed)."""

from __future__ import annotations

import ast
from pathlib import Path

import rcaudit

PACKAGE_DIR = Path(rcaudit.__file__).parent
REPO_DIR = Path(__file__).resolve().parents[1]
# Directories whose calls count as the program's callers of the package.
CALLER_DIRS = ("src", "tools", "perfbench")
# Defaulted parameters that no call sets and that stay, with the reason.
KNOB_ALLOWLIST = {("serve_tcp", "host"): "address, a deployment setting"}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name a module imports and never reads.

    Names listed in `__all__`, `from __future__` imports and lines marked
    `# noqa: F401` are allowed.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unread_private_names(source: str) -> list[tuple[int, str]]:
    """(line, name) for each private top-level function, class or constant
    (`_x`, not `__x__`) that its own module never reads."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in defined.items() if name not in read)


def test_detector_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "from sys import argv  # noqa: F401\n"
        "import xml.dom\n"
        "from re import match\n"
        "__all__ = ['match']\n"
        "print(np.zeros(1), loads('1'))\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dumps"), (6, "xml")]


def test_package_has_no_unused_imports():
    found = {
        f"{path.relative_to(PACKAGE_DIR)}:{line}: {name}"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert not found, sorted(found)


def test_private_detector_flags_only_unread_definitions():
    source = (
        "_USED = 1\n"
        "_UNUSED = 2\n"
        "__version__ = '1'\n"
        "_TYPED: int = 3\n"
        "def _helper():\n"
        "    _local = _USED\n"
        "    return _local\n"
        "def _orphan():\n"
        "    pass\n"
        "class _Hidden:\n"
        "    pass\n"
        "_a, _b = 1, 2\n"
        "print(_helper(), _a, _TYPED)\n"
    )
    assert unread_private_names(source) == [(2, "_UNUSED"), (8, "_orphan"), (10, "_Hidden"), (12, "_b")]


def test_package_has_no_unread_private_names():
    found = {
        f"{path.relative_to(PACKAGE_DIR)}:{line}: {name}"
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for line, name in unread_private_names(path.read_text(encoding="utf-8"))
    }
    assert not found, sorted(found)


# The value of an argument that is not a literal, e.g. a name or a call.
_NOT_LITERAL = object()


def _literal(node: ast.expr):
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _NOT_LITERAL


def defaulted_parameters(source: str) -> list[tuple[int, str, str, str, int | None, object]]:
    """(line, qualified name, callee name, parameter, positional index or
    None, default's literal value) for each defaulted parameter of a public
    top-level function or a public method of a public class. A constructor
    is called by its class name; nested closures are not scanned."""
    found = []

    def scan(fn, qualname: str, callee: str, is_method: bool) -> None:
        args = fn.args
        positional = args.posonlyargs + args.args
        if is_method and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
        ):
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        for index, (arg, default) in enumerate(zip(positional[first:], args.defaults), start=first):
            found.append((fn.lineno, qualname, callee, arg.arg, index, _literal(default)))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((fn.lineno, qualname, callee, arg.arg, None, _literal(default)))

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            scan(node, node.name, node.name, False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, functions):
                    continue
                if fn.name == "__init__":
                    scan(fn, f"{node.name}.__init__", node.name, True)
                elif not fn.name.startswith("_"):
                    scan(fn, f"{node.name}.{fn.name}", fn.name, True)
    return found


Call = tuple[list | None, dict[str | None, object]]


def parameters_set(sources: list[str]) -> dict[str, list[Call]]:
    """Callee name -> one (positional values, keyword values) pair per call,
    each value a literal or `_NOT_LITERAL`. Positional values are None when
    the call unpacks `*args`; a `**kwargs` unpacking is keyword None."""
    calls: dict[str, list[Call]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            positional = [_literal(a) for a in node.args]
            if any(isinstance(a, ast.Starred) for a in node.args):
                positional = None
            keywords = {k.arg: _literal(k.value) for k in node.keywords}
            calls.setdefault(name, []).append((positional, keywords))
    return calls


def _sets(call: Call, param: str, index: int | None, default) -> bool:
    """Whether `call` may pass `param` a value other than its literal default."""
    positional, keywords = call
    if None in keywords:
        return True
    if param in keywords:
        value = keywords[param]
    elif index is None:
        return False
    elif positional is None:
        return True
    elif index < len(positional):
        value = positional[index]
    else:
        return False
    same = value is not _NOT_LITERAL and type(value) is type(default) and value == default
    return not same


def unset_knobs(source: str, calls: dict[str, list[Call]]) -> list[tuple[int, str, str]]:
    """(line, qualified name, parameter) for each defaulted parameter in
    `source` that no call in `calls` sets, by keyword or by position, to
    anything but a literal equal to its literal default."""
    return [
        (line, qualname, param)
        for line, qualname, callee, param, index, default in defaulted_parameters(source)
        if not any(_sets(call, param, index, default) for call in calls.get(callee, ()))
    ]


def test_knob_detector_flags_only_unset_defaults():
    package = (
        "def run(a, b=1, c=2, *, d=3):\n"
        "    def build(x=0):\n"
        "        return x\n"
        "    return build()\n"
        "def _private(e=4):\n"
        "    pass\n"
        "class Box:\n"
        "    def __init__(self, size=1, tag=''):\n"
        "        pass\n"
        "    def grow(self, by=1):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def make(kind='a', n=0):\n"
        "        pass\n"
        "    def unpack(self, first=0, second=0):\n"
        "        pass\n"
        "    def _hidden(self, f=5):\n"
        "        pass\n"
        "def send(x, retries=0):\n"
        "    pass\n"
        "def pick(x, index=0, flag=False, *, mode=None, log=None):\n"
        "    pass\n"
    )
    callers = [
        "run(0, 5)\nrun(0, d=6)\nBox(3)\nBox(tag='x').grow()\n",
        "Box.make('b')\nbox.unpack(*pair)\nsend(1, **options)\n",
        # passing a literal equal to the default does not set a parameter
        "pick(1, 0, True)\npick(2, index=0, mode=None, log=sys.stderr)\n",
    ]
    assert unset_knobs(package, parameters_set(callers)) == [
        (1, "run", "c"), (10, "Box.grow", "by"), (13, "Box.make", "n"),
        (21, "pick", "index"), (21, "pick", "mode"),
    ]


def test_every_default_is_set_by_a_caller():
    calls = parameters_set([
        path.read_text(encoding="utf-8")
        for directory in CALLER_DIRS
        for path in sorted((REPO_DIR / directory).rglob("*.py"))
    ])
    found = {
        (f"{path.relative_to(PACKAGE_DIR)}:{line}", qualname, param)
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for line, qualname, param in unset_knobs(path.read_text(encoding="utf-8"), calls)
    }
    allowed = {item for item in found if item[1:] in KNOB_ALLOWLIST}
    assert {item[1:] for item in allowed} == set(KNOB_ALLOWLIST)
    assert not found - allowed, sorted(found - allowed)
