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


def top_level_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each top-level function, class or constant."""
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
            defined.setdefault(name, node.lineno)
    return defined


def unread_private_names(source: str) -> list[tuple[int, str]]:
    """(line, name) for each private top-level function, class or constant
    (`_x`, not `__x__`) that its own module never reads."""
    tree = ast.parse(source)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (line, name)
        for name, line in top_level_names(tree).items()
        if name.startswith("_") and not name.endswith("__") and name not in read
    )


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


def readme_block(heading: str) -> str:
    """The first ```python block under a `## <heading>` of the README."""
    text = (REPO_DIR / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_use_runs(capsys):
    exec(compile(readme_block("Library use"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "toy:7 comparison_operation 0.0 8 skipped",
        "oracle comparison_operation 0.0 8 skipped",
    ]


def names_read(source: str) -> set[str]:
    """The names a source reads: each name it loads, and each name it
    imports from a module (the unused-import check makes an import a read)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_public_names(modules: dict[str, str], readers: list[str]) -> list[tuple[str, int, str]]:
    """(module, line, name) for each public top-level name of `modules`
    (module -> source) that neither the modules, its own included, nor
    `readers` read."""
    read = set().union(*map(names_read, [*modules.values(), *readers]))
    return sorted(
        (module, line, name)
        for module, source in modules.items()
        for name, line in top_level_names(ast.parse(source)).items()
        if not name.startswith("_") and name not in read
    )


def test_public_detector_flags_only_names_nothing_reads():
    modules = {
        "a.py": (
            "from .b import helper\n"
            "LIMIT = 3\n"
            "UNUSED: int = 4\n"
            "_private = 5\n"
            "def run():\n"
            "    return helper(LIMIT) + local()\n"
            "def local():\n"
            "    return 1\n"
            "class Box:\n"
            "    def size(self):\n"
            "        return _private\n"
        ),
        "b.py": (
            "def helper(x):\n"
            "    return x\n"
            "def orphan():\n"
            "    return orphan()\n"
            "def documented():\n"
            "    pass\n"
            "def attribute():\n"
            "    pass\n"
            "print(box.attribute)\n"
        ),
    }
    # a README block reads `run` and `documented`; a recursive call reads
    # `orphan`, and an attribute of the same name does not read `attribute`
    readers = ["from pkg.a import run\nrun()\nprint(documented())\n"]
    assert unread_public_names(modules, readers) == [
        ("a.py", 3, "UNUSED"), ("a.py", 9, "Box"), ("b.py", 7, "attribute"),
    ]


def readme_python_blocks() -> list[str]:
    text = (REPO_DIR / "README.md").read_text(encoding="utf-8")
    return [block.split("\n```", 1)[0] for block in text.split("```python\n")[1:]]


# Public names that no code in src/rcaudit and no README code block reads,
# and that stay, with the reason. Tests, tools and perfbench do not count as
# readers. The list may only shrink: an entry goes once something reads it.
UNREAD_PUBLIC_ALLOWLIST = {
    ("corpus/filters.py", "filter_coref_answer_in_cluster"):
        "the coreference filter that ROADMAP Direction 3 wires into the loader",
    ("corpus/schema.py", "save_jsonl"):
        "the writer of unified JSON lines, with which perfbench writes its datasets",
    ("counterfactuals.py", "cf_accuracy"):
        "accuracy on each side of the pairs; ROADMAP Direction 14 wires or deletes it",
    ("data/__init__.py", "coref_cf_pairs_path"):
        "path of the bundled coreference pairs, the input of `align --cf-file`",
    ("metrics.py", "evaluate_dataset"):
        "the library form of `evaluate`'s macro scores, which the README names",
    ("metrics.py", "token_f1"):
        "the library scorer of one prediction's F1, which the README names",
}


def test_every_public_name_is_read():
    modules = {
        str(path.relative_to(PACKAGE_DIR)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
    }
    found = {
        (module, name): line
        for module, line, name in unread_public_names(modules, readme_python_blocks())
    }
    unexpected = sorted(
        f"{module}:{line}: {name}"
        for (module, name), line in found.items()
        if (module, name) not in UNREAD_PUBLIC_ALLOWLIST
    )
    assert not unexpected, unexpected
    # an entry that something now reads leaves the list
    assert set(UNREAD_PUBLIC_ALLOWLIST) - set(found) == set()


def _dataclass_keywords(node: ast.ClassDef) -> dict[str, object] | None:
    """The literal keywords of a class's `@dataclass(...)` decorator, or
    None when it has none."""
    for deco in node.decorator_list:
        if isinstance(deco, ast.Name) and deco.id == "dataclass":
            return {}
        if isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "dataclass":
            return {kw.arg: _literal(kw.value) for kw in deco.keywords}
    return None


TYPES_SOURCE = (PACKAGE_DIR / "types.py").read_text(encoding="utf-8")


def test_every_core_type_is_slotted():
    # A per-object __dict__ on the types a corpus is loaded into costs
    # memory per sentence and per instance.
    classes = {
        node.name: _dataclass_keywords(node)
        for node in ast.walk(ast.parse(TYPES_SOURCE))
        if isinstance(node, ast.ClassDef)
    }
    dataclasses = {name: kws for name, kws in classes.items() if kws is not None}
    assert {"Sentence", "AnswerSpan", "QuestionAnnotations", "RCInstance"} <= set(dataclasses)
    assert [name for name, kws in dataclasses.items() if kws.get("slots") is not True] == []


def test_core_types_cache_nothing_per_object():
    # A cached_property needs the per-object __dict__ that slots remove.
    assert "cached_property" not in TYPES_SOURCE


def args_reads(source: str) -> dict[str, set[str]]:
    """For each top-level function, the `args.<name>` attributes it reads,
    itself or through the module's functions that it hands `args` to."""
    direct: dict[str, set[str]] = {}
    calls: dict[str, set[str]] = {}
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        direct[fn.name] = {
            node.attr
            for node in nodes
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
        }
        calls[fn.name] = {
            node.func.id
            for node in nodes
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and any(getattr(arg, "id", None) == "args" for arg in node.args)
        }

    def reads(name: str, seen: frozenset) -> set[str]:
        if name in seen or name not in direct:
            return set()
        return direct[name].union(*(reads(callee, seen | {name}) for callee in calls[name]))

    return {name: reads(name, frozenset()) for name in direct}


def test_args_detector_follows_calls_that_hand_on_args():
    source = (
        "def helper(args):\n"
        "    return args.seed\n"
        "def run(args, other):\n"
        "    return helper(args) + other.x + args.out + len(args)\n"
        "def loop(args):\n"
        "    return loop(args) + args.alpha\n"
    )
    assert args_reads(source) == {
        "helper": {"seed"},
        "run": {"seed", "out"},
        "loop": {"alpha"},
    }


def test_the_cli_reads_only_flags_of_its_table():
    # A name missing from the flag table, or from a command's flags, would
    # surface only at run time, as an AttributeError with exit code 4.
    from rcaudit import cli

    reads = args_reads((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    assert set().union(*reads.values()) - {"func"} <= set(cli.FLAGS)
    undeclared = {
        name: sorted(reads[func.__name__] - set(flags))
        for name, (func, _, flags) in cli.COMMANDS.items()
    }
    assert undeclared == {name: [] for name in cli.COMMANDS}


def readers_of(source: str, name: str) -> list[tuple[int, str]]:
    """(line, top-level function or "") of each read of `name` in `source`,
    bare or as an attribute."""
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, ast.FunctionDef) else ""
        found.extend(
            (node.lineno, where)
            for node in ast.walk(top)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
        )
    return sorted(found)


def test_readers_detector_finds_bare_and_attribute_reads():
    source = (
        "from .alignment import screen_partition\n"
        "import rcaudit.alignment as al\n"
        "def plan(x):\n"
        "    return screen_partition(x)\n"
        "al.screen_partition(1)\n"
        "screen = screen_partition\n"
        "screen_partition_count = 1\n"
    )
    assert readers_of(source, "screen_partition") == [(4, "plan"), (5, ""), (6, "")]


def test_only_the_planner_screens_partitions():
    # One planner screens every original for `align`, generated pairs and
    # ready-made ones alike; a second screen would fork its passes.
    readers = {
        (str(path.relative_to(PACKAGE_DIR)), where)
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        for _, where in readers_of(path.read_text(encoding="utf-8"), "screen_partition")
    }
    assert readers == {("alignment.py", "plan_audit")}


def imported_modules(source: str) -> set[str]:
    """The top-level name of each module that `source` imports absolutely,
    as `import x.y` or `from x.y import z`, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_import_detector_finds_nested_and_from_imports():
    source = (
        "import os.path, json\n"
        "from argparse import ArgumentParser\n"
        "from . import read_options\n"
        "from .argparse import x\n"
        "def f():\n"
        "    import socket\n"
    )
    assert imported_modules(source) == {"os", "json", "argparse", "socket"}


def test_no_module_imports_argparse():
    # Each entry point reads its command line, help and refusals included,
    # with `rcaudit.read_options` alone; argparse would be a second reader.
    importers = [
        str(path.relative_to(PACKAGE_DIR))
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        if "argparse" in imported_modules(path.read_text(encoding="utf-8"))
    ]
    assert importers == []
