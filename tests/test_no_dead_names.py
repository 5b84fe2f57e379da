"""Every function, class and method of the program is used somewhere.

A definition of ``src/hyrel`` that no other line of ``src/hyrel`` or
``perfbench/`` names is dead code: tests alone keep it alive.  The check
reads the parsed source, not its text.  A top-level function or class is
used where a bare name spells it, where an import names it, and where it is
read off its module (``ad.f`` with ``ad`` bound to the module
by an import, or ``<...>.autodiff.f``); an attribute of anything else, such
as ``x.transpose`` on an array, does not use ``autodiff.transpose``.  A
method is used by any attribute or name that spells it.  Both are also used
by a string constant that spells a dotted name (``perfbench/spans.py``
names the functions it wraps as ``"LinkPredictor.entity_scores"``).  Prose,
such as a docstring, names nothing.  ``reference.py`` holds the test
oracles, and dunder methods are called by Python itself, so neither is
checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyrel"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(tree: ast.Module):
    """(qualified name, name, is a method) of each top-level function and
    class and of each method of a top-level class, dunders left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not re.fullmatch(r"__\w+__", member.name):
                    yield f"{node.name}.{member.name}", member.name, True


def names_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(every bare name and part of a dotted string, every attribute and
    part of an imported name)."""
    bare, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            attributes.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            bare.update(node.value.split("."))
    return bare, attributes


def module_names_used(tree: ast.Module, package: str, stems: set[str]) -> set[tuple[str, str]]:
    """(module stem, name) of each name of a package module that ``tree``
    imports from its module or reads off its module."""
    modules: dict[str, str] = {}  # local name -> stem of the module it is bound to
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if alias.asname and parts[0] == package and len(parts) == 2 \
                        and parts[1] in stems:
                    modules[alias.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") if node.module else []
            if not node.level:
                if parts[:1] != [package]:
                    continue
                parts = parts[1:]
            if not parts:  # ``from . import autodiff``: modules of the package
                for alias in node.names:
                    if alias.name in stems:
                        modules[alias.asname or alias.name] = alias.name
            elif len(parts) == 1 and parts[0] in stems:
                used.update((parts[0], alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in modules:
                used.add((modules[owner.id], node.attr))
            elif isinstance(owner, ast.Attribute) and owner.attr in stems:
                used.add((owner.attr, node.attr))
    return used


def dead_names(package: Path, users: list[Path]) -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(package.glob("*.py")) + users}
    stems = {path.stem for path in trees if path.parent == package}
    bare, attributes = (set().union(*sets) for sets in zip(*map(names_used, trees.values())))
    qualified = set().union(*(module_names_used(tree, package.name, stems)
                              for tree in trees.values()))
    return [f"{path.stem}.{full}" for path, tree in trees.items()
            if path.parent == package and path.name != "reference.py"
            for full, name, method in definitions(tree)
            if not (name in bare or (name in attributes if method
                                     else (path.stem, name) in qualified))]


def test_every_definition_of_the_program_is_named_elsewhere():
    assert dead_names(PACKAGE, sorted((ROOT / "perfbench").rglob("*.py"))) == []


def test_a_method_named_only_in_prose_is_dead(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def called(self):\n"
        "        return 0\n"
        "    def traced(self):\n"
        "        'Names nothing: uncalled'\n"
        "    def uncalled(self):\n"
        "        return 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def helper():\n"
        "    return A().called()\n", encoding="utf-8")
    (tmp_path / "users").mkdir()
    user = tmp_path / "users" / "spans.py"
    user.write_text("TARGETS = ('mod.A.traced',)\nhelper()\n", encoding="utf-8")
    assert dead_names(tmp_path, [user]) == ["mod.A.uncalled"]


def test_a_function_is_used_only_through_its_own_module(tmp_path):
    # ``transpose`` shares its name with an array method and a numpy
    # function; calling either does not call it.  ``clip`` is read off
    # another module of the package, so it is not ``ops.clip``.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "ops.py").write_text(
        "def transpose(x):\n"
        "    return x\n"
        "def clip(x):\n"
        "    return x\n"
        "def bare(x):\n"
        "    return x\n"
        "def aliased(x):\n"
        "    return x\n"
        "def imported(x):\n"
        "    return x\n"
        "def relative(x):\n"
        "    return x\n"
        "def dotted(x):\n"
        "    return x\n"
        "def spelled(x):\n"
        "    return x\n"
        "def uses(x):\n"
        "    return bare(x)\n", encoding="utf-8")
    (package / "other.py").write_text(
        "def clip(x):\n"
        "    return x\n", encoding="utf-8")
    (package / "model.py").write_text(
        "import numpy as np\n"
        "from . import ops as o, other\n"
        "from .ops import relative\n"
        "def run(x):\n"
        "    return o.aliased(relative(np.transpose(x.transpose()))) + other.clip(x)\n",
        encoding="utf-8")
    user = tmp_path / "user.py"
    user.write_text(
        "import pkg.ops as p\n"
        "from pkg.ops import imported\n"
        "TARGETS = ('ops.spelled',)\n"
        "def go(program, x):\n"
        "    return program.ops.dotted(p.uses(imported(x)))\n", encoding="utf-8")
    assert dead_names(package, [user]) == ["model.run", "ops.transpose", "ops.clip"]
