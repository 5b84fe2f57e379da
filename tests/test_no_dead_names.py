"""Every function, class and method of the program is used somewhere.

A definition of ``src/hyrel`` that no other line of ``src/hyrel`` or
``perfbench/`` names is dead code: tests alone keep it alive.  The check
reads the parsed source, not its text: names, attributes, imported names
and string constants that spell a dotted name (``perfbench/spans.py`` names
the functions it wraps as ``"LinkPredictor.entity_scores"``).  Prose, such
as a docstring, names nothing.  ``reference.py`` holds the test oracles,
and dunder methods are called by Python itself, so neither is checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyrel"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(tree: ast.Module):
    """(qualified name, name) of each top-level function and class and of
    each method of a top-level class, dunders left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not re.fullmatch(r"__\w+__", member.name):
                    yield f"{node.name}.{member.name}", member.name


def names_used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            used.update(node.value.split("."))
    return used


def dead_names(package: Path, users: list[Path]) -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(package.glob("*.py")) + users}
    used = set().union(*map(names_used, trees.values()))
    return [f"{path.stem}.{qualified}" for path, tree in trees.items()
            if path.parent == package and path.name != "reference.py"
            for qualified, name in definitions(tree) if name not in used]


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
