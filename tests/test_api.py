"""The package's public surface is exactly what README.md documents."""

import ast
import re
from pathlib import Path

import wann
from wann.harness import PARAM_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports() -> set[str]:
    """Names imported from ``wann`` in README.md's Python code blocks."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                        flags=re.S)
    assert blocks, "README.md has no Python code blocks"
    names = set()
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "wann":
                names.update(alias.name for alias in node.names)
    return names


def test_all_equals_readme_imports():
    assert set(wann.__all__) == readme_imports()
    assert len(wann.__all__) == len(set(wann.__all__))


def test_every_exported_name_resolves():
    for name in wann.__all__:
        assert getattr(wann, name) is not None, name


def test_readme_lists_the_accepted_method_params():
    text = " ".join(README.read_text("utf-8").split())
    listed = re.search(r"`MethodSpec\.params` accepts (.*?);", text)
    assert listed, "README.md does not list the MethodSpec.params keys"
    assert set(re.findall(r"`(\w+)`", listed.group(1))) == PARAM_KEYS


SRC = Path(wann.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    A name counts as read when it appears as a name in the code or, in a
    package ``__init__``, in ``__all__``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_no_unused_imports_in_the_package():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: unused_imports(path.read_text("utf-8"))
             for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_check_sees_a_stale_import():
    assert unused_imports("import os\nfrom .nn import Mlp, forward\n"
                          "forward(Mlp)\n") == ["os (line 1)"]
