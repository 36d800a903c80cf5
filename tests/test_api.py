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
    listed = re.search(r"`MethodSpec\.params` accepts (.*?) \(the runner",
                       text)
    assert listed, "README.md does not list the MethodSpec.params keys"
    assert set(re.findall(r"`(\w+)`", listed.group(1))) == PARAM_KEYS
