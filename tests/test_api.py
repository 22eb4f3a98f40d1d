"""The package's public names and the README quick start's imports."""

import ast
import re
from pathlib import Path

import kahlermech

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in kahlermech.__all__ if not hasattr(kahlermech, name)]
    assert missing == []
    assert len(set(kahlermech.__all__)) == len(kahlermech.__all__)


def test_the_readme_imports_only_public_names():
    # The README's ``python`` blocks are parsed, not run: the quick start
    # integrates 10k steps.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    imported = [
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "kahlermech"
        for alias in node.names
    ]
    assert imported  # the quick start is still there
    assert [name for name in imported if name not in kahlermech.__all__] == []
