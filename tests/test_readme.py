"""The README's python examples stay valid: each block compiles, and every
name it imports from cate_ebm exists, so removing a public name cannot leave
the docs stale."""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.S | re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_block_compiles_and_its_imports_exist(index):
    tree = ast.parse(BLOCKS[index], filename=f"README.md python block {index}")
    compile(tree, f"README.md python block {index}", "exec")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cate_ebm":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"block {index} imports {missing} from {node.module}"
