"""The package needs numpy alone: every module of src/cate_ebm imports only
numpy, __future__, the standard library and its own modules, so a stray
third-party import fails here and not first in a numpy-only install."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cate_ebm"
ALLOWED = {"numpy", "__future__", *sys.stdlib_module_names}


def test_modules_import_only_numpy_and_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports are the package's own modules
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not outside, f"imports beyond numpy and the standard library: {outside}"
