"""Static checks over the modules of src/cate_ebm.

The package needs numpy alone: every module imports only numpy, __future__,
the standard library and its own modules, so a stray third-party import fails
here and not first in a numpy-only install. And every error the package
raises is a CateEbmError, which carries its exit code: no module raises a
builtin exception class."""

import ast
import builtins
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


def _builtin_exception(expr) -> bool:
    name = expr.func if isinstance(expr, ast.Call) else expr
    cls = getattr(builtins, name.id, None) if isinstance(name, ast.Name) else None
    return isinstance(cls, type) and issubclass(cls, BaseException)


def test_no_module_raises_a_builtin_exception():
    builtin = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (isinstance(node, ast.Raise) and node.exc is not None
                    and _builtin_exception(node.exc)):
                builtin.append(f"{path.name}:{node.lineno}: raise {ast.unparse(node.exc)}")
    assert not builtin, f"builtin exceptions raised instead of a CateEbmError: {builtin}"
