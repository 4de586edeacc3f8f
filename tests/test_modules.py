import ast
from pathlib import Path

import docrec


def test_no_module_imports_private_names_of_another():
    """An underscore name is a module's own; callers go through public ones."""
    offenders = []
    for path in sorted(Path(docrec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("docrec"):
                continue
            offenders += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert offenders == []
