import ast
import os
import subprocess
import sys
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


def test_no_module_imports_a_name_it_never_uses():
    """Deletions leave no dead imports behind; ``__init__`` imports to re-export."""
    unused = []
    for path in sorted(Path(docrec.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_cli_import_leaves_out_numpy_and_scipy():
    """Only ``docrec.losses`` needs numpy and scipy; every CLI call starts without them,
    and without ``concurrent.futures``: the CLI runs its work on one thread. Nor does
    it load ``fractions`` (or ``decimal``, which it imports): only boxes that floats
    cannot measure need exact arithmetic, and ``exact_boxes`` imports it then."""
    src = str(Path(docrec.__file__).resolve().parent.parent)
    code = (
        "import sys, docrec.cli; "
        "print(sorted({'numpy', 'scipy', 'concurrent.futures', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
