import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import docrec
from docrec.cli import main


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
    """Deletions leave no dead imports behind; ``__init__`` re-exports nothing."""
    unused = []
    for path in sorted(Path(docrec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


#: Public names with no caller outside tests yet, and why each stays.
_UNCALLED = {
    "fuzzy_match": "perfbench/spans.py wraps gtgen.edit_distance; both go in ROADMAP item 4",
}


def test_every_public_name_has_a_caller_outside_tests():
    """No export exists only for tests: each module-level public name of ``docrec``
    is read in ``src/docrec`` or ``perfbench/`` (a name, an attribute, or an
    identifier string such as a ``convert --target`` table entry), or named in
    the README."""
    root = Path(docrec.__file__).resolve().parent
    repo = root.parent.parent
    defined, used = {}, set(re.findall(r"\w+", (repo / "README.md").read_text(encoding="utf-8")))
    for path in sorted(root.glob("*.py")) + sorted((repo / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                used.add(node.value)
        if path.parent == root:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[node.name] = path.name
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined.update((t.id, path.name) for t in targets if isinstance(t, ast.Name))
    uncalled = sorted(f"{module}: {name}" for name, module in defined.items()
                      if not name.startswith("_") and name not in used and name not in _UNCALLED)
    assert uncalled == []
    assert used & set(_UNCALLED) == set()  # a name that gains a caller leaves the list


def _run_python(code: str, cwd: Path | None = None) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this docrec."""
    src = str(Path(docrec.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                         text=True, check=True)
    return out.stdout


def test_cli_import_leaves_out_numpy_and_scipy():
    """Only ``docrec.losses`` needs numpy and scipy; every CLI call starts without them,
    and without ``concurrent.futures``: the CLI runs its work on one thread. Nor does
    it load ``fractions`` (or ``decimal``, which it imports): only boxes that floats
    cannot measure need exact arithmetic, and ``exact_boxes`` imports it then. Nor
    ``dataclasses`` (or ``inspect``, which it imports): ``model.value`` builds the
    value classes. The modules that only some subcommands run are loaded by those
    subcommands."""
    code = (
        "import sys, docrec.cli; "
        "print(sorted({'numpy', 'scipy', 'concurrent.futures', 'fractions', 'decimal', 'dataclasses', 'inspect', "
        "'docrec.metrics', 'docrec.gtgen', 'docrec.readorder', 'docrec.convert'} & set(sys.modules)))"
    )
    assert _run_python(code).strip() == "[]"


_FIXTURES = Path(__file__).resolve().parent / "fixtures"
_GT, _PRED = str(_FIXTURES / "gt.jsonl"), str(_FIXTURES / "pred.jsonl")
#: One call of each subcommand on the fixture corpora.
_FIXTURE_CALLS = {
    "validate": ["validate", _GT],
    "eval": ["eval", "--gt", _GT, "--pred", _PRED],
    "convert": ["convert", _PRED, "--target", "markdown"],
    "order": ["order", _PRED],
    "gtgen": ["gtgen", _GT],
}


def test_every_subcommand_runs_without_numpy_and_scipy(capsys):
    """numpy and scipy are the ``losses`` extra: with both unimportable, each
    subcommand prints what it prints with them, and eval the manifest's scores."""
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = sys.modules['scipy'] = None\n"
        "from docrec.cli import main\n"
        "outs = {}\n"
        f"for name, argv in {_FIXTURE_CALLS!r}.items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert main(argv) == 0, name\n"
        "    outs[name] = out.getvalue()\n"
        "print(json.dumps(outs))\n"
    )
    outs = json.loads(_run_python(code))
    for name, argv in _FIXTURE_CALLS.items():
        assert main(argv) == 0
        assert outs[name] == capsys.readouterr().out, name
    manifest = json.loads((_FIXTURES / "manifest.json").read_text(encoding="utf-8"))
    report = json.loads(outs["eval"])
    assert (report["dsm"], report["ned"]) == (round(manifest["dsm"], 4), round(manifest["ned"], 4))


_PAGE = {"page_width": 100.0, "page_height": 100.0, "elements": [
    {"category": "Paragraph", "bbox": [0, 0, 50, 20],
     "content": {"lines": [{"bbox": [5, 5, 45, 15], "text": "hi"}]}}]}
_RAW = {"page_width": 100.0, "page_height": 100.0,
        "elements": [{"category": "Paragraph", "bbox": [0, 0, 50, 20]}],
        "lines": [{"bbox": [5, 5, 45, 15], "text": "hi"}]}
_CLI_CORE = ["docrec.cli", "docrec.model", "docrec.seqformat"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["validate", "page.jsonl"], []),
        (["eval", "--gt", "page.jsonl", "--pred", "page.jsonl"], ["docrec.convert", "docrec.metrics"]),
        (["convert", "page.jsonl", "--target", "markdown"], ["docrec.convert"]),
        (["order", "page.jsonl"], ["docrec.readorder"]),
        (["gtgen", "raw.jsonl"], ["docrec.convert", "docrec.gtgen", "docrec.metrics", "docrec.readorder"]),
    ],
    ids=["validate", "eval", "convert", "order", "gtgen"],
)
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    """Each subcommand loads the docrec modules it runs, and neither ``dataclasses`` nor ``inspect``."""
    (tmp_path / "page.jsonl").write_text(json.dumps(_PAGE) + "\n", encoding="utf-8")
    (tmp_path / "raw.jsonl").write_text(json.dumps(_RAW) + "\n", encoding="utf-8")
    code = (
        "import contextlib, io, sys\n"
        "from docrec.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('docrec.')))\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert _run_python(code, cwd=tmp_path).split("\n")[:2] == [repr(sorted(_CLI_CORE + extra)), "[]"]


def test_importing_docrec_loads_no_module():
    code = "import sys, docrec; print(sorted(n for n in sys.modules if n.startswith('docrec.')))"
    assert _run_python(code).strip() == "[]"


def test_readme_quick_start_runs():
    """The README's Python example runs as written, so its imports cannot rot."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    code = blocks[0] + "assert report.dsm < 1.0 and markdown == 'Hello world'\n"
    _run_python(code)
