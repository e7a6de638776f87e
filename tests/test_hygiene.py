"""Package hygiene and the README: every exported name resolves, no module
under src/rsprod imports a name it does not use, and the README's library
quickstart and CLI examples keep working."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import rsprod
from rsprod.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rsprod"


def imported_names(tree):
    """(bound name, line) of every import in the tree, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name loaded anywhere in the tree, including the names inside
    annotations written as strings."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            annotations = [p.annotation for p in params if p is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from rsprod import *", namespace)
    assert len(set(rsprod.__all__)) == len(rsprod.__all__)
    assert [name for name in rsprod.__all__ if name not in namespace] == []


def test_init_exports_every_name_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert {name for name, _ in imported_names(tree)} == set(rsprod.__all__)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it does not use"


def readme_blocks(lang):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_quickstart_runs(capsys):
    (block,) = readme_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert "12" in capsys.readouterr().out.splitlines()


def test_readme_cli_examples_parse():
    examples = []
    for block in readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "rsprod":
                examples.append(argv[1:])
    assert len(examples) >= 10
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: rsprod {shlex.join(argv)}")
