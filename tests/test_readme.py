"""The README's library example runs and prints what it says it prints, and
every public name is used in the package or offered in the README."""

import ast
import pathlib
import re

import infofresh

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_library_example_prints_decreasing_values(capsys):
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)
    assert block, "README has no python block under '## Library'"
    exec(compile(block.group(1), str(README), "exec"), {})
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 3
    best, zero_wait, uniform = values
    assert best > zero_wait > uniform


def test_public_names_are_used_or_documented():
    # an export that no module reads and the README does not offer is surface only tests call
    used = set()
    for path in (ROOT / "src" / "infofresh").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    documented = set(re.findall(r"`([A-Za-z_]\w*)", README.read_text(encoding="utf-8")))
    assert sorted(set(infofresh.__all__) - used - documented) == []
