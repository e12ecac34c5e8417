"""The README's library example runs and prints what it says it prints."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_decreasing_values(capsys):
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)
    assert block, "README has no python block under '## Library'"
    exec(compile(block.group(1), str(README), "exec"), {})
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 3
    best, zero_wait, uniform = values
    assert best > zero_wait > uniform
