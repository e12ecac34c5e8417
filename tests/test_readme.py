"""The README's library example runs and prints what it says it prints, each
call form the README shows fits its function's signature, and its config
reference parses and lists exactly the config's keys."""

import inspect
import pathlib
import re
from dataclasses import fields

import infofresh
import infofresh.cli
from infofresh.config import ExperimentConfig

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


def test_inline_call_forms_bind_to_their_signatures():
    # a form that outlives a parameter, such as trace_chunks(..., delta0, ...), fails to bind
    callables = {name: getattr(infofresh, name) for name in infofresh.__all__}
    callables["infofresh.cli.main"] = infofresh.cli.main
    checked = set()
    for name, args in re.findall(r"`([\w.]+)\(([^`()]*)\)", README.read_text(encoding="utf-8")):
        if name not in callables:
            continue
        params = [p.strip() for p in args.split(",") if p.strip()]
        keywords = {p.partition("=")[0].strip(): None for p in params if "=" in p}
        try:
            inspect.signature(callables[name]).bind(*(p for p in params if "=" not in p),
                                                     **keywords)
        except TypeError as exc:
            raise AssertionError(f"README shows `{name}({args})`: {exc}") from None
        checked.add(name)
    assert {"trace_chunks", "solve_beta", "infofresh.cli.main"} <= checked, checked


def config_reference():
    [block] = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    return block


def test_config_reference_parses_to_its_documented_values():
    # configparser strips whole-line comments only, so an inline one became part of a value
    cfg = ExperimentConfig.from_ini(config_reference())
    assert cfg.source_q == 0.05
    assert cfg.horizon == 1_000_000
    assert cfg.seeds == tuple(range(10))
    assert len(cfg.sweep_grid) == 25


def test_config_reference_lists_exactly_the_ini_keys():
    # each key on a line of its own, set or commented out with ";"
    block = config_reference()
    listed, section = [], None
    for line in block.splitlines():
        if match := re.match(r"\[(\w+)\]", line):
            section = match.group(1)
        elif match := re.match(r";?\s*(\w+)\s*=", line):
            listed.append((section, match.group(1)))
    assert sorted(listed) == sorted(f.metadata["ini"][:2] for f in fields(ExperimentConfig))
