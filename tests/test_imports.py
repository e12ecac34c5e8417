"""The package's imports, read with ``ast``: the exact evaluators stay
independent of the solver's tables, no module imports a name it never
reads, every exported name is read by some module, and every name the
benchmark harness takes from the package exists."""

import ast
import importlib.util
import pathlib

import infofresh
import infofresh.cli
from infofresh.config import ExperimentConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "infofresh"
TABLE_NAMES = {"metric_table", "_tables"}


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def names_read(tree):
    """Every name a tree loads, and every attribute it takes."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def independence_faults(analytic, solver):
    """What ``analytic`` reaches of the solver's tables or of any ``solver``
    name but ``WaitingFunction``, and what of the tables ``cycle_stats`` names."""
    defined = {node.name for node in solver.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in solver.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    barred = (defined - {"WaitingFunction"}) | TABLE_NAMES
    faults = []
    for node in ast.walk(analytic):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name in barred or alias.name == "solver":
                    faults.append(f"analytic imports {alias.name} from {module}")
        elif isinstance(node, ast.Import):
            faults += [f"analytic imports {a.name}" for a in node.names if "solver" in a.name]
    faults += [f"analytic names {name}" for name in sorted(names_read(analytic) & TABLE_NAMES)]
    body = next(node for node in solver.body
                if isinstance(node, ast.FunctionDef) and node.name == "cycle_stats")
    faults += [f"cycle_stats names {name}" for name in sorted(names_read(body) & TABLE_NAMES)]
    return faults


def unread_imports(tree):
    """Names a module imports and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return sorted(imported - names_read(tree))


def test_exact_evaluators_share_no_table_with_the_solver():
    # the oracle and cycle_stats check the solver only while they build their own sums
    assert independence_faults(parse("analytic"), parse("solver")) == []


def test_independence_check_catches_a_reach():
    solver = parse("solver")
    for source in ("from .sources import metric_table\n",
                   "from .solver import WaitingFunction, cycle_stats\n",
                   "from . import solver\n",
                   "import infofresh.solver\n",
                   "from . import sources\nsources.metric_table\n"):
        assert independence_faults(ast.parse(source), solver), source
    table_cycle = ast.parse("def cycle_stats(penalty, dist, waiting):\n"
                            "    return _tables(penalty, dist)\n")
    assert independence_faults(ast.parse(""), table_cycle) == ["cycle_stats names _tables"]


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports to re-export
    found = {path.stem: unread_imports(parse(path.stem))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {module: names for module, names in found.items() if names} == {}


def test_every_exported_name_is_read_in_src():
    # an export that no module reads is public surface that only tests call
    read = set().union(*(names_read(parse(path.stem))
                         for path in SRC.glob("*.py") if path.name != "__init__.py"))
    assert sorted(set(infofresh.__all__) - read) == []


# what the harness calls its config and the command-line module
HARNESS_OWNERS = {"cfg": ExperimentConfig, "self.cli": infofresh.cli}


def harness_trees():
    """``perfbench/*.py``, and the set-up probe that ``run.py`` runs as a string."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "perfbench").glob("*.py"))]
    [probe] = [node.value.value for tree in trees for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "_SETUP_PROBE" for t in node.targets)]
    return trees + [ast.parse(probe)]


def _exists(module, name):
    """``from module import name`` finds an attribute, or a package's submodule."""
    return hasattr(module, name) or (hasattr(module, "__path__") and importlib.util.find_spec(
        f"{module.__name__}.{name}") is not None)


def harness_faults(trees):
    """What the harness reads that the package lacks: a name imported from
    ``infofresh``, a ``cfg.<name>`` of ``ExperimentConfig``, a ``self.cli.<name>``
    of ``infofresh.cli``."""
    faults = []
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "infofresh" and not importlib.util.find_spec(
                        alias.name):
                    faults.append(f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "infofresh":
            module = importlib.import_module(node.module)
            faults += [f"from {node.module} import {alias.name}" for alias in node.names
                       if not _exists(module, alias.name)]
        elif isinstance(node, ast.Attribute):
            owner = HARNESS_OWNERS.get(ast.unparse(node.value))
            if owner is not None and not hasattr(owner, node.attr):
                faults.append(ast.unparse(node))
    return faults


def test_harness_reads_only_names_the_package_has():
    # a deletion in src/ that the benchmark still reads fails here, not in a benchmark run
    trees = harness_trees()
    assert len(trees) >= 4  # run.py, tracing.py, workloads.py, ... and the probe
    assert harness_faults(trees) == []


def test_harness_check_catches_a_stale_name():
    for source in ("import infofresh.gone\n",
                   "from infofresh.solver import solve_mi\n",
                   "from infofresh import gone\n",
                   "cfg = None\ncfg.policies\n",
                   "class W:\n    def f(self):\n        return self.cli.simulate\n"):
        assert harness_faults([ast.parse(source)]), source
    assert harness_faults([ast.parse("from infofresh import cli, solver\n"
                                     "from infofresh.solver import cycle_stats\n"
                                     "cfg = None\ncfg.horizon, cfg.build_service\n"
                                     "self.cli._build_parser\n")]) == []
