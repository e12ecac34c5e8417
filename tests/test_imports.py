"""The package's imports, read with ``ast``: the exact evaluators stay
independent of the solver's tables, and no module imports a name it never
reads."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "infofresh"
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
