"""The oracles live in ``fedqr.oracle``; production modules hold production paths.

Every ``src/fedqr`` module other than ``oracle`` and ``verify`` is read with
``ast``. None may define a function ``oracle`` defines, and none may import
from ``oracle`` beyond ``REEXPORTS``: the names ``benchmarks/workloads.py``
still looks up in production modules (its ``trace_targets()``), each kept in
one commented re-export block. The list is pinned to those lookups, so it can
only shrink. The same holds for every name a production module imports but
never references: those must be exactly the benchmark's lookups in it, so a
trace-only import block goes once the trace stops reading it.
"""

import ast
import importlib.util
import pathlib

import fedqr
from fedqr import oracle

SRC = pathlib.Path(fedqr.__file__).resolve().parent

# (module, name) pairs a production module may import from oracle
REEXPORTS = {
    ("federation", "corrected_gradient"),
    ("federation", "factor_gradients"),
    ("federation", "head_accuracy"),
    ("federation", "head_loss_and_grads"),
    ("federation", "pad_delta"),
    ("optim", "pad_delta"),
}


def oracle_functions() -> set[str]:
    tree = ast.parse((SRC / "oracle.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def boundary_problems(module: str, source: str, oracles: set[str]) -> list[str]:
    """Every oracle import outside REEXPORTS and every oracle redefinition in one module."""
    problems = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in oracles:
            problems.append(f"{module} defines {node.name}, an oracle")
        elif isinstance(node, ast.Import):
            problems += [
                f"{module} imports {alias.name}"
                for alias in node.names
                if alias.name == "fedqr.oracle"
            ]
        elif isinstance(node, ast.ImportFrom):
            target = "." * node.level + (node.module or "")
            if target in (".oracle", "fedqr.oracle"):
                problems += [
                    f"{module} imports {alias.name} from oracle"
                    for alias in node.names
                    if (module, alias.name) not in REEXPORTS
                ]
            elif target in (".", "fedqr"):
                problems += [
                    f"{module} imports the oracle module"
                    for alias in node.names
                    if alias.name == "oracle"
                ]
    return problems


def production_modules():
    for path in sorted(SRC.glob("*.py")):
        if path.stem not in ("oracle", "verify"):
            yield path.stem, path.read_text()


def test_production_modules_neither_import_nor_define_oracles():
    oracles = oracle_functions()
    assert oracles == {
        "_dense_logits",
        "head_loss_and_grads",
        "head_accuracy",
        "factor_gradients",
        "corrected_gradient",
        "pad_delta",
    }
    modules = dict(production_modules())
    assert {"federation", "optim", "model", "adapter", "__init__"} <= set(modules)
    problems = [
        p for name, source in modules.items() for p in boundary_problems(name, source, oracles)
    ]
    assert problems == []


def test_boundary_check_catches_each_kind_of_leak():
    oracles = oracle_functions()
    leaks = {
        "from .oracle import head_accuracy": "model imports head_accuracy from oracle",
        "from fedqr.oracle import pad_delta": "model imports pad_delta from oracle",
        "from . import oracle": "model imports the oracle module",
        "import fedqr.oracle": "model imports fedqr.oracle",
        "def pad_delta(delta):\n    return delta": "model defines pad_delta, an oracle",
    }
    for source, problem in leaks.items():
        assert boundary_problems("model", source, oracles) == [problem], source
    # the allowlist is per module: optim may re-export pad_delta, nothing else
    assert boundary_problems("optim", "from .oracle import pad_delta", oracles) == []
    assert boundary_problems("optim", "from .oracle import factor_gradients", oracles) == [
        "optim imports factor_gradients from oracle"
    ]


def benchmark_workloads():
    # the sibling test module's loader, found by path under any import mode
    path = pathlib.Path(__file__).with_name("test_benchmark_targets.py")
    spec = importlib.util.spec_from_file_location("benchmark_targets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.load_workloads()


def test_reexports_are_exactly_the_benchmark_lookups_of_oracles():
    looked_up = {
        (module.__name__.removeprefix("fedqr."), attr)
        for module, attr, _, _ in benchmark_workloads().trace_targets()
        if getattr(module, attr).__module__ == oracle.__name__
    }
    assert REEXPORTS == looked_up


def test_package_exports_no_oracle():
    assert not set(fedqr.__dict__) & oracle_functions()


def bound_and_used(source: str) -> tuple[set[str], set[str], set[str]]:
    """(imported, defined, referenced) names anywhere in one module."""
    imported, defined, referenced = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name):
            referenced.add(node.id)
    return imported, defined, referenced


def unused_imports(source: str) -> set[str]:
    imported, _, referenced = bound_and_used(source)
    return imported - referenced


def test_unused_imports_are_exactly_the_trace_only_lookups():
    # __init__'s imports are the package's exports, not trace-only names
    lookups = {}
    for module, attr, _, _ in benchmark_workloads().trace_targets():
        lookups.setdefault(module.__name__.removeprefix("fedqr."), set()).add(attr)
    modules = dict(production_modules())
    del modules["__init__"]
    for name, source in modules.items():
        _, defined, referenced = bound_and_used(source)
        trace_only = lookups.get(name, set()) - defined - referenced
        assert unused_imports(source) == trace_only, name
    # the blocks that exist today, so a retargeted trace shows up here too
    assert unused_imports(modules["aggregation"]) == {"thin_qr"}
    assert unused_imports(modules["optim"]) == {"pad_delta"}
    assert unused_imports(modules["federation"]) == {
        "apply_global",
        "concat_reconstruct",
        "corrected_gradient",
        "factor_gradients",
        "head_accuracy",
        "head_loss_and_grads",
        "pad_delta",
    }


def test_unused_import_check_sees_names_in_any_position():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .linalg import thin_qr, leading_qr, ShapeError\n"
        "def f(m: ShapeError) -> None:\n"
        "    return np.sum(leading_qr(m, 1)[0])\n"
    )
    assert unused_imports(source) == {"thin_qr"}
