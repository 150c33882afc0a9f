"""``linalg.frobenius_norm`` is the package's one sum-of-squares norm.

Every ``src/fedqr`` module is read with ``ast``. None may name numpy's
``linalg.norm``: its sum is a BLAS dot product, which OpenBLAS splits across
its threads, so its last bits follow the BLAS thread count. ``frobenius_norm``
squares and sums with numpy's pairwise sum on the calling thread.
"""

import ast
import pathlib

import fedqr

SRC = pathlib.Path(fedqr.__file__).resolve().parent

NUMPY_NAMES = {"np", "numpy"}


def numpy_norms(module: str, source: str) -> list[str]:
    """``module:line`` of every use of numpy's ``linalg.norm``."""
    problems = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "norm":
            owner = node.value
            if (
                isinstance(owner, ast.Attribute)
                and owner.attr == "linalg"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in NUMPY_NAMES
            ):
                problems.append(f"{module}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name == "norm" for alias in node.names):
                problems.append(f"{module}:{node.lineno}")
    return problems


def test_no_module_uses_numpys_norm():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert {"federation", "aggregation", "linalg", "verify"} <= set(modules)
    assert [p for name, source in modules.items() for p in numpy_norms(name, source)] == []


def test_norm_check_sees_each_form():
    caught = [
        "d = float(np.linalg.norm(x))",
        "d = numpy.linalg.norm(x - y)",
        "norm = np.linalg.norm",
        "from numpy.linalg import norm",
        "from numpy.linalg import qr, norm as n",
    ]
    for source in caught:
        assert numpy_norms("m", source) == ["m:1"], source
    allowed = [
        "d = frobenius_norm(x)",
        "q, r = np.linalg.qr(x)",
        "from numpy.linalg import qr",
        "from .linalg import frobenius_norm",
    ]
    for source in allowed:
        assert numpy_norms("m", source) == [], source
