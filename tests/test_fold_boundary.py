"""``linalg.leading_sum`` is the package's one fold of client arrays into a server array.

``aggregation``, ``optim`` and ``federation`` are read with ``ast``. None may
add into a subscript in place (``x[...] += ...``): that is the hand-written
form of the leading-block fold, which the factor means, the control fold, the
global-bias fold and the mean gradient each once had. They call
``leading_sum`` instead.
"""

import ast
import pathlib

import fedqr

SRC = pathlib.Path(fedqr.__file__).resolve().parent

FOLDING_MODULES = ("aggregation", "optim", "federation")


def subscript_updates(module: str, source: str) -> list[str]:
    """``module:line`` of every augmented assignment whose target is a subscript."""
    return [
        f"{module}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript)
    ]


def test_no_module_folds_into_a_subscript():
    problems = []
    for module in FOLDING_MODULES:
        problems += subscript_updates(module, (SRC / f"{module}.py").read_text())
    assert problems == []


def test_fold_check_sees_each_form():
    caught = [
        "total[:r, :c] += delta",
        "b_mean[:, :r] += w * b",
        "x[...] -= y",
        "x[i] *= 2.0",
        "state.m[0] /= n",
    ]
    for source in caught:
        assert subscript_updates("m", source) == ["m:1"], source
    allowed = [
        "total += delta",
        "state.m *= beta1",
        "x[:r] = y",
        "total = leading_sum(shape, deltas)",
    ]
    for source in allowed:
        assert subscript_updates("m", source) == [], source
