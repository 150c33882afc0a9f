"""Methods are data: the round code reads ``federation.METHOD_TRAITS``, never a name.

Every ``src/fedqr`` module other than ``oracle`` is read with ``ast``. No
comparison may test a method (a ``.method`` attribute or a variable named
``method``) against a string literal or a literal tuple, list or set of
strings; only the ``METHOD_TRAITS`` definition names methods.
"""

import ast
import pathlib

import fedqr

SRC = pathlib.Path(fedqr.__file__).resolve().parent


def _is_method(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "method") or (
        isinstance(node, ast.Name) and node.id == "method"
    )


def _is_name_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_name_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def method_name_tests(module: str, source: str) -> list[str]:
    """``module:line`` of every comparison of a method with a name literal."""
    problems = []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "METHOD_TRAITS" for t in statement.targets
        ):
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(_is_method, operands)) and any(map(_is_name_literal, operands)):
                    problems.append(f"{module}:{node.lineno}")
    return problems


def test_no_module_tests_a_method_name():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    del modules["oracle"]
    assert {"federation", "verify", "cli", "config"} <= set(modules)
    assert [p for name, source in modules.items() for p in method_name_tests(name, source)] == []


def test_method_name_check_sees_each_form():
    caught = [
        'if config.method == "ilora_s":\n    pass',
        'track = "ilora_s" != self.method',
        'if config.method in ("zero_pad", "full_stack"):\n    pass',
        'ranks = r if method == "fedit_avg" else s',
        'ok = 0 < n and spec.federation.method not in ["ilora"]',
    ]
    for source in caught:
        assert method_name_tests("m", source) == ["m:1"], source
    allowed = [
        'METHOD_TRAITS = {method: method == "ilora_s" for method in NAMES}',
        "if config.method in METHODS:\n    pass",
        'if traits.fusion == "qr":\n    pass',
        'if config.method == other.method:\n    pass',
        'print(f"{config.method}: done")',
    ]
    for source in allowed:
        assert method_name_tests("m", source) == [], source
