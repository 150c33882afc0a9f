"""``linalg`` is the one module that starts threads.

Every ``src/fedqr`` module is read with ``ast``. Only ``linalg`` may import
``threading`` (or ``_thread`` or ``concurrent``); every other module runs work
side by side through ``linalg.alongside``, which joins its helper before it
returns and hands it the caller's numpy error state.
"""

import ast
import pathlib

import fedqr

SRC = pathlib.Path(fedqr.__file__).resolve().parent

THREAD_MODULES = {"threading", "_thread", "concurrent"}


def thread_imports(module: str, source: str) -> list[str]:
    """``module:line`` of every import of a thread module."""
    problems = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in THREAD_MODULES for name in names):
            problems.append(f"{module}:{node.lineno}")
    return problems


def test_only_linalg_imports_threading():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert thread_imports("linalg", modules.pop("linalg")) != []
    assert {"federation", "aggregation", "adapter", "verify"} <= set(modules)
    assert [p for name, source in modules.items() for p in thread_imports(name, source)] == []


def test_thread_import_check_sees_each_form():
    caught = [
        "import threading",
        "import os, threading as t",
        "from threading import Thread",
        "from concurrent.futures import ThreadPoolExecutor",
        "import _thread",
    ]
    for source in caught:
        assert thread_imports("m", source) == ["m:1"], source
    allowed = [
        "from .linalg import alongside",
        "import numpy as np",
        "from . import threading",
    ]
    for source in allowed:
        assert thread_imports("m", source) == [], source
