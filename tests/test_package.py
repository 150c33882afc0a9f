import dataclasses
import importlib
import inspect
import pkgutil
import typing

import fedqr


def fedqr_dataclasses():
    for info in pkgutil.iter_modules(fedqr.__path__):
        module = importlib.import_module(f"fedqr.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_every_dataclass_annotation_resolves():
    classes = list(fedqr_dataclasses())
    assert {"ClientState", "ServerState", "BaseWeight"} <= {c.__name__ for c in classes}
    for cls in classes:
        typing.get_type_hints(cls)
