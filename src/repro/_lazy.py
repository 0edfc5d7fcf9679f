"""Lazy package exports (PEP 562).

A package's ``__init__`` that re-exports names from its submodules would
import every one of them on ``import package``.  :func:`lazy_exports`
instead returns the module-level ``__getattr__`` / ``__dir__`` pair that
imports a module the first time one of its names is read, so start-up
pays only for the submodules a command touches.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package`` over ``{name: module}``.

    ``module`` is a relative import path (``".config"``, ``"..store"``)
    resolved against ``package``.  A resolved name is cached in the package
    namespace, so later reads are plain attribute lookups.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
