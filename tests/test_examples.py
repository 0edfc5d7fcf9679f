"""Every example imports against the current public API.

Each example keeps its work behind a ``__main__`` guard, so importing it as
a module only resolves its imports and definitions.  A name an example
still imports after it left the package fails here, in seconds, instead of
only when the examples are run end to end.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert _EXAMPLES


@pytest.mark.parametrize("path", _EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
