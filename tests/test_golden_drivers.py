"""Golden bit-identity guard for the paper-experiment drivers.

``tests/golden/drivers.json`` pins, at small parameters, a digest of the
deterministic row columns of Table I, Table III, the regularization and
Monte Carlo sample-size ablations, Fig. 4's sweep, Fig. 8's grid and
Table IV's simulated row.  Wall-clock columns and Table IV's "real" row (which charges measured
planner latency) are not pinned.  A change that makes a driver reuse the
pipeline's own code must leave every digest unchanged.  If a change is
meant to move them, re-baseline with::

    PYTHONPATH=src python tests/golden/regen_golden.py

and commit the updated JSON together with the change (see the README
section on re-baselining golden fixtures).
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"


def _load_regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_golden", GOLDEN_DIR / "regen_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("regen_golden", module)
    spec.loader.exec_module(module)
    return module


_regen = _load_regen_module()


@pytest.fixture(scope="module")
def fixtures() -> dict:
    assert _regen.DRIVERS_PATH.exists(), (
        "driver fixture missing; run `PYTHONPATH=src python tests/golden/regen_golden.py`"
    )
    return json.loads(_regen.DRIVERS_PATH.read_text())


def test_fixture_file_covers_exactly_the_driver_cases(fixtures):
    assert set(fixtures) == set(_regen.DRIVER_CASES)


@pytest.mark.parametrize("name", sorted(_regen.DRIVER_CASES))
def test_driver_rows_match_golden(fixtures, name):
    assert _regen.driver_fingerprint(name) == fixtures[name]


def test_write_fixture_skips_unchanged_content(tmp_path):
    path = tmp_path / "fixture.json"
    assert _regen.write_fixture(path, {"a": 1})
    stamp = path.stat().st_mtime_ns
    assert not _regen.write_fixture(path, {"a": 1})
    assert path.stat().st_mtime_ns == stamp
    assert _regen.write_fixture(path, {"a": 2})
    assert json.loads(path.read_text()) == {"a": 2}
