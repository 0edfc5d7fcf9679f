"""Golden bit-identity guard for the NHPP fit and the RobustScaler planning round.

``tests/golden/planning_google.json`` pins, for small seeded google traces,
a digest of the fitted log-intensity and of the per-query outcome columns
(hits, waiting, creation, ready and deletion times, lifecycle costs) of
RobustScaler-HP, -RT and -cost.  Performance work on the fit or on the
planning round must leave every digest unchanged.  If a change is meant to
move them, re-baseline with::

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
    assert _regen.PLANNING_PATH.exists(), (
        "planning fixture missing; run `PYTHONPATH=src python tests/golden/regen_golden.py`"
    )
    return json.loads(_regen.PLANNING_PATH.read_text())


def test_fixture_file_covers_exactly_the_planning_cases(fixtures):
    assert set(fixtures) == {_regen.fixture_key(*case) for case in _regen.PLANNING_CASES}


@pytest.mark.parametrize("case", _regen.PLANNING_CASES, ids=lambda case: _regen.fixture_key(*case))
def test_fit_and_planning_match_golden(fixtures, case):
    assert _regen.planning_fingerprint(*case) == fixtures[_regen.fixture_key(*case)]
