"""Golden bit-identity guard for the arrival-driven baselines on every engine.

``tests/golden/baselines.json`` pins, for short seeded alibaba and crs
traces under deterministic and jittered pending times, the per-query
outcome columns of Reactive, BP(B=2) and AdapBP (factor 2, 60 s window and
ticks), plus the unused-instance cost and the planning-entry count.  Every
cell is replayed on the reference engine and on the batched engine, so a
change to the policies' arrival rule or to either engine's dispatch must
leave every digest unchanged.  If a change is meant to move them,
re-baseline with::

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
    assert _regen.BASELINES_PATH.exists(), (
        "baseline fixture missing; run `PYTHONPATH=src python tests/golden/regen_golden.py`"
    )
    return json.loads(_regen.BASELINES_PATH.read_text())


def test_fixture_file_covers_exactly_the_baseline_cases(fixtures):
    assert set(fixtures) == {_regen.baseline_key(*case) for case in _regen.BASELINE_CASES}


@pytest.mark.parametrize("engine", ["reference", "batched"])
@pytest.mark.parametrize(
    "case", _regen.BASELINE_CASES, ids=lambda case: _regen.baseline_key(*case)
)
def test_baselines_match_golden(fixtures, case, engine):
    fingerprint = _regen.baseline_fingerprint(*case, engine=engine)
    assert fingerprint == fixtures[_regen.baseline_key(*case)]
