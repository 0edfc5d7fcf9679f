"""The invariant linter: rule corpus, suppressions, reporters, self-clean gate.

Every rule has a fixture corpus of at least two known-bad snippets (positive
cases: the rule must fire) and at least one known-good snippet (negative
case: the rule must stay silent).  The final gate lints all of ``src/repro``
and fails with file:line output on any finding — the invariants the rules
encode are *enforced*, not aspirational.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Severity,
    all_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.core import META_RULE_ID
from repro.analysis.rules.rpr002_wall_clock import DETERMINISTIC_DIRS
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

RULE_IDS = ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006")


def findings_for(source: str, path: str = "repro/simulation/somefile.py", rules=None):
    return lint_source(textwrap.dedent(source), path=path, rules=rules)


def rule_ids(findings) -> set[str]:
    return {finding.rule_id for finding in findings}


# --------------------------------------------------------------------- corpus
#
# Each entry: (rule id, path the snippet pretends to live at, source).

POSITIVE_CASES = [
    (
        "RPR001",
        "repro/workloads/bad.py",
        """
        import numpy as np

        def sample(n):
            np.random.seed(0)
            return np.random.normal(size=n)
        """,
    ),
    (
        "RPR001",
        "repro/nhpp/bad.py",
        """
        import random

        def jitter():
            return random.random()
        """,
    ),
    (
        "RPR001",
        "repro/optimization/bad_alias.py",
        """
        from numpy import random as npr

        def draw(n):
            return npr.rand(n)
        """,
    ),
    (
        "RPR002",
        "repro/simulation/bad_clock.py",
        """
        import time

        def step(state):
            state.stamp = time.time()
            return state
        """,
    ),
    (
        "RPR002",
        "repro/nhpp/bad_clock.py",
        """
        import time as _time
        from datetime import datetime

        def plan():
            started = _time.perf_counter()
            return datetime.now(), started
        """,
    ),
    (
        "RPR003",
        "repro/experiments/bad_lambda.py",
        """
        from repro.runtime import EvalTask, run_tasks

        def drive(grid):
            tasks = [EvalTask(build=lambda g=g: g) for g in grid]
            return run_tasks(tasks)
        """,
    ),
    (
        "RPR003",
        "repro/experiments/bad_closure.py",
        """
        from repro.runtime import FunctionTask, run_tasks

        def drive(grid):
            def build_one(g):
                return g

            return run_tasks([FunctionTask(build_one)])
        """,
    ),
    (
        "RPR004",
        "repro/simulation/bad_hot.py",
        """
        from repro.telemetry import get_recorder

        # repro: hot-loop
        def replay(trace):
            recorder = get_recorder()
            for query in trace:
                recorder.inc("engine.queries")
        """,
    ),
    (
        "RPR004",
        "repro/simulation/bad_hot2.py",
        """
        from repro.telemetry import get_recorder

        # repro: hot-loop
        def replay(trace):
            done = 0
            while done < len(trace):
                rec = get_recorder()
                done += 1
            return done
        """,
    ),
    (
        "RPR005",
        "repro/store/bad_except.py",
        """
        def read(path):
            try:
                return path.read_bytes()
            except Exception:
                return None
        """,
    ),
    (
        "RPR005",
        "repro/store/bad_bare.py",
        """
        def read(path):
            try:
                return path.read_bytes()
            except:
                return None
        """,
    ),
    (
        "RPR006",
        "repro/store/bad_namespace.py",
        """
        def persist(store, key, obj):
            store.put("result", key, obj)
        """,
    ),
    (
        "RPR006",
        "repro/telemetry/bad_namespace.py",
        """
        def reap(self):
            return self.store.entries(namespace="telemetries")
        """,
    ),
]

NEGATIVE_CASES = [
    (
        "RPR001",
        "repro/workloads/good.py",
        """
        import numpy as np

        def sample(n, rng: np.random.Generator):
            return rng.normal(size=n)

        def spawn(seed):
            return np.random.default_rng(seed), np.random.SeedSequence(seed)
        """,
    ),
    (
        "RPR002",
        "repro/telemetry/good_clock.py",
        """
        import time

        def stamp():
            return time.perf_counter()
        """,
    ),
    (
        "RPR002",
        "repro/experiments/good_clock.py",
        """
        import time

        def wall():
            return time.time()
        """,
    ),
    (
        "RPR003",
        "repro/experiments/good_tasks.py",
        """
        from repro.runtime import FunctionTask, run_tasks

        def build_one(g):
            return g

        def drive(grid):
            return run_tasks([FunctionTask(build_one) for _ in grid])
        """,
    ),
    (
        "RPR003",
        "repro/experiments/good_on_result.py",
        """
        from repro.runtime import FunctionTask, run_tasks

        def build_one(g):
            return g

        def drive(grid, seen):
            # on_result runs in the submitting process; it never pickles.
            return run_tasks(
                [FunctionTask(build_one) for _ in grid],
                on_result=lambda r: seen.append(r.index),
            )
        """,
    ),
    (
        "RPR004",
        "repro/simulation/good_hot.py",
        """
        from repro.telemetry import get_recorder

        # repro: hot-loop
        def replay(trace):
            recorder = get_recorder()
            served = 0
            for query in trace:
                served += 1
            if recorder.enabled:
                recorder.inc("engine.queries", served)
        """,
    ),
    (
        "RPR004",
        "repro/simulation/good_unmarked.py",
        """
        from repro.telemetry import get_recorder

        def summarize(rows):
            for row in rows:
                get_recorder().inc("rows")
        """,
    ),
    (
        "RPR005",
        "repro/store/good_except.py",
        """
        def read(path):
            try:
                return path.read_bytes()
            except OSError:
                return None
            except BaseException:
                raise
        """,
    ),
    (
        "RPR006",
        "repro/store/good_namespace.py",
        """
        def persist(store, key, obj, mapping):
            store.put("results", key, obj)
            store.entries(namespace="telemetry")
            return mapping.get("free-form-key")
        """,
    ),
]


@pytest.mark.parametrize(
    "rule_id,path,source",
    POSITIVE_CASES,
    ids=[f"{rule}-{Path(path).stem}" for rule, path, _ in POSITIVE_CASES],
)
def test_rule_fires_on_known_bad(rule_id, path, source):
    findings = findings_for(source, path=path)
    assert rule_id in rule_ids(findings), f"expected {rule_id} to fire:\n{findings}"
    for finding in findings:
        assert finding.line > 0 and finding.path == path


@pytest.mark.parametrize(
    "rule_id,path,source",
    NEGATIVE_CASES,
    ids=[f"{rule}-{Path(path).stem}" for rule, path, _ in NEGATIVE_CASES],
)
def test_rule_silent_on_known_good(rule_id, path, source):
    findings = findings_for(source, path=path)
    assert rule_id not in rule_ids(findings), f"unexpected {rule_id}:\n{findings}"


def test_every_rule_has_positive_and_negative_coverage():
    """Adding RPR007 without corpus entries fails here, per the rules README."""
    assert tuple(rule.id for rule in all_rules()) == RULE_IDS
    for rule_id in RULE_IDS:
        positives = [case for case in POSITIVE_CASES if case[0] == rule_id]
        negatives = [case for case in NEGATIVE_CASES if case[0] == rule_id]
        assert len(positives) >= 2, f"{rule_id} needs >=2 positive fixtures"
        assert len(negatives) >= 1, f"{rule_id} needs >=1 negative fixture"


@pytest.mark.parametrize("directory", sorted(DETERMINISTIC_DIRS))
def test_rpr002_covers_existing_deterministic_dirs(directory):
    """Each banned directory is a real package and the rule fires inside it."""
    assert (SRC / directory / "__init__.py").is_file()
    source = "import time\n\ndef stamp():\n    return time.time()\n"
    findings = findings_for(source, path=f"repro/{directory}/stamp.py")
    assert rule_ids(findings) == {"RPR002"}


# --------------------------------------------------------------- suppressions


def test_allow_tag_suppresses_finding():
    source = """
    import time

    def step():
        return time.time()  # repro: allow[RPR002] test fixture reason
    """
    assert findings_for(source) == []


def test_standalone_allow_tag_governs_next_statement():
    source = """
    import time

    def step():
        # repro: allow[RPR002] reason on the line above
        return time.time()
    """
    assert findings_for(source) == []


def test_standalone_allow_tag_skips_comment_block():
    source = """
    import time

    def step():
        # repro: allow[RPR002] reason atop a multi-line comment
        # continuation of the explanation, not a directive
        return time.time()
    """
    assert findings_for(source) == []


def test_allow_tag_only_suppresses_named_rule():
    source = """
    import time

    def step():
        return time.time()  # repro: allow[RPR001] wrong rule id
    """
    assert rule_ids(findings_for(source)) == {"RPR002"}


def test_allow_tag_without_reason_is_an_error():
    source = """
    import time

    def step():
        return time.time()  # repro: allow[RPR002]
    """
    findings = findings_for(source)
    assert META_RULE_ID in rule_ids(findings)
    [meta] = [finding for finding in findings if finding.rule_id == META_RULE_ID]
    assert "reason" in meta.message
    # ...and the reason-less tag must NOT have suppressed the finding.
    assert "RPR002" in rule_ids(findings)


def test_unknown_directive_is_an_error():
    source = """
    def step():
        pass  # repro: alow[RPR002] typo'd directive
    """
    findings = findings_for(source)
    assert rule_ids(findings) == {META_RULE_ID}


def test_malformed_rule_id_is_an_error():
    source = """
    def step():
        pass  # repro: allow[totally-bogus] some reason
    """
    findings = findings_for(source)
    assert rule_ids(findings) == {META_RULE_ID}


def test_meta_findings_cannot_be_suppressed():
    source = """
    def step():
        pass  # repro: allow[RPR000] trying to silence the engine
    """
    findings = findings_for(source)
    assert META_RULE_ID in rule_ids(findings)


def test_syntax_error_reported_as_meta_finding():
    findings = lint_source("def broken(:\n    pass\n", path="repro/bad.py")
    assert [finding.rule_id for finding in findings] == [META_RULE_ID]
    assert findings[0].severity is Severity.ERROR


# ------------------------------------------------------------------ reporters


def test_json_report_schema():
    source = """
    import time

    def step():
        return time.time()
    """
    findings = findings_for(source)
    payload = json.loads(render_json(findings, files_checked=1, rules_run=RULE_IDS))
    assert payload["schema_version"] == 1
    assert payload["files_checked"] == 1
    assert payload["rules_run"] == sorted(RULE_IDS)
    assert payload["ok"] is False
    assert payload["statistics"] == {"RPR002": 1}
    [row] = payload["findings"]
    assert set(row) == {"path", "line", "col", "rule", "severity", "message"}
    assert row["rule"] == "RPR002"
    assert row["severity"] == "error"
    assert row["line"] >= 1


def test_text_report_contains_file_line_and_summary():
    source = """
    import time

    def step():
        return time.time()
    """
    findings = findings_for(source, path="repro/simulation/x.py")
    text = render_text(findings, files_checked=1, show_statistics=True)
    assert "repro/simulation/x.py:5:" in text
    assert "RPR002" in text
    assert "RPR002: 1" in text
    assert "1 error(s)" in text
    clean = render_text([], files_checked=3)
    assert "clean" in clean


def test_rule_selection_runs_only_named_rules():
    source = """
    import time

    def step():
        try:
            return time.time()
        except Exception:
            return None
    """
    only_005 = findings_for(source, rules=["RPR005"])
    assert rule_ids(only_005) == {"RPR005"}


# ------------------------------------------------------------------------ CLI


def test_cli_lint_clean_file_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f() -> int:\n    return 1\n")
    assert cli_main(["lint", str(clean)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_dirty_file_exits_nonzero_with_location(tmp_path, capsys):
    dirty = tmp_path / "repro" / "simulation" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    assert cli_main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert f"{dirty}:5:" in out
    assert "RPR002" in out


def test_cli_lint_json_format(tmp_path, capsys):
    dirty = tmp_path / "repro" / "nhpp" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("import random\n\n\ndef f():\n    return random.random()\n")
    assert cli_main(["lint", str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["statistics"] == {"RPR001": 1}


def test_cli_lint_unknown_rule_exits_two(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert cli_main(["lint", str(clean), "--rule", "RPR999"]) == 2


def test_cli_lint_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out


# -------------------------------------------------------------- self-clean gate


def test_src_repro_is_self_clean():
    """The tier-1 gate: the shipped tree must satisfy its own invariants.

    Deleting any `# repro: allow` tag, or re-introducing a banned call such
    as ``np.random.seed``, makes this test fail with file:line findings.
    """
    findings = lint_paths([SRC])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"repro lint found violations in src/repro:\n{rendered}"


def test_removing_an_allow_tag_breaks_the_gate(tmp_path):
    """Acceptance check: the annotated sites really depend on their tags."""
    artifacts = (SRC / "store" / "artifacts.py").read_text(encoding="utf-8")
    assert "# repro: allow[RPR005]" in artifacts
    stripped = artifacts.replace("# repro: allow[RPR005]", "# reason tag removed", 1)
    copy = tmp_path / "repro" / "store" / "artifacts.py"
    copy.parent.mkdir(parents=True)
    copy.write_text(stripped, encoding="utf-8")
    findings = lint_source(stripped, path=copy)
    assert "RPR005" in rule_ids(findings)


def test_reintroducing_np_random_seed_breaks_the_gate(tmp_path):
    sampling = (SRC / "nhpp" / "sampling.py").read_text(encoding="utf-8")
    poisoned = sampling + "\n\ndef _poison():\n    np.random.seed(0)\n"
    findings = lint_source(poisoned, path="repro/nhpp/sampling.py")
    assert "RPR001" in rule_ids(findings)


def test_both_engines_carry_the_hot_loop_marker():
    for name in ("engine.py", "fastengine.py"):
        source = (SRC / "simulation" / name).read_text(encoding="utf-8")
        assert "# repro: hot-loop" in source, f"{name} lost its hot-loop marker"


# ----------------------------------------------- optional external tool gates


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_check_is_clean():
    result = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_is_clean():
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
