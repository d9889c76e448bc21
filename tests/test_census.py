"""``tools/census.py``: the by-hand census of functions no target enters.

Its one load-bearing assumption is that a definition's key — file and
first line, the first decorator's line when decorated — is the key the
profiler sees, ``code.co_firstlineno``; these tests hold it to that, and
run the tool end to end on tiny targets.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crypto.envelope import Envelope
from repro.net import wire
from repro.net.client import Subscription

ROOT = Path(__file__).resolve().parent.parent
CENSUS = ROOT / "tools" / "census.py"


def load_census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def key(function) -> tuple[str, int]:
    """What the profiler hook records for ``function``."""
    code = function.__code__
    return (
        str(Path(code.co_filename).relative_to(ROOT / "src" / "repro")),
        code.co_firstlineno,
    )


def census(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(CENSUS), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "function, name",
    [
        (Subscription._frame, "Subscription._frame"),
        (Envelope.identity.fget, "Envelope.identity"),  # decorated
        (wire.encode_frame, "encode_frame"),
    ],
)
def test_a_definition_is_keyed_as_the_profiler_sees_it(function, name):
    definitions = {
        (relative, line): qualified
        for relative, line, qualified, _ in load_census().definitions()
    }
    assert definitions[key(function)] == name


def test_a_script_run_records_what_it_entered_and_report_lists_the_rest(
    tmp_path,
):
    script = tmp_path / "target.py"
    script.write_text(
        "from repro.net import wire\n"
        "wire.encode_frame(wire.StatsRequest())\n"
    )
    out = tmp_path / "census" / "target.json"
    ran = census("run", str(out), str(script))
    assert ran.returncode == 0, ran.stderr
    entered = {tuple(record) for record in json.loads(out.read_text())}
    assert key(wire.encode_frame) in entered
    assert key(Subscription._frame) not in entered

    reported = census("report", str(out))
    assert reported.returncode == 0, reported.stderr
    lines = reported.stdout.splitlines()
    relative, line = key(Subscription._frame)
    assert f"{relative}:{line}  Subscription._frame" in "\n".join(lines)
    relative, line = key(wire.encode_frame)
    assert not any(entry.startswith(f"{relative}:{line} ") for entry in lines)
    assert lines[-1].endswith("across 1 runs")


def test_a_module_target_runs_as_main_and_passes_on_its_status(tmp_path):
    (tmp_path / "failing_target.py").write_text(
        "import sys\n"
        "from repro.net import wire\n"
        "if __name__ == '__main__':\n"
        "    wire.encode_frame(wire.StatsRequest())\n"
        "    sys.exit(3)\n"
    )
    out = tmp_path / "module.json"
    ran = census("run", str(out), "-m", "failing_target", cwd=tmp_path)
    assert ran.returncode == 3, ran.stderr
    entered = {tuple(record) for record in json.loads(out.read_text())}
    assert key(wire.encode_frame) in entered


def test_run_without_a_target_is_a_usage_error(tmp_path):
    ran = census("run", str(tmp_path / "none.json"), "-m")
    assert ran.returncode == 2
    assert "run needs a target" in ran.stderr
    assert not (tmp_path / "none.json").exists()
