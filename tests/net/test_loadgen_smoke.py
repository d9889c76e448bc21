"""CI smoke: the CLI verbs really stand up a topology on localhost.

Spawns ``serve-home`` and ``serve-dssp`` as subprocesses on ephemeral
ports, runs a short Zipf load through ``loadgen``, cross-checks the
client-side hit count against the node's live ``stats`` snapshot, checks
that both snapshots carry the fleet's memo table (every memo by name,
within its declared bound, nothing but static names and integers — also
at ``blind`` exposure), and checks for a clean SIGTERM shutdown of both
servers.

Server output goes to temp files rather than pipes: a busy server can
emit more than a pipe buffer's worth of log lines, and nobody is reading
while the load runs.

Set ``REPRO_SMOKE_ARTIFACTS`` to a directory to keep the loadgen report
and the stats snapshots as JSON files (CI uploads them as artifacts).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BANNER = re.compile(r"listening on ([\d.]+):(\d+)")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _spawn(log_path: Path, *arguments: str) -> subprocess.Popen:
    log = open(log_path, "w")
    try:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *arguments],
            stdout=log,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=REPO_ROOT,
            env=_env(),
        )
    finally:
        log.close()


#: Memos that exist once ``repro`` is imported, in any process.
PROCESS_MEMOS = {
    "analysis.binding_constraints",
    "analysis.insert_row",
    "analysis.strip_range",
    "analysis.update_constraints",
    "crypto.key_schedule",
    "templates.bind",
    "wire.query_envelopes",
    "wire.view_results",
}
#: Memos of the codec, which only a key holder builds, and of the master
#: copy's executor.  (The other two storage memos belong to the backend
#: seam; ``serve-home`` on the default memory engine serves the raw
#: database and builds neither.)
HOME_MEMOS = {
    "crypto.seal_query",
    "crypto.open_query",
    "crypto.open_result",
    "storage.plan",
}


def _stats(host: str, port: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, "-m", "repro", "stats", f"{host}:{port}"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=_env(),
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout), done.stdout


def _check_memo_table(snapshot: dict, expected: set[str]) -> None:
    """Every memo reports itself, bounded, as static names and integers."""
    gauges = snapshot["metrics"]["gauges"]
    names = {name[: -len(".limit")] for name in gauges if name.endswith(".limit")}
    assert names == expected  # code constants: no template, parameter or key
    for name in names:
        fields = {f: gauges[f"{name}.{f}"] for f in ("hits", "misses", "size")}
        for field, value in fields.items():
            assert value == int(value) >= 0, (name, field, value)
        assert fields["size"] <= gauges[f"{name}.limit"], name


def _await_banner(process: subprocess.Popen, log_path: Path, timeout_s=30.0):
    """Poll the server's log file until it announces its bound address."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        text = log_path.read_text() if log_path.exists() else ""
        match = BANNER.search(text)
        if match:
            return match.group(1), int(match.group(2))
        if process.poll() is not None:
            raise AssertionError(f"server died; output: {text!r}")
        time.sleep(0.05)
    raise AssertionError(f"no listening banner; output so far: {text!r}")


def _terminate(process: subprocess.Popen, log_path: Path) -> str:
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=15)
    except subprocess.TimeoutExpired:
        process.kill()
        raise
    return log_path.read_text()


# Marked slow centrally: tests/conftest.py::SLOW_NODEID_PREFIXES.
@pytest.mark.parametrize("strategy", ["MVIS", "MBS"])
def test_loadgen_smoke(tmp_path, strategy):
    artifacts = os.environ.get("REPRO_SMOKE_ARTIFACTS")
    artifact_dir = Path(artifacts) / strategy if artifacts else tmp_path
    artifact_dir.mkdir(parents=True, exist_ok=True)
    report_path = artifact_dir / "loadgen_report.json"
    span_dir = artifact_dir / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)

    home_log = tmp_path / "home.log"
    dssp_log = tmp_path / "dssp.log"
    home = _spawn(
        home_log,
        "serve-home", "bookstore", "--scale", "0.05", "--strategy", strategy,
        "--port", "0",
        "--span-log", str(span_dir / "home.spans.jsonl"),
    )
    dssp = None
    try:
        home_host, home_port = _await_banner(home, home_log)
        dssp = _spawn(
            dssp_log,
            "serve-dssp", "bookstore",
            "--home", f"{home_host}:{home_port}", "--port", "0",
            "--span-log", str(span_dir / "dssp-0.spans.jsonl"),
        )
        dssp_host, dssp_port = _await_banner(dssp, dssp_log)

        loadgen = subprocess.run(
            [
                sys.executable, "-m", "repro", "loadgen", "bookstore",
                "--scale", "0.05", "--strategy", strategy,
                "--dssp", f"{dssp_host}:{dssp_port}", "--duration", "2",
                "--report", str(report_path),
                "--span-log", str(span_dir / "client.spans.jsonl"),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=_env(),
            timeout=120,
        )
        assert loadgen.returncode == 0, loadgen.stderr
        match = re.search(r"hits=(\d+)", loadgen.stdout)
        assert match, loadgen.stdout
        client_hits = int(match.group(1))
        assert client_hits > 0, loadgen.stdout
        assert "predict_p90" in loadgen.stdout  # analytic cross-check ran
        assert "p99=" in loadgen.stdout

        # The node's own counters must corroborate the client-side count:
        # loadgen is the only traffic source, so every cache_hit=True
        # response it saw is a hit the node recorded.
        snapshot, snapshot_text = _stats(dssp_host, dssp_port)
        assert snapshot["node_id"] == "dssp-0"
        assert snapshot["role"] == "dssp"
        assert snapshot["dssp"]["stats"]["hits"] == client_hits
        assert snapshot["metrics"]["counters"]["server.requests"] > 0
        (artifact_dir / "stats_snapshot.json").write_text(snapshot_text)
        _check_memo_table(snapshot, PROCESS_MEMOS)
        # Popular queries repeat byte for byte: the DSSP decodes each
        # distinct QUERY payload once.
        assert snapshot["metrics"]["gauges"]["wire.query_envelopes.hits"] > 0
        home_snapshot, home_text = _stats(home_host, home_port)
        (artifact_dir / "home_stats_snapshot.json").write_text(home_text)
        assert home_snapshot["role"] == "home"
        _check_memo_table(home_snapshot, PROCESS_MEMOS | HOME_MEMOS)

        report = json.loads(report_path.read_text())
        assert report["client"]["hits"] == client_hits
        assert report["servers"][0]["dssp"]["stats"]["hits"] == client_hits
        # Tracing rode along: the loadgen report carries the per-phase
        # breakdown, and the span logs of all three processes assemble
        # into a cross-process trace report (kept as a CI artifact).
        assert "phases" in report["client"]
        assert "client.request" in report["client"]["phases"]
        span_logs = sorted(span_dir.glob("*.spans.jsonl"))
        assert len(span_logs) == 3, span_logs
        trace = subprocess.run(
            [
                sys.executable, "-m", "repro", "trace", "--json",
                *map(str, span_logs),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=_env(),
            timeout=60,
        )
        assert trace.returncode == 0, trace.stderr
        trace_report = json.loads(trace.stdout)
        assert trace_report["traces"] > 0
        assert "client" in trace_report["nodes"]
        assert "dssp-0" in trace_report["nodes"]
        (artifact_dir / "trace_report.json").write_text(trace.stdout)
    finally:
        remnants = {}
        for name, process, log_path in (
            ("dssp", dssp, dssp_log), ("home", home, home_log)
        ):
            if process is None:
                continue
            if process.poll() is None:
                remnants[name] = _terminate(process, log_path)
            else:  # died early: surface its output instead of hanging
                remnants[name] = log_path.read_text()

    for name, output in remnants.items():
        assert "clean shutdown" in output, f"{name}: {output!r}"
    assert home.returncode == 0
    assert dssp.returncode == 0
