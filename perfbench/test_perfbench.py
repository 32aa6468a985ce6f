"""Tests of the benchmark itself: metric sets, failure accounting, digests.

The smoke tests run the benchmark command at ``--scale tiny``; the others
drive the workloads directly, the service against a daemon on a throwaway
store.
"""

from __future__ import annotations

import http.server
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
import checks  # noqa: E402
import paper_launch  # noqa: E402
import service_session  # noqa: E402
import tracer as tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_every_metric_and_no_failures(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0, metric["name"]
        assert f"metric {metric['name']} = " in done.stdout


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("paper-launch", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _session(store: Path, seed: int) -> tuple:
    """A tiny service session against a daemon on ``store``."""
    store.parent.mkdir(parents=True, exist_ok=True)
    daemon = service_session.Daemon(
        service_session.daemon_command(sys.executable, str(store), None),
        dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        str(store.parent / "daemon.log"), deadline=time.perf_counter() + 120)
    try:
        client = service_session.Client(daemon.host, daemon.port)
        record = service_session.run_session(client, seed, "tiny",
                                             calibrate.Speedometer("requests"))
    finally:
        daemon.stop()
    return client, record


def test_planted_wrong_payload_is_a_failure(tmp_path):
    from repro.experiments.cache import SimulationCache
    from repro.experiments.jobs import execute_job
    from repro.scenarios import sweep

    store = tmp_path / "store"
    job = sweep.jobs(service_session.matrices("tiny")[0])[0]
    key, payload = execute_job(job)
    assert payload["case"]["engine"] == "batched"
    payload["oracle_max_abs_error"] = 1.0
    cache = SimulationCache(str(store))
    cache.store(job.cache_key(), payload, job_key=key)
    cache.close()
    client, _ = _session(store, seed=1)
    # the served artifact of that matrix, cold and warm, and its cell stream
    assert client.failed == 1 + 2 * service_session.WARM_PASSES["tiny"]
    assert client.attempted > client.failed


def test_planted_wrong_output_is_a_failure(monkeypatch):
    from repro.kernels import scan_ssam

    scan = scan_ssam.ssam_scan

    def planted(sequence, *args, **kwargs):
        result = scan(sequence, *args, **kwargs)
        if kwargs.get("batch_size") == "replay":
            result.output[0] += 1.0
        return result

    monkeypatch.setattr(scan_ssam, "ssam_scan", planted)
    measured = paper_launch.run(1, "tiny", calibrate.Speedometer("arrays"))
    # both scan launches of the cold and the warm phase
    assert measured.failed == 4
    assert measured.attempted == 20


def _paper_round(out: Path, seed: int) -> dict:
    """One tiny paper-launch round in a fresh interpreter, as run.py runs it."""
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--seed",
                    str(seed), "--scale", "tiny", "--out", str(out)],
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   check=True, capture_output=True, timeout=120)
    return json.loads(out.read_text())


def test_digest_and_counts_do_not_depend_on_the_seed(tmp_path):
    paper = [_paper_round(tmp_path / f"paper{s}.json", s) for s in (1, 2)]
    assert paper[0]["failed"] == paper[1]["failed"] == 0
    assert paper[0]["digest"] == paper[1]["digest"]
    assert paper[0]["counts"] == paper[1]["counts"]
    assert paper[0]["counts"]["compiles"] == 5  # one program per kernel
    service = [_session(tmp_path / str(s) / "store", seed=s) for s in (1, 2)]
    assert all(client.failed == 0 for client, _ in service)
    assert service[0][1]["digest"] == service[1][1]["digest"]
    assert service[0][1]["counts"] == service[1][1]["counts"]
    # 2 scenarios x 3 engines, plus both on the scalar engine
    assert service[0][1]["counts"]["cells"] == 8
    assert service[0][1]["counts"]["blocks"] > 0


def test_service_checks_catch_missing_and_wrong_cells():
    good = {"case": {"engine": "batched", "precision": "float32"},
            "milliseconds": 0.1, "output_digest": "ab",
            "oracle_max_abs_error": 1e-6}
    model = {"case": {"engine": "model", "precision": "float32"},
             "milliseconds": 0.1, "output_digest": None}
    cells = [{"cell": "a", "payload": good}, {"cell": "b", "payload": model}]
    assert checks.cells_ok(cells, 2)
    assert not checks.cells_ok(cells[:1], 2)
    assert not checks.cells_ok(
        [cells[0], {"cell": "b", "payload": dict(good,
                                                 oracle_max_abs_error=0.5)}], 2)
    assert not checks.cells_ok([cells[0], {"cell": "b", "payload": None}], 2)
    row = {"milliseconds": 0.1, "extra": {"engine": "replay",
                                          "precision": "float64",
                                          "output_digest": "cd",
                                          "oracle_max_abs_error": 1e-12}}
    assert checks.sweep_result_ok({"measurements": [row]}, 1)
    assert not checks.sweep_result_ok({"measurements": [row]}, 2)
    wrong = dict(row, extra=dict(row["extra"], oracle_max_abs_error=1e-6))
    assert not checks.sweep_result_ok({"measurements": [wrong]}, 1)


class _Refusing(http.server.BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802
        self.send_response(503)
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = do_POST

    def log_message(self, *args):
        pass


def test_non_2xx_request_is_a_failure():
    server = http.server.HTTPServer(("127.0.0.1", 0), _Refusing)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = service_session.Client(*server.server_address[:2])
        service_session.run_session(client, 1, "tiny",
                                    calibrate.Speedometer("requests"))
        assert client.attempted > 0
        assert client.failed == client.attempted
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return tracer.call("inner", inner, (), {}) + 1

    tracer.call("outer", outer, (), {})
    layers = tracer.summary()["layers"]
    outer_total = layers["outer"]["total_s"]
    assert layers["outer"]["self_s"] == pytest.approx(
        outer_total - layers["inner"]["total_s"])
    assert layers["inner"]["count"] == layers["outer"]["count"] == 1
