"""HTTP service tests with golden fixtures for the tier1 matrix.

A real daemon (ephemeral port) serves a real :class:`SweepService`; the
thin urllib client drives the submit → status → results lifecycle over
HTTP.  The three lifecycle responses are pinned as committed JSON golden
fixtures (volatile fields — run id, code version — normalised out);
regenerate after an intentional protocol change with::

    SSAM_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_service_daemon.py

The warm-resubmit test is the service's dedup acceptance criterion: a
second submission of the same matrix must be answered 100% from the store,
with nothing queued and nothing executed.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.cache import SimulationCache, code_version
from repro.experiments.results import ExperimentResult
from repro.scenarios.sweep import MATRICES
from repro.service.client import ServiceClient
from repro.service.daemon import serve, write_endpoint_file

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "service"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache = SimulationCache(str(tmp_path_factory.mktemp("service-cache")))
    server, core = serve(cache, port=0, threads=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield client, core, cache, server
    server.shutdown()
    server.server_close()
    core.shutdown()


@pytest.fixture(scope="module")
def tier1_run(service):
    """The cold tier1 submission, run to completion once per module."""
    client, core, cache, _ = service
    assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0}
    submit = client.submit_sweep("tier1")
    status = client.wait(submit["run_id"], timeout=600)
    assert status["status"] == "done"
    return submit, status


def _normalised(payload, run_id: str):
    text = json.dumps(payload, indent=2, sort_keys=True)
    text = text.replace(run_id, "<run-id>")
    text = text.replace(code_version(), "<code-version>")
    return text + "\n"


def _assert_golden(name: str, text: str):
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("SSAM_UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with SSAM_UPDATE_GOLDENS=1")
    assert text == path.read_text(encoding="utf-8"), (
        f"service {name} response drifted from its golden fixture; if the "
        f"protocol change is intentional, regenerate with SSAM_UPDATE_GOLDENS=1")


# ------------------------------------------------------------- goldens

def test_submit_response_matches_golden(tier1_run):
    submit, _ = tier1_run
    _assert_golden("submit", _normalised(submit, submit["run_id"]))


def test_status_response_matches_golden(tier1_run):
    submit, status = tier1_run
    _assert_golden("status", _normalised(status, submit["run_id"]))


def test_results_response_matches_golden(service, tier1_run):
    client, _, _, _ = service
    submit, _ = tier1_run
    results = client.results(submit["run_id"])
    # the full typed artifact round-trips through the HTTP boundary
    assert ExperimentResult.from_dict(results).experiment == "sweep"
    _assert_golden("results", _normalised(results, submit["run_id"]))


# ------------------------------------------------- dedup acceptance

def test_warm_resubmit_is_fully_deduplicated(service, tier1_run):
    client, core, _, _ = service
    submit, _ = tier1_run
    executed_before = core.store.entry_count()
    warm = client.submit_sweep("tier1")
    assert warm["run_id"] != submit["run_id"]
    assert warm["status"] == "done", "a fully cached run finishes at submit"
    assert warm["cached"] == warm["total"] == submit["total"]
    assert warm["queued"] == 0
    assert core.store.entry_count() == executed_before, \
        "a 100%-hit resubmit must not execute (or store) anything"
    # and its results are byte-identical to the cold run's
    assert client.results(warm["run_id"]) == client.results(submit["run_id"])


def test_refresh_classifies_every_cell_fresh_after_a_run(service, tier1_run):
    client, _, _, _ = service
    submit, _ = tier1_run
    refreshed = client.refresh("tier1")
    assert refreshed["refresh"] == {"fresh": submit["total"],
                                    "invalidated": 0, "missing": 0}
    assert refreshed["status"] == "done"


# ------------------------------------------------------- other endpoints

def test_cells_endpoint_streams_one_line_per_cell(service, tier1_run):
    client, _, _, _ = service
    submit, _ = tier1_run
    cells = client.cells(submit["run_id"])
    assert len(cells) == submit["total"]
    assert all(entry["cell"].startswith("sweep:") for entry in cells)
    assert all("milliseconds" in entry["payload"] for entry in cells)


def test_registry_endpoints_mirror_the_in_process_registry(service):
    client, _, _, _ = service
    scenarios = client.scenarios()
    assert {s["name"] for s in scenarios} >= {"conv2d", "scan", "stencil3d"}
    assert all(set(s) >= {"family", "role", "engines", "tunables"}
               for s in scenarios)
    assert set(client.matrices()) == set(MATRICES)
    health = client.health()
    assert health["status"] == "ok"
    assert health["store"]["entries"] > 0


def test_runs_endpoint_lists_every_submission(service, tier1_run):
    client, _, _, _ = service
    submit, _ = tier1_run
    listed = {run["run_id"] for run in client.runs()}
    assert submit["run_id"] in listed


def test_error_responses_are_json(service):
    client, _, _, _ = service
    with pytest.raises(SimulationError, match="unknown run"):
        client.status("sweep-9999-nonexistent")
    with pytest.raises(SimulationError, match="no such endpoint"):
        client._request("GET", "/not-a-thing")
    with pytest.raises(SimulationError, match="unknown sweep matrix"):
        client.submit_sweep("no-such-matrix")


def test_submit_with_unknown_architecture_is_a_400_listing_names(service):
    """A typo'd axis value must be a client error naming the valid values,
    not a silently thinner matrix and not an opaque 500."""
    client, _, _, _ = service
    bad = {"scenarios": "ssam", "architectures": ["a100x"],
           "precisions": ["float32"], "engines": ["batched"],
           "sizes": ["tiny"]}
    with pytest.raises(SimulationError) as excinfo:
        client.submit_sweep(bad)
    message = str(excinfo.value)
    assert "(400)" in message  # ConfigurationError, not an internal error
    assert "unknown architectures" in message and "a100x" in message
    for name in ("a100", "h100", "p100", "v100"):
        assert name in message
    # unknown engines and precisions fail the same way
    with pytest.raises(SimulationError, match=r"\(400\).*unknown engines"):
        client.submit_sweep({"scenarios": "ssam", "engines": ["vector"]})
    with pytest.raises(SimulationError, match=r"\(400\).*float16"):
        client.submit_sweep({"scenarios": "ssam", "precisions": ["float16"]})


def test_endpoint_file_discovery(service, tmp_path):
    client, core, cache, server = service
    path = write_endpoint_file(cache, server)
    try:
        discovered = ServiceClient.discover(cache.directory)
        assert discovered.url == client.url
        assert discovered.health()["status"] == "ok"
    finally:
        os.unlink(path)
    with pytest.raises(ConfigurationError, match="no running service"):
        ServiceClient.discover(str(tmp_path / "empty"))


# ------------------------------------------------------------------ tune

def test_tune_submission_runs_through_the_service_pool(service):
    client, core, _, _ = service
    run = client.submit_tune({"quick": True, "scenarios": ["conv2d"],
                              "confirm_engine": "replay"})
    status = client.wait(run["run_id"], timeout=600)
    assert status["status"] == "done"
    assert status["kind"] == "tune"
    result = ExperimentResult.from_dict(client.results(run["run_id"]))
    assert result.experiment == "tune"
    assert result.measurements, "the tune artifact must carry cells"
    # every design point the tuner evaluated is checkpointed as a run cell
    progress = core.store.run_progress(run["run_id"])
    assert progress["total"] > 0
    assert progress.get("pending", 0) == 0


# -------------------------------------------------------- tuning database

def test_best_config_endpoint_falls_back_to_paper(service):
    """An untuned cell answers with the paper defaults, mirroring the
    planners' resolution chain — never a 404."""
    client, _, _, _ = service
    response = client.best_config("stencil3d", "h100", "float64")
    assert response["source"] == "paper"
    assert response["plan_kwargs"] == {"outputs_per_thread": 4,
                                       "block_threads": 128, "block_rows": 1}
    assert response["code_version"] == code_version()
    assert "tuned" not in response


def test_tune_run_populates_the_best_config_endpoint(service):
    client, core, _, _ = service
    run = client.submit_tune({"quick": True, "scenarios": ["scan"]},
                             search="guided")
    status = client.wait(run["run_id"], timeout=600)
    assert status["status"] == "done"
    result = ExperimentResult.from_dict(client.results(run["run_id"]))
    assert result.metadata["search"] == "guided"

    response = client.best_config("scan", "p100", "float32")
    assert response["source"] == "tuned"
    assert response["size_class"] == "paper"
    tuned = response["tuned"]
    assert tuned["search"] == "guided"
    assert tuned["model_ms"] <= tuned["default_model_ms"]
    # the endpoint serves the exact configuration the tune run found
    (row,) = [m for m in result.measurements
              if m.extra["cell_id"] == "scan:p100:float32"]
    assert response["plan_kwargs"] == row.extra["best_plan_kwargs"]

    index = client.tuned_configs()
    assert index["count"] == core.store.tuned_config_count() > 0
    listed = {(r["scenario"], r["architecture"], r["precision"])
              for r in index["tuned_configs"]}
    assert ("scan", "p100", "float32") in listed


def test_best_config_size_class_is_a_distinct_key(service):
    client, _, _, _ = service
    response = client.best_config("scan", "p100", "float32",
                                  size_class="galactic")
    assert response["source"] == "paper"
    assert response["size_class"] == "galactic"


# ------------------------------------------------- request validation

def _probe(client, path, body):
    """POST ``body`` (a JSON value) on a fresh connection and read until the
    server closes it; returns ``(responses, status, decoded body)``."""
    import socket
    import urllib.parse

    url = urllib.parse.urlparse(client.url)
    payload = json.dumps(body).encode()
    request = (f"POST {path} HTTP/1.1\r\nHost: {url.hostname}\r\n"
               f"Content-Type: application/json\r\n"
               f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
               ).encode() + payload
    with socket.create_connection((url.hostname, url.port), timeout=30) as sock:
        sock.sendall(request)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, text = data.partition(b"\r\n\r\n")
    status = int(head.split()[1]) if head else None
    return data.count(b"HTTP/1.1 "), status, json.loads(text) if text else None


def _assert_healthy(client, core):
    """The daemon still answers and its store is intact."""
    import sqlite3

    assert client.health()["status"] == "ok"
    assert isinstance(client.runs(), list)  # a store read through the daemon
    with sqlite3.connect(core.store.path) as conn:
        assert conn.execute("PRAGMA integrity_check").fetchone() == ("ok",)


@pytest.mark.parametrize("matrix", [3, 4, 5, 6, 7, 8, 2.0, True, ["tier1"]])
def test_non_object_matrix_is_a_400_and_no_descriptor_is_touched(service, matrix):
    """An int matrix once reached ``os.path.isfile``/``open``, which treat it
    as a file descriptor: the daemon read and closed its own sqlite fds."""
    client, core, _, _ = service
    responses, status, body = _probe(client, "/sweeps", {"matrix": matrix})
    assert (responses, status) == (1, 400)
    assert "unknown sweep matrix" in body["error"]
    _assert_healthy(client, core)


def test_matrix_path_is_a_400_and_the_file_is_not_read(service, tmp_path):
    """The daemon never opens a path a client names, even a valid matrix
    file: ``ssam-repro submit --matrix FILE`` reads files client-side."""
    client, core, _, _ = service
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"scenarios": ["scan"], "architectures": ["p100"],
                                "precisions": ["float32"],
                                "engines": ["model"], "sizes": ["tiny"]}))
    runs_before = len(client.runs())
    for matrix in (str(path), "/etc/hostname"):
        responses, status, body = _probe(client, "/sweeps", {"matrix": matrix})
        assert (responses, status) == (1, 400), matrix
        assert "submit --matrix FILE" in body["error"]
    assert len(client.runs()) == runs_before
    _assert_healthy(client, core)


@pytest.mark.parametrize("route", ["/sweeps", "/refresh", "/tune"])
@pytest.mark.parametrize("priority", ["high", "1", 1.5, True, None, [1]])
def test_non_integer_priority_is_a_400(service, route, priority):
    """``int("high")`` once raised out of the handler: the socket closed
    with no response at all."""
    client, core, _, _ = service
    responses, status, body = _probe(client, route,
                                     {"matrix": "smoke", "priority": priority})
    assert (responses, status) == (1, 400)
    assert "priority must be an integer" in body["error"]
    _assert_healthy(client, core)


def test_non_string_run_name_is_a_400(service):
    client, core, _, _ = service
    responses, status, body = _probe(client, "/sweeps",
                                     {"matrix": "smoke", "name": {"a": 1}})
    assert (responses, status) == (1, 400)
    assert "run name must be a string" in body["error"]
    _assert_healthy(client, core)


def test_unexpected_handler_error_is_a_500_json_response(service, monkeypatch,
                                                         capsys):
    """A defect inside a handler is answered, not a dropped connection."""
    import urllib.error
    import urllib.request

    client, core, _, _ = service

    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr(core, "scenario_index", broken)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(client.url + "/scenarios", timeout=30)
    assert excinfo.value.code == 500
    assert "boom" in json.loads(excinfo.value.read())["error"]
    assert "RuntimeError: boom" in capsys.readouterr().err
    monkeypatch.undo()
    _assert_healthy(client, core)
