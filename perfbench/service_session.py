"""The ``service-session`` workload: one closed-loop client of the daemon.

The daemon runs as a child process (``--experiment serve --port 0
--jobs 1``); this process is its only client and holds one connection at a
time.  Completion is detected by polling ``GET /runs/<id>`` every
:data:`POLL_SECONDS`, not through ``ServiceClient.wait``, whose 100 ms poll
would round every latency to its grid.

Every matrix holds one scenario on one architecture at tiny size on the
batched, replay and model engines; one more matrix runs every scenario on
one architecture on the per-block scalar engine, so that engine is measured
too without making the session about it.  Cold phase: every matrix once
(each executes), one guided model-stage tune, then the static analysis of
every scenario (computed).  Warm phase: every matrix again (each is
deduplicated against the store) with its cell stream and tuned-config
lookup, then every analysis again (served from the store), repeated
:data:`WARM_PASSES` times.

Standard library only (the calibration slices aside): the client does no
numeric work.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import threading
import time
import urllib.parse
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from calibrate import Speedometer
from checks import cells_ok, digest, sweep_result_ok, sweep_statistics

#: seconds between two run-status polls: 2 ms, or 2% of the time waited so
#: far once that is longer (a multi-second tune is not polled every 2 ms),
#: at most 50 ms -- always far finer than the latencies it bounds
POLL_SECONDS = 0.002
POLL_FRACTION = 0.02
POLL_MAX_SECONDS = 0.05
#: the scenarios and architectures of the CLI ``tier1`` matrix; every pair
#: is one small matrix
SCENARIOS = {
    "full": ("conv1d", "conv2d", "stencil2d", "stencil3d", "scan",
             "stencil2d-order4", "stencil2d-order6", "stencil2d-varcoef",
             "stencil2d-masked", "conv2d-pipeline"),
    "tiny": ("conv2d", "scan"),
}
ARCHITECTURES = {"full": ("p100", "v100", "a100", "h100"), "tiny": ("p100",)}
ENGINES = ("batched", "replay", "model")
WARM_PASSES = {"full": 3, "tiny": 1}
#: the tune the session submits: guided search over the reduced design
#: space, model stage only (the full space makes a multi-second tune whose
#: time swings with thread scheduling in the daemon)
_TUNE = {"search": "guided", "confirm": False, "quick": True}
TUNE_OPTIONS = {"full": _TUNE,
                "tiny": dict(_TUNE, scenarios=["conv2d"],
                             architectures=["p100"], precisions=["float32"])}
#: a request that takes longer than this is a failed request
REQUEST_TIMEOUT = 60.0


def matrices(scale: str) -> List[dict]:
    """One small sweep matrix per (scenario, architecture), and the scalar
    matrix: every scenario on the first architecture."""
    cell = {"precisions": ["float32"], "sizes": ["tiny"]}
    scalar = {"name": "scalar", "scenarios": list(SCENARIOS[scale]),
              "architectures": list(ARCHITECTURES[scale][:1]),
              "engines": ["scalar"], **cell}
    return [{"name": f"{scenario}-{arch}", "scenarios": [scenario],
             "architectures": [arch], "engines": list(ENGINES), **cell}
            for scenario in SCENARIOS[scale]
            for arch in ARCHITECTURES[scale]] + [scalar]


class Client:
    """Closed-loop HTTP client that times and checks every request."""

    def __init__(self, host: str, port: int,
                 deadline: float = float("inf")) -> None:
        self.host, self.port = host, port
        #: ``perf_counter`` time after which the session gives up
        self.deadline = deadline
        #: route -> round-trip seconds of every request
        self.route_times: Dict[str, List[float]] = defaultdict(list)
        #: logical request (submission to artifact, or one read) -> seconds
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.polls = 0
        self.submissions = 0

    def request(self, route: str, method: str, path: str,
                body: Optional[dict] = None):
        """One timed request on a fresh connection: the decoded body, or
        ``None`` for a non-2xx answer or a broken connection."""
        if time.perf_counter() > self.deadline:
            raise RuntimeError("service session ran past its deadline")
        data = None if body is None else json.dumps(body).encode("utf-8")
        began = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT)
        try:
            conn.request(method, path, body=data,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            status = response.status
        except OSError:
            status, raw = 0, b""
        finally:
            conn.close()
        self.route_times[route].append(time.perf_counter() - began)
        if not 200 <= status < 300:
            return None
        if route == "cells":
            return [json.loads(line) for line in raw.splitlines()
                    if line.strip()]
        return json.loads(raw.decode("utf-8"))

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def read(self, route: str, path: str):
        """A timed, checked read; returns the body or ``None``."""
        began = time.perf_counter()
        body = self.request(route, "GET", path)
        self.latencies.append(time.perf_counter() - began)
        return body

    def submit(self, route: str, body: dict) -> Tuple[Optional[dict], Optional[dict]]:
        """POST, poll until terminal, fetch the artifact: (submission, result).

        The whole exchange is one logical request; either part is ``None``
        when a request failed or the run did not end ``done``.
        """
        began = time.perf_counter()
        self.submissions += 1
        submitted = self.request(route, "POST", f"/{route}", body)
        result = None
        if submitted is not None:
            run = f"/runs/{submitted['run_id']}"
            deadline = began + REQUEST_TIMEOUT
            while True:
                status = self.request("run", "GET", run)
                if status is None or status.get("status") in ("done", "failed"):
                    break
                if time.perf_counter() > deadline:
                    status = None
                    break
                self.polls += 1
                waited = time.perf_counter() - began
                time.sleep(min(POLL_MAX_SECONDS,
                               max(POLL_SECONDS, POLL_FRACTION * waited)))
            if status is not None and status.get("status") == "done":
                result = self.request("results", "GET", f"{run}/results")
        self.latencies.append(time.perf_counter() - began)
        return submitted, result


def run_session(client: Client, seed: int, scale: str,
                meter: Speedometer) -> dict:
    """Both phases against a running daemon; returns the round's record.

    ``meter`` runs a calibration slice before every submission and every
    group of analysis reads; slice time is left out of the phase times.
    """
    rng = random.Random(seed)
    statistics: Dict[str, object] = {}
    scenarios = list(SCENARIOS[scale])
    #: analysis reads answered by computing, by the store
    served = [0, 0]
    sliced = 0.0

    def tick() -> None:
        nonlocal sliced
        sliced += meter.tick()

    def analysis() -> None:
        tick()
        rng.shuffle(scenarios)
        for scenario in scenarios:
            body = client.read("analysis", f"/analysis/{scenario}")
            client.check(body is not None
                         and body.get("source") in ("store", "computed"))
            if body is not None:
                served[body.get("source") == "store"] += 1
                statistics[f"analysis:{scenario}"] = body["analysis"]

    start, since = time.perf_counter(), len(meter.samples)
    order = matrices(scale)
    rng.shuffle(order)
    executed = blocks = 0
    for matrix in order:
        tick()
        submitted, result = client.submit("sweeps", {"matrix": matrix})
        ok = result is not None and sweep_result_ok(result, submitted["total"])
        client.check(ok)
        if ok:
            statistics[matrix["name"]] = sweep_statistics(result)
            rows = result["measurements"]
            executed += len(rows)
            blocks += sum(int((row.get("counters") or {}).get(
                "blocks_executed", 0)) for row in rows)
    tick()
    _, tuned = client.submit("tune", {"options": TUNE_OPTIONS[scale]})
    evaluations = 0
    client.check(tuned is not None and bool(tuned.get("measurements")))
    if tuned is not None:
        evaluations = tuned["metadata"]["evaluations"]["evaluated"]
        statistics["tune"] = [
            {k: row["extra"].get(k) for k in
             ("cell_id", "best_plan_kwargs", "best_model_ms",
              "default_model_ms")}
            for row in tuned["measurements"]]
    analysis()
    cold_s = time.perf_counter() - start - sliced
    speed = {"cold": meter.speed(since)}
    cold_operations = len(client.latencies)

    start, since, sliced = time.perf_counter(), len(meter.samples), 0.0
    for _ in range(WARM_PASSES[scale]):
        rng.shuffle(order)
        for matrix in order:
            tick()
            submitted, result = client.submit("sweeps", {"matrix": matrix})
            ok = (result is not None
                  and sweep_result_ok(result, submitted["total"])
                  and sweep_statistics(result) == statistics.get(matrix["name"]))
            client.check(ok)
            if submitted is None:
                continue
            cells = client.read("cells", f"/runs/{submitted['run_id']}/cells")
            client.check(cells is not None
                         and cells_ok(cells, submitted["total"]))
            scenario, arch = matrix["scenarios"][0], matrix["architectures"][0]
            config = client.read(
                "best_config", f"/best_config/{scenario}/{arch}/float32?"
                + urllib.parse.urlencode({"size_class": "paper"}))
            client.check(config is not None
                         and config.get("source") in ("tuned", "paper"))
        analysis()
    warm_s = time.perf_counter() - start - sliced
    speed["warm"] = meter.speed(since)
    return {"cold_s": cold_s, "warm_s": warm_s, "speed": speed,
            "cold_operations": cold_operations,
            "digest": digest(statistics),
            "counts": {"cells": executed, "blocks": blocks,
                       "model_evaluations": evaluations},
            "analysis_served": served}


# ---------------------------------------------------------------------------
# the daemon process
# ---------------------------------------------------------------------------

def daemon_command(python: str, store_dir: str,
                   trace_out: Optional[str]) -> List[str]:
    serve = ["--experiment", "serve", "--port", "0", "--jobs", "1",
             "--cache-dir", store_dir]
    if trace_out is None:
        return [python, "-m", "repro.experiments.runner", *serve]
    host = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "daemon_host.py")
    return [python, host, "--trace-out", trace_out, *serve]


class Daemon:
    """A daemon child process; ``setup_s`` is spawn -> first ``/health`` 200."""

    def __init__(self, command: List[str], env: dict, log_path: str,
                 deadline: float, preexec_fn=None) -> None:
        self._log = open(log_path, "ab")
        began = time.perf_counter()
        self.process = subprocess.Popen(command, env=env,
                                        stdout=subprocess.PIPE,
                                        stderr=self._log,
                                        preexec_fn=preexec_fn)
        watchdog = threading.Timer(max(0.0, deadline - began),
                                   self.process.kill)
        watchdog.start()
        try:
            self._await_health(deadline)
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - began

    def _await_health(self, deadline: float) -> None:
        line = self.process.stdout.readline().decode("utf-8", "replace")
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line.strip()!r}")
        address = line.split("http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)
        while True:
            polled = time.perf_counter()
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/health")
                if conn.getresponse().status == 200:
                    #: round trip of the first successful health check
                    self.health_s = time.perf_counter() - polled
                    break
            except OSError:
                pass
            finally:
                conn.close()
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("daemon never answered /health")
            time.sleep(POLL_SECONDS)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then wait; kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
