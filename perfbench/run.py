"""The repository's benchmark: two workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-launch --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload service-session --seed 1 --seconds 60 --trace 1

Workloads (see BENCHMARK.json for why each was chosen):

* ``paper-launch`` -- the five paper kernels on paper-scale domains, full
  grids, batched and replay engines: first launches, then repeats.
* ``service-session`` -- a sweep daemon child process and one closed-loop
  client: small matrices executed then deduplicated, a guided tune,
  results/cells/best-config/analysis reads.

Every round of a workload runs in a fresh process.  ``--trace 0`` repeats
rounds until ``--seconds`` is spent and reports the medians of the
end-to-end metrics.  Their times are in reference seconds: calibration
slices run between the operations of every phase (see :mod:`calibrate`)
and the phase's times are scaled by the host speed they measured; the
times as measured are printed beside them.  ``--trace 1`` runs one
untraced and one traced round and reports the per-layer metrics of the
traced one (as measured), with the tracing overhead (traced minus
untraced, in reference seconds).  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code
0 means the run completed; failed checks show in ``correct``/``failed``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import service_session  # noqa: E402

#: workload -> the kind of calibration slice that follows its speed
WORKLOADS = {"paper-launch": "arrays", "service-session": "requests"}
#: set-up samples per untraced run (rounds plus set-up-only probes)
SETUP_SAMPLES = {"full": 3, "tiny": 1}
#: a run stops starting rounds past this many seconds, whatever --seconds says
HARD_LIMIT_S = 150.0
#: where a traced run leaves its spans (one JSON file per workload and seed)
TRACES = ROOT / ".perfbench-traces"

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("cold_s", "s"),
              ("warm_s", "s"), ("req_p50_ms", "ms"), ("req_p95_ms", "ms"))

#: span layers reported as ``<layer>_s`` (self time) and ``<layer>.count``
SPAN_LAYERS = (
    "repro.import", "baselines.import", "experiments.code_version",
    "scenarios.jobs", "core.plan", "gpu.scalar", "gpu.batched",
    "trace.replay", "core.model", "trace.record", "trace.compile",
    "trace.run_chunk", "baselines.oracle", "experiments.cache.lookup",
    "experiments.cache.store", "experiments.cache.claim",
    "serialization.stable_digest", "service.store.upsert",
    "service.store.get", "service.store.claim", "service.store.create_run",
    "service.store.set_cell_status", "service.store.run_progress",
    "service.store.list_runs", "tuning.run", "core.performance_model",
    "analysis.analyze")
HTTP_ROUTES = ("health", "sweeps", "run", "results", "cells", "tune",
               "best_config", "analysis")
PER_LAYER = (
    tuple((f"{layer}{suffix}", unit) for layer in SPAN_LAYERS
          for suffix, unit in (("_s", "s"), (".count", "count")))
    + (("service.queue.wait_s", "s"), ("service.queue.wait.count", "count"),
       ("gpu.scalar.blocks_per_s", "1/s"), ("gpu.batched.blocks_per_s", "1/s"),
       ("trace.replay.blocks_per_s", "1/s"),
       ("trace.program_hit_ratio", "ratio"),
       ("trace.counter_memo_hit_ratio", "ratio"),
       ("trace.fallbacks", "count"), ("experiments.cache.hit_ratio", "ratio"))
    + tuple((f"service.http.{route}_ms", "ms") for route in HTTP_ROUTES)
    + (("service.polls_per_request", "count"),
       ("tuning.model_evaluations", "count"),
       ("analysis.served_ratio", "ratio"),
       ("gpu.blocks_simulated", "count"), ("experiments.cells", "count"),
       ("tracing.overhead_cold_s", "s"), ("tracing.overhead_warm_s", "s")))


def split_cpus() -> Tuple[int, Set[int]]:
    """The CPU the program runs on, and the CPUs left to the benchmark.

    The worker or daemon gets the last CPU to itself and the benchmark
    process (the service client among it) the rest, so neither migrates
    between CPUs nor competes with the other.  With one CPU both share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1], set(cpus[:-1]) or set(cpus)


class Run:
    """One benchmark invocation: a scratch directory and its children."""

    def __init__(self, workload: str, seed: int, scale: str,
                 program_cpu: int) -> None:
        self.workload, self.seed, self.scale = workload, seed, scale
        self.program_cpu = program_cpu
        self.work = ROOT / ".perfbench-work" / str(os.getpid())
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.started = time.perf_counter()
        self.started_rounds = 0
        #: calibration slices on the program's CPU, run from this process
        self.meter = calibrate.Speedometer(WORKLOADS[workload], program_cpu)
        self.env = dict(os.environ)
        self.env.pop("SSAM_TUNED_DB", None)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "SSAM_REPRO_CACHE_DIR": str(self.work / "default-cache"),
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"})

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def pin(self) -> None:
        """``preexec_fn`` of every child: run on the program's CPU."""
        os.sched_setaffinity(0, {self.program_cpu})

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _round_dir(self) -> Path:
        self.started_rounds += 1
        path = self.work / f"round-{self.started_rounds}"
        path.mkdir()
        return path

    def round(self, traced: bool = False, setup_only: bool = False) -> dict:
        """One fresh-process round (or set-up probe) of the workload.

        ``speed`` maps each phase (setup, cold, warm) to the host speed its
        calibration slices measured; set-up's slices run just before the
        process starts and just after it is ready.
        """
        directory = self._round_dir()
        since = len(self.meter.samples)
        self.meter.tick(calibrate.SETUP_SLICES)
        if self.workload == "service-session":
            return self._service_round(directory, traced, setup_only, since)
        out = directory / "round.json"
        command = [sys.executable, str(HERE / "worker.py"),
                   "--seed", str(self.seed), "--scale", self.scale,
                   "--out", str(out)]
        if traced:
            command += ["--trace-out", str(self.spans_path())]
        if setup_only:
            command.append("--setup-only")
        log_path = directory / "worker.log"
        with open(log_path, "wb") as log:
            began = time.perf_counter()
            process = subprocess.Popen(command, env=self.env,
                                       stdout=subprocess.PIPE, stderr=log,
                                       preexec_fn=self.pin)
            watchdog = threading.Timer(HARD_LIMIT_S + 25 - self.elapsed(),
                                       process.kill)
            watchdog.start()
            try:
                ready = process.stdout.readline()
                setup_s = time.perf_counter() - began
                process.stdout.read()  # drain, so the child never blocks on it
                process.wait()
            finally:
                watchdog.cancel()
                if process.poll() is None:
                    process.kill()
                    process.wait()
                process.stdout.close()
        if process.returncode != 0 or ready.strip() != b"READY":
            raise RuntimeError(
                f"{self.workload} worker exited {process.returncode}:\n"
                + log_path.read_text(errors="replace")[-3000:])
        result = json.loads(out.read_text())
        self.meter.samples += result.pop("setup_samples")
        result["setup_s"] = setup_s
        result.setdefault("speed", {})["setup"] = self.meter.speed(since)
        if traced:
            result["trace"] = json.loads(self.spans_path().read_text())["summary"]
        return result

    def spans_path(self) -> Path:
        TRACES.mkdir(exist_ok=True)
        return TRACES / f"{self.workload}-seed{self.seed}.json"

    def _service_round(self, directory: Path, traced: bool,
                       setup_only: bool, since: int) -> dict:
        trace_out = str(self.spans_path()) if traced else None
        command = service_session.daemon_command(
            sys.executable, str(directory / "store"), trace_out)
        daemon = service_session.Daemon(
            command, self.env, str(directory / "daemon.log"),
            deadline=self.started + HARD_LIMIT_S, preexec_fn=self.pin)
        client = service_session.Client(daemon.host, daemon.port,
                                        deadline=self.started + HARD_LIMIT_S)
        try:
            self.meter.tick(calibrate.SETUP_SLICES)
            setup = {"setup_s": daemon.setup_s,
                     "speed": {"setup": self.meter.speed(since)}}
            if setup_only:
                return setup
            result = service_session.run_session(client, self.seed,
                                                 self.scale, self.meter)
            result["peak_rss_mb"] = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        result["speed"].update(setup["speed"])
        result.update(setup_s=daemon.setup_s, latencies=client.latencies,
                      attempted=client.attempted, failed=client.failed,
                      route_times={**client.route_times,
                                   "health": [daemon.health_s]},
                      polls=client.polls, submissions=client.submissions)
        if traced:
            result["trace"] = json.loads(Path(trace_out).read_text())["summary"]
        return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(rounds: List[dict], setups: List[dict],
               scaled: bool = True) -> Dict[str, float]:
    """Medians over rounds; p50/p95 over every operation of every round.

    Times are in reference seconds (each phase's times times the host speed
    measured in it), or as measured with ``scaled=False``.
    """
    def time_s(r: dict, phase: str, seconds: float) -> float:
        return seconds * r["speed"][phase] if scaled else seconds

    latencies = [time_s(r, "cold" if i < r["cold_operations"] else "warm", x)
                 for r in rounds for i, x in enumerate(r["latencies"])]
    cuts = statistics.quantiles(latencies, n=20, method="inclusive")
    return {
        "setup_s": statistics.median(time_s(r, "setup", r["setup_s"])
                                     for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "cold_s": statistics.median(time_s(r, "cold", r["cold_s"])
                                    for r in rounds),
        "warm_s": statistics.median(time_s(r, "warm", r["warm_s"])
                                    for r in rounds),
        "req_p50_ms": cuts[9] * 1e3,
        "req_p95_ms": cuts[18] * 1e3,
    }


def per_layer(base: dict, traced: dict) -> Dict[str, float]:
    summary = traced["trace"]
    layers, engines = summary["layers"], summary["engines"]
    counts = summary["counts"]

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: Dict[str, float] = {}
    for name in SPAN_LAYERS:
        metrics[f"{name}_s"] = layer(name, "self_s")
        metrics[f"{name}.count"] = layer(name, "count")
    waits = summary["waits"].get("service.queue.wait", [])
    metrics["service.queue.wait_s"] = statistics.mean(waits) if waits else 0.0
    metrics["service.queue.wait.count"] = len(waits)
    for engine in ("gpu.scalar", "gpu.batched", "trace.replay"):
        entry = engines.get(engine, {})
        metrics[f"{engine}.blocks_per_s"] = ratio(entry.get("blocks", 0),
                                                  entry.get("seconds", 0.0))
    metrics["trace.program_hit_ratio"] = ratio(
        counts.get("trace.program_hit", 0), layer("trace.get_program", "count"))
    metrics["trace.counter_memo_hit_ratio"] = ratio(
        counts.get("trace.counter_memo_hit", 0),
        layer("trace.session", "count"))
    metrics["trace.fallbacks"] = layer("trace.fallback", "count")
    metrics["experiments.cache.hit_ratio"] = ratio(
        counts.get("experiments.cache.hit", 0),
        layer("experiments.cache.lookup", "count"))
    route_times = traced.get("route_times", {})
    for route in HTTP_ROUTES:
        times = route_times.get(route)
        metrics[f"service.http.{route}_ms"] = (
            statistics.median(times) * 1e3 if times else 0.0)
    metrics["service.polls_per_request"] = ratio(traced.get("polls", 0),
                                                 traced.get("submissions", 0))
    metrics["tuning.model_evaluations"] = traced["counts"].get(
        "model_evaluations", 0)
    served = traced.get("analysis_served", [0, 0])
    metrics["analysis.served_ratio"] = ratio(served[1], sum(served))
    metrics["gpu.blocks_simulated"] = sum(
        engine.get("outer_blocks", 0) for engine in engines.values())
    metrics["experiments.cells"] = layer("experiments.execute_job", "count")
    # in reference seconds: the two rounds may run at different host speeds
    for phase in ("cold", "warm"):
        metrics[f"tracing.overhead_{phase}_s"] = (
            traced[f"{phase}_s"] * traced["speed"][phase]
            - base[f"{phase}_s"] * base["speed"][phase])
    return metrics


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def environment(args) -> Dict[str, object]:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if found.returncode == 0:
            sha = found.stdout.strip()
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return {"git_sha": sha, "source_digest": hasher.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
            "poll_interval": (
                f"{service_session.POLL_SECONDS * 1e3:g} ms, or "
                f"{service_session.POLL_FRACTION:.0%} of the time waited, "
                f"at most {service_session.POLL_MAX_SECONDS * 1e3:g} ms")}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="'tiny' shrinks every workload for the smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # a terminated run still stops its children (the finally clauses run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    program_cpu, own_cpus = split_cpus()
    os.sched_setaffinity(0, own_cpus)
    stamp = environment(args)
    stamp["cpus"] = {"program": program_cpu, "benchmark": sorted(own_cpus)}
    print("env " + json.dumps(stamp, sort_keys=True), flush=True)

    run = Run(args.workload, args.seed, args.scale, program_cpu)
    try:
        if args.trace:
            rounds = [run.round(), run.round(traced=True)]
            metrics = per_layer(*rounds)
            names = PER_LAYER
        else:
            rounds = []
            while True:
                began = time.perf_counter()
                rounds.append(run.round())
                took = time.perf_counter() - began
                if (run.elapsed() + took > min(args.seconds, HARD_LIMIT_S)):
                    break
            setups = list(rounds)
            while len(setups) < SETUP_SAMPLES[args.scale]:
                setups.append(run.round(setup_only=True))
            metrics = end_to_end(rounds, setups)
            raw = end_to_end(rounds, setups, scaled=False)
            names = END_TO_END
    finally:
        run.close()

    digests = sorted({r["digest"] for r in rounds})
    counts = [r["counts"] for r in rounds]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for index, r in enumerate(rounds, 1):
        speed = r["speed"]
        print(f"round {index}: setup {r['setup_s']:.3f} s, cold "
              f"{r['cold_s']:.3f} s, warm {r['warm_s']:.3f} s as measured; "
              f"host speed {speed['setup']:.3f} {speed['cold']:.3f} "
              f"{speed['warm']:.3f} of the reference; "
              f"{len(r['latencies'])} operations timed, "
              f"{r['attempted']} checked, {r['failed']} failed")
    print(f"simulated-statistics digest: {' '.join(digests)}")
    if args.trace:
        print(f"spans: {run.spans_path()}")
    print(f"exact counts: {json.dumps(counts[0], sort_keys=True)}")
    for name, unit in names:
        print(f"metric {name} = {metrics[name]:.6g} {unit}"
              + (f" (as measured: {raw[name]:.6g} {unit})"
                 if not args.trace else ""))
    correct = (failed == 0 and len(digests) == 1
               and all(c == counts[0] for c in counts))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # report and exit non-zero, printing no result
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)
