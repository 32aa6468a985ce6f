"""Command-line entry point that regenerates every table and figure.

Installed as the ``ssam-repro`` console script::

    ssam-repro --experiment table1
    ssam-repro --experiment figure4
    ssam-repro --experiment all --quick --jobs 4 --output-dir results
    ssam-repro --experiment sweep --matrix paper   # Section 5 model engine,
                                                   # paper scale, closed form
    ssam-repro --experiment model                  # claims + cross-engine
                                                   # validation error bounds
    ssam-repro --experiment tune                   # Section 7.1 launch-config
                                                   # design-space autotuner

The runner is a thin orchestrator over the structured experiment pipeline:
each experiment contributes independent simulation jobs
(:mod:`repro.experiments.jobs`), the executor shards them across worker
processes and memoises their payloads in the persistent simulation cache
(:mod:`repro.experiments.parallel`, :mod:`repro.experiments.cache`), and
the typed results (:mod:`repro.experiments.results`) are rendered to the
paper's text tables — and optionally saved as JSON artifacts — in a fixed
deterministic order, so the report text is byte-identical for any worker
count or cache state.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence

from . import figure4, figure5, figure6, model_validation, table1, table2, table3
from .cache import SimulationCache, default_cache_dir
from .parallel import execute_jobs, resolve_workers
from .results import ExperimentResult

#: experiment registry, in report order; every module implements the same
#: pipeline surface (jobs / assemble / render)
EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "model": model_validation,
}


def _select(name: str) -> List[str]:
    if name == "all":
        return list(EXPERIMENTS)
    if name not in EXPERIMENTS:
        raise SystemExit(f"unknown experiment {name!r}; choose from "
                         f"{sorted(EXPERIMENTS) + ['all', 'analyze', 'sweep', 'tune']}")
    return [name]


def _sweep_module():
    """The registry-driven sweep engine (imported lazily: it loads every
    kernel and baseline to populate the scenario registry)."""
    from ..scenarios import sweep

    return sweep


def _tuning_module():
    """The launch-configuration autotuner (lazy, like the sweep engine)."""
    from .. import tuning

    return tuning


def _analyze_module():
    """The static kernel verifier (lazy: it populates the registry)."""
    from ..analysis import scenario as analyze

    return analyze


def render_result(name: str, result: ExperimentResult) -> str:
    """Render one experiment result by name (including ``"sweep"``/``"tune"``)."""
    if name == "sweep":
        return _sweep_module().render(result)
    if name == "tune":
        return _tuning_module().render(result)
    if name == "analyze":
        return _analyze_module().render(result)
    return EXPERIMENTS[name].render(result)


def run_experiment_results(name: str = "all", quick: bool = False,
                           jobs: int = 1,
                           cache: Optional[SimulationCache] = None,
                           matrix: Optional[str] = None,
                           tune_stage: str = "full",
                           confirm_engine: str = "batched",
                           search: str = "exhaustive",
                           ) -> Dict[str, ExperimentResult]:
    """Run one or all experiments through the pipeline.

    All selected experiments' jobs are pooled into a single executor pass
    (shared simulations between experiments run once), then each experiment
    assembles its typed result from the keyed payloads.  ``name="sweep"``
    runs the scenario-registry sweep engine instead; ``matrix`` names a
    preset or a JSON matrix file (default ``"smoke"`` under ``--quick``,
    ``"default"`` otherwise).  ``name="tune"`` runs the launch-configuration
    autotuner; ``tune_stage="model"`` stops after the closed-form explore
    stage (the CI smoke path), ``confirm_engine`` picks the simulator the
    confirmation stage runs on (``"batched"`` or ``"replay"``), and
    ``search`` selects the explore strategy (``"exhaustive"`` or the
    budgeted ``"guided"`` local search).
    """
    if name == "sweep":
        sweep = _sweep_module()
        resolved = sweep.load_matrix(
            matrix if matrix is not None else ("smoke" if quick else "default"))
        payloads = execute_jobs(sweep.jobs(resolved), workers=jobs, cache=cache)
        return {"sweep": sweep.assemble(payloads, resolved, quick=quick)}
    if name == "tune":
        tuning = _tuning_module()
        return {"tune": tuning.run_tuning(quick=quick, workers=jobs,
                                          cache=cache,
                                          confirm=tune_stage != "model",
                                          confirm_engine=confirm_engine,
                                          search=search)}
    if name == "analyze":
        analyze = _analyze_module()
        return {"analyze": analyze.run_analyze(quick=quick, workers=jobs,
                                               cache=cache)}
    names = _select(name)
    pending = []
    for key in names:
        pending.extend(EXPERIMENTS[key].jobs(quick))
    payloads = execute_jobs(pending, workers=jobs, cache=cache)
    return {key: EXPERIMENTS[key].assemble(payloads, quick) for key in names}


def run_experiment(name: str, quick: bool = False, jobs: int = 1,
                   cache: Optional[SimulationCache] = None,
                   matrix: Optional[str] = None) -> str:
    """Run one named experiment (or ``"all"``/``"sweep"``); returns the report."""
    results = run_experiment_results(name, quick=quick, jobs=jobs, cache=cache,
                                     matrix=matrix)
    return "\n\n".join(render_result(key, result)
                       for key, result in results.items())


def save_artifacts(results: Dict[str, ExperimentResult],
                   output_dir: str) -> List[str]:
    """Write one JSON artifact per experiment result; returns the paths."""
    return [results[key].save(os.path.join(output_dir, f"{key}.json"))
            for key in results]


def submit_main(argv: Optional[Sequence[str]] = None) -> int:
    """``ssam-repro submit``: client side of the sweep service.

    Submits a sweep (or tune/refresh) to a daemon started with
    ``ssam-repro --experiment serve``, discovered through the
    ``daemon.json`` endpoint file in the shared cache directory (or an
    explicit ``--url``).  ``--wait`` blocks until the run is terminal and
    renders the typed result exactly like the batch CLI would.
    """
    from ..errors import ConfigurationError
    from ..service.client import ServiceClient

    parser = argparse.ArgumentParser(
        prog="ssam-repro submit",
        description="Submit a sweep or tuning run to a running ssam-repro service")
    parser.add_argument("--matrix", default=None, metavar="SPEC",
                        help="sweep matrix preset name or JSON file path "
                             "(a file is read here and sent as an object)")
    parser.add_argument("--tune", action="store_true",
                        help="submit a launch-config tuning run instead of a sweep")
    parser.add_argument("--quick", action="store_true",
                        help="reduced design space (only with --tune)")
    parser.add_argument("--refresh", action="store_true",
                        help="report which cells a code change invalidated "
                             "while re-submitting them")
    parser.add_argument("--priority", type=int, default=0, metavar="N",
                        help="queue priority (lower runs first; default 0)")
    parser.add_argument("--wait", action="store_true",
                        help="block until the run finishes and print the report")
    parser.add_argument("--timeout", type=float, default=600.0, metavar="SEC",
                        help="how long --wait polls before giving up")
    parser.add_argument("--url", default=None, metavar="URL",
                        help="service address (default: discover via the "
                             "daemon.json endpoint file in --cache-dir)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=f"cache directory the daemon was started with "
                             f"(default {default_cache_dir()!r})")
    parser.add_argument("--output-dir", default=None, metavar="DIR",
                        help="with --wait: also save the result as a JSON "
                             "artifact under DIR")
    args = parser.parse_args(argv)
    if args.tune and (args.matrix is not None or args.refresh):
        parser.error("--tune cannot be combined with --matrix/--refresh")
    if args.quick and not args.tune:
        parser.error("--quick requires --tune")
    matrix = args.matrix
    if matrix is not None and matrix not in _sweep_module().MATRICES:
        # the service never opens client-named paths: send the file's object
        try:
            matrix = _sweep_module().load_matrix(matrix)
        except ConfigurationError as exc:
            parser.error(str(exc))
    if args.url is not None:
        client = ServiceClient(args.url)
    else:
        client = ServiceClient.discover(args.cache_dir or default_cache_dir())
    if args.tune:
        run = client.submit_tune({"quick": args.quick},
                                 priority=args.priority)
    elif args.refresh:
        run = client.refresh(matrix, priority=args.priority)
    else:
        run = client.submit_sweep(matrix, priority=args.priority)
    run_id = run["run_id"]
    print(f"submitted {run_id}: {run.get('cached', 0)} cached, "
          f"{run.get('queued', '?')} queued", file=sys.stderr)
    if run.get("refresh"):
        counts = run["refresh"]
        print(f"refresh: {counts['fresh']} fresh, "
              f"{counts['invalidated']} invalidated, "
              f"{counts['missing']} missing", file=sys.stderr)
    if not args.wait:
        print(run_id)
        return 0
    status = client.wait(run_id, timeout=args.timeout)
    if status["status"] != "done":
        print(f"run {run_id} {status['status']}: "
              f"{status.get('failures')}", file=sys.stderr)
        return 1
    result = ExperimentResult.from_dict(client.results(run_id))
    name = "tune" if run["kind"] == "tune" else "sweep"
    print(render_result(name, result))
    if args.output_dir:
        path = result.save(os.path.join(args.output_dir, f"{run_id}.json"))
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _serve(args, workers: int) -> int:
    """``--experiment serve``: run the daemon until interrupted."""
    from ..service.daemon import run_daemon

    cache = SimulationCache(args.cache_dir)
    return run_daemon(cache, host=args.host, port=args.port,
                      threads=workers, processes=args.serve_processes)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "submit":
        return submit_main(argv[1:])
    parser = argparse.ArgumentParser(
        description="Regenerate the SSAM paper's tables and figures on the simulated GPUs")
    parser.add_argument("--experiment", "-e", default="all",
                        choices=sorted(EXPERIMENTS) + ["all", "analyze",
                                                       "sweep", "tune",
                                                       "serve"],
                        help="which table/figure to regenerate, 'analyze' for "
                             "the static kernel verifier over the scenario "
                             "registry, 'sweep' for a scenario-registry "
                             "sweep, 'tune' for the launch-configuration "
                             "autotuner, or 'serve' to run the sweep service "
                             "daemon")
    parser.add_argument("--quick", action="store_true",
                        help="use reduced sweeps for a fast smoke run")
    parser.add_argument("--matrix", default=None, metavar="SPEC",
                        help="sweep matrix: a preset name or a JSON file with "
                             "scenarios/architectures/precisions/engines/sizes "
                             "axes (only with --experiment sweep)")
    parser.add_argument("--tune-stage", default="full",
                        choices=["full", "model"],
                        help="'model' runs the autotuner's exhaustive "
                             "closed-form stage only, skipping the batched "
                             "confirmation (only with --experiment tune)")
    parser.add_argument("--confirm-engine", default="batched",
                        choices=["batched", "replay"],
                        help="engine for the autotuner's confirmation stage: "
                             "the batched simulator or the compiled "
                             "trace-replay engine (identical counters, "
                             "faster; only with --experiment tune)")
    parser.add_argument("--search", default="exhaustive",
                        choices=["exhaustive", "guided"],
                        help="explore-stage search strategy: evaluate every "
                             "valid design point, or the budgeted guided "
                             "local search seeded at the paper default "
                             "(only with --experiment tune)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the simulation jobs "
                             "(0 = all CPUs; default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent simulation cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=f"simulation cache location "
                             f"(default {default_cache_dir()!r})")
    parser.add_argument("--output-dir", default=None, metavar="DIR",
                        help="also save each experiment result as a JSON "
                             "artifact under DIR")
    parser.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                        help="bind address (only with --experiment serve)")
    parser.add_argument("--port", type=int, default=8037, metavar="PORT",
                        help="bind port, 0 for ephemeral (only with "
                             "--experiment serve)")
    parser.add_argument("--serve-processes", action="store_true",
                        help="shard service cells across a process pool "
                             "(only with --experiment serve)")
    args = parser.parse_args(argv)
    try:
        workers = resolve_workers(args.jobs)
    except Exception as exc:
        parser.error(str(exc))
    if args.matrix is not None and args.experiment != "sweep":
        parser.error("--matrix requires --experiment sweep")
    if args.tune_stage != "full" and args.experiment != "tune":
        parser.error("--tune-stage requires --experiment tune")
    if args.confirm_engine != "batched" and args.experiment != "tune":
        parser.error("--confirm-engine requires --experiment tune")
    if args.search != "exhaustive" and args.experiment != "tune":
        parser.error("--search requires --experiment tune")
    if args.experiment == "serve":
        if args.no_cache:
            parser.error("--experiment serve needs the shared store; drop "
                         "--no-cache")
        return _serve(args, workers)
    cache = None if args.no_cache else SimulationCache(args.cache_dir)
    results = run_experiment_results(args.experiment, quick=args.quick,
                                     jobs=workers, cache=cache,
                                     matrix=args.matrix,
                                     tune_stage=args.tune_stage,
                                     confirm_engine=args.confirm_engine,
                                     search=args.search)
    print("\n\n".join(render_result(key, result)
                      for key, result in results.items()))
    if args.output_dir:
        for path in save_artifacts(results, args.output_dir):
            print(f"wrote {path}", file=sys.stderr)
    if cache is not None:
        stats = cache.stats()
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses "
              f"({cache.directory})", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
