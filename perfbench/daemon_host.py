"""Run the sweep daemon with every layer instrumented.

Started by :mod:`run` in place of ``python -m repro.experiments.runner
--experiment serve ...`` for the traced service-session round; the
arguments after ``--trace-out PATH`` go to the runner unchanged.  On
SIGINT the daemon shuts down as usual and the span summary is written to
``PATH``.
"""

from __future__ import annotations

import sys

import tracer as tracing


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--trace-out":
        print("usage: daemon_host.py --trace-out PATH RUNNER-ARGS...",
              file=sys.stderr)
        return 2
    out, runner_args = sys.argv[2], sys.argv[3:]
    tracer, runner = tracing.start(_import_runner)
    try:
        return runner.main(runner_args)
    finally:
        tracer.dump(out)


def _import_runner():
    from repro.experiments import runner

    return runner


if __name__ == "__main__":
    sys.exit(main())
