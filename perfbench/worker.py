"""One round of the ``paper-launch`` workload, in a fresh interpreter.

Started by :mod:`run`; not meant to be run by hand.  Prints ``READY`` once
the program is imported (the parent times spawn -> ``READY`` as set-up
time) and runs calibration slices for the set-up's speed, then runs the
cold pass and the warm phase and writes the round as JSON to ``--out``
(with ``--setup-only``, just the slices).  With ``--trace-out PATH`` every
layer is instrumented first and the spans are written to ``PATH`` at the
end.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import resource
import sys

import calibrate
import paper_launch


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer, _ = tracing.start(_import_program)
    else:
        _import_program()
    print("READY", flush=True)
    meter = calibrate.Speedometer("arrays")
    meter.tick(calibrate.SETUP_SLICES)
    result = {"setup_samples": list(meter.samples)}
    if not args.setup_only:
        result.update(dataclasses.asdict(
            paper_launch.run(args.seed, args.scale, meter)))
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(args.trace_out)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _import_program() -> None:
    for module in paper_launch.IMPORTS:
        importlib.import_module(module)


if __name__ == "__main__":
    sys.exit(main())
