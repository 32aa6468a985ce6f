"""The ``paper-launch`` workload: paper-scale launches in one process.

The five paper kernels run on their evaluation-scale domains on the full
grid (no block sampling), on the batched and the replay engine.  The cold
pass is the first launch of each (kernel, engine) in a fresh interpreter
started by :mod:`worker` -- replay records and compiles its programs there;
the warm phase repeats every launch.  Every output is checked against the
host reference and the two engines' counters must agree bit for bit.

The seed draws the input arrays and shuffles the launch order only; launch,
block and compile counts never depend on it.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List

from calibrate import Speedometer
from checks import digest

#: the program modules imported before the first launch (set-up time)
IMPORTS = ("repro.baselines.cpu_reference", "repro.kernels.conv1d_ssam",
           "repro.kernels.conv2d_ssam", "repro.kernels.scan_ssam",
           "repro.kernels.stencil2d_ssam", "repro.kernels.stencil3d_ssam")
#: calibration slices before every launch
SLICES_PER_LAUNCH = 2
#: relative/absolute tolerance of a float32 output against the host
#: reference (the kernel tests use the same for scan and conv1d)
TOLERANCE = {"rtol": 1e-4, "atol": 1e-4}


@dataclass
class Round:
    """What one round measured and checked."""

    cold_s: float = 0.0
    warm_s: float = 0.0
    #: per-launch latencies in seconds, the cold pass's first
    latencies: List[float] = field(default_factory=list)
    cold_operations: int = 0
    #: phase -> host speed the calibration slices measured in it
    speed: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: digest of every simulated statistic of the round
    digest: str = ""
    #: exact counts that define the work
    counts: Dict[str, int] = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


#: the five paper kernels at the evaluation-scale domains of Section 6
DOMAINS = {
    "full": {"image": (2048, 2048), "volume": (64, 256, 256),
             "sequence": 1 << 22},
    "tiny": {"image": (96, 128), "volume": (8, 32, 64), "sequence": 1 << 13},
}
ENGINES = ("auto", "replay")


def _kernels(seed: int, scale: str):
    """name -> (run(batch_size) -> KernelRunResult, host reference output)."""
    import numpy as np

    from repro.baselines.cpu_reference import (convolve2d_reference,
                                               scan_reference,
                                               stencil_reference)
    from repro.convolution.spec import ConvolutionSpec
    from repro.kernels.conv1d_ssam import reference_convolve1d, ssam_convolve1d
    from repro.kernels.conv2d_ssam import ssam_convolve2d
    from repro.kernels.scan_ssam import ssam_scan
    from repro.kernels.stencil2d_ssam import ssam_stencil2d
    from repro.kernels.stencil3d_ssam import ssam_stencil3d
    from repro.stencils.catalog import get_stencil

    domains = DOMAINS[scale]
    rng = np.random.default_rng(seed)
    image = rng.random(domains["image"], dtype=np.float32)
    volume = rng.random(domains["volume"], dtype=np.float32)
    sequence = rng.random(domains["sequence"], dtype=np.float32)
    taps = rng.random(7).astype(np.float32)
    gaussian = ConvolutionSpec.gaussian(9)
    s2d, s3d = get_stencil("2d9pt"), get_stencil("3d7pt")
    return {
        "conv2d": (lambda b: ssam_convolve2d(image, gaussian, batch_size=b),
                   lambda: convolve2d_reference(image, gaussian)),
        "stencil2d": (lambda b: ssam_stencil2d(image, s2d, batch_size=b),
                      lambda: stencil_reference(image, s2d)),
        "stencil3d": (lambda b: ssam_stencil3d(volume, s3d, batch_size=b),
                      lambda: stencil_reference(volume, s3d)),
        "conv1d": (lambda b: ssam_convolve1d(sequence, taps, batch_size=b),
                   lambda: reference_convolve1d(sequence, taps)),
        "scan": (lambda b: ssam_scan(sequence, batch_size=b),
                 lambda: scan_reference(sequence)),
    }


def run(seed: int, scale: str, meter: Speedometer) -> Round:
    """The cold pass and the warm phase, checked launch by launch; ``meter``
    runs calibration slices between the launches."""
    import numpy as np

    kernels = _kernels(seed, scale)
    rng = random.Random(seed)
    out = Round()
    statistics: Dict[str, dict] = {}
    references: Dict[str, object] = {}
    blocks = 0

    def record(kernel: str, result) -> dict:
        """What a launch leaves behind: its statistics, an output hash and
        whether the output matches the host reference.  The output itself
        is let go at once, so the resident set does not depend on the
        seed's launch order."""
        if kernel not in references:
            references[kernel] = kernels[kernel][1]()
        return {"statistics": {
                    "counters": result.launch.counters.as_dict(),
                    "milliseconds": result.milliseconds,
                    "blocks": int(result.launch.blocks_executed)},
                "output": hashlib.sha256(result.output.tobytes()).hexdigest(),
                "close": bool(np.allclose(result.output, references[kernel],
                                          **TOLERANCE))}

    def phase(name: str) -> float:
        nonlocal blocks
        pairs = [(kernel, engine) for kernel in kernels for engine in ENGINES]
        rng.shuffle(pairs)
        pending: Dict[str, dict] = {}
        elapsed = 0.0
        since = len(meter.samples)
        for kernel, engine in pairs:
            meter.tick(SLICES_PER_LAUNCH)
            began = time.perf_counter()
            result = kernels[kernel][0](engine)
            took = time.perf_counter() - began
            elapsed += took
            out.latencies.append(took)
            blocks += int(result.launch.blocks_executed)
            done = pending.setdefault(kernel, {})
            done[engine] = record(kernel, result)
            del result
            if len(done) < len(ENGINES):
                continue
            # both engines ran: bit-identical statistics and outputs
            del pending[kernel]
            batched, replay = done["auto"], done["replay"]
            same = (batched["statistics"] == replay["statistics"]
                    and batched["output"] == replay["output"])
            for engine in ENGINES:
                out.check(same and done[engine]["close"])
                statistics[f"{name}:{kernel}:{engine}"] = \
                    done[engine]["statistics"]
        out.speed[name] = meter.speed(since)
        return elapsed

    out.cold_s = phase("cold")
    out.cold_operations = len(out.latencies)
    compiles = _compiled_programs()
    out.warm_s = phase("warm")
    out.digest = digest(statistics)
    out.counts = {"launches": len(out.latencies), "blocks": blocks,
                  "compiles": compiles}
    return out


def _compiled_programs() -> int:
    """Replay programs compiled so far by the paper kernels of this process
    (each kernel keeps its programs in ``_trace_cache``)."""
    import sys

    from repro.gpu.kernel import Kernel

    return sum(
        sum(program is not None
            for program in getattr(value, "_trace_cache", {}).values())
        for name in IMPORTS if name.startswith("repro.kernels.")
        for value in vars(sys.modules[name]).values()
        if isinstance(value, Kernel))

