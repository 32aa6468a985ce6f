"""Machine-speed calibration: slices of fixed work that is not the program.

The host this benchmark runs on changes speed by up to ~2x within a minute
(other tenants share its cores), which is far more than the regressions the
benchmark must see.  So each timed phase is sampled by a
:class:`Speedometer`: between the phase's operations (launches, requests)
it runs short slices of fixed interpreter-bound and NumPy-bound work on
the CPU the program runs on, and the phase's times are reported scaled by
``reference / median slice`` -- seconds on the reference machine, where
one slice takes its ``reference_s`` (see :data:`WORK`).  A slow spell of
the host slows the slices about as much as the program and cancels out; a
slower program does not, because the slices run none of its code.  Slice
time is never counted as phase time, and the times as measured are
printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from typing import List, Optional

import numpy as np

#: the two kinds of slice: ``records`` rounds of dict, string and JSON
#: churn, then ``sweeps`` in-place 5-point stencil sweeps over a ``side`` x
#: ``side`` float32 grid; ``reference_s`` is the CPU seconds one slice takes
#: on the reference machine the reported times refer to (about its median
#: on the 2-vCPU cloud host the benchmark was tuned on).  Each kind follows
#: the host's speed the way its workload does: request handling is mostly
#: interpreter work, paper-scale launches mostly sweeps over large arrays.
WORK = {
    "requests": {"records": 400, "side": 1024, "sweeps": 2,
                 "reference_s": 0.0125},
    "arrays": {"records": 0, "side": 2048, "sweeps": 1,
               "reference_s": 0.019},
}
#: slices run on each side of a process start (set-up time)
SETUP_SLICES = 10


class Speedometer:
    """Runs calibration slices on one CPU and keeps every slice's time."""

    def __init__(self, work: str, cpu: Optional[int] = None) -> None:
        #: the kind of slice, a key of :data:`WORK`
        self.work = WORK[work]
        #: CPU the slices run on (``None``: wherever the caller runs)
        self.cpu = cpu
        #: seconds of every slice so far, in order
        self.samples: List[float] = []
        side = self.work["side"]
        self._grid = np.random.default_rng(0).random((side, side),
                                                     dtype=np.float32)
        self._out = np.empty((side - 2, side - 2), dtype=np.float32)
        self._slice()  # first touch of the buffers is not a sample

    def _slice(self) -> int:
        total = 0
        for i in range(self.work["records"]):
            record = {"run": f"r{i:06d}", "cell": i, "status": "done",
                      "payload": [i, i * 2.5, str(i)]}
            text = json.dumps(record, sort_keys=True)
            total += len(json.loads(text)["run"]) + hash(text) % 7
        grid, out = self._grid, self._out
        for _ in range(self.work["sweeps"]):
            np.add(grid[:-2, 1:-1], grid[2:, 1:-1], out=out)
            out += grid[1:-1, :-2]
            out += grid[1:-1, 2:]
            out *= 0.25
            out += grid[1:-1, 1:-1]
        return total

    def tick(self, slices: int = 1) -> float:
        """Run ``slices`` timed slices; returns the seconds they took."""
        own = None
        if self.cpu is not None:
            own = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self.cpu})
        collecting = gc.isenabled()
        gc.disable()  # a collection of the caller's heap is not slice work
        began = time.perf_counter()
        try:
            for _ in range(slices):
                # CPU time of this thread: a slice the program's own threads
                # preempt (work it defers past a response) is not slowed
                start = time.thread_time()
                self._slice()
                self.samples.append(time.thread_time() - start)
        finally:
            if collecting:
                gc.enable()
            if own is not None:
                os.sched_setaffinity(0, own)
        return time.perf_counter() - began

    def speed(self, since: int = 0) -> float:
        """Host speed relative to the reference over the slices from index
        ``since`` on (above 1: faster than the reference)."""
        return self.work["reference_s"] / statistics.median(
            self.samples[since:])
