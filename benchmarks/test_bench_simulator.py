"""Microbenchmark of the execution engine: blocks/second by batch size.

Runs the SSAM conv2d kernel on a fixed workload with one-block batches
(``batch_size=1``, the ``scalar`` engine; named "legacy" below after the
per-block loop it replaced) and with memory-budgeted batches
(``batch_size="auto"``, the ``batched`` engine), and reports the
simulated-blocks-per-second throughput of each, so the batching speedup is
tracked in the perf trajectory.  The acceptance bar is a >= 5x speedup of
batched over one-block batches.
"""

import time

import numpy as np

from repro.convolution.spec import ConvolutionSpec
from repro.kernels.conv2d_ssam import ssam_convolve2d
from repro.workloads import random_image

#: fixed workload: 5x5 Gaussian on a 512x256 image (320 blocks at P=4, B=128)
FILTER_SIZE = 5
IMAGE_WIDTH = 512
IMAGE_HEIGHT = 256

_SPEC = ConvolutionSpec.gaussian(FILTER_SIZE)
_IMAGE = random_image(IMAGE_WIDTH, IMAGE_HEIGHT, seed=20190617)


def _run(batch_size):
    return ssam_convolve2d(_IMAGE, _SPEC, "p100", batch_size=batch_size)


def _blocks_per_second(batch_size, repeats=3):
    """Best-of-N throughput of one engine on the fixed workload."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = _run(batch_size)
        best = min(best, time.perf_counter() - start)
    return result.launch.blocks_executed / best, result


def test_bench_batched_engine_blocks_per_second(benchmark):
    """Tracked metric: batched-engine wall time on the fixed conv2d workload."""
    result = benchmark(_run, "auto")
    blocks = result.launch.blocks_executed
    seconds = benchmark.stats.stats.mean
    benchmark.extra_info["blocks_per_second"] = blocks / seconds
    print(f"\nbatched engine: {blocks} blocks, "
          f"{blocks / seconds:,.0f} blocks/s (mean over {benchmark.stats.stats.rounds} rounds)")


def test_bench_batched_vs_legacy_speedup():
    """Acceptance: batched execution is >= 5x faster than one-block batches."""
    legacy_rate, legacy_result = _blocks_per_second(1)
    batched_rate, batched_result = _blocks_per_second("auto")
    speedup = batched_rate / legacy_rate
    print(f"\nlegacy:  {legacy_rate:,.0f} blocks/s")
    print(f"batched: {batched_rate:,.0f} blocks/s")
    print(f"speedup: {speedup:.1f}x")
    # same work was simulated at both batch sizes
    np.testing.assert_array_equal(legacy_result.output, batched_result.output)
    assert legacy_result.launch.counters.as_dict() == batched_result.launch.counters.as_dict()
    assert speedup >= 5.0
