"""Shared helpers for the SSAM and baseline kernels.

Every kernel wrapper in :mod:`repro.kernels` and :mod:`repro.baselines`
returns a :class:`KernelRunResult` so experiments, examples and tests can
treat implementations interchangeably: the functional output, the launch
(counters + timing model) and the configuration that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..dtypes import Precision
from ..errors import ConfigurationError, SpecificationError
from ..gpu.block import BlockContext
from ..gpu.kernel import LaunchResult
from ..gpu.memory import DeviceBuffer, GlobalMemory


@dataclass
class KernelRunResult:
    """Output + cost of one kernel execution on the simulated GPU.

    Attributes
    ----------
    name:
        Implementation name (e.g. ``"ssam"``, ``"npp_like"``).
    output:
        The functional result, or ``None`` for analytic-only evaluations.
    launch:
        The launch record carrying counters and the timing estimate.
    parameters:
        Free-form configuration echo (filter size, P, B, ...).
    """

    name: str
    output: Optional[np.ndarray]
    launch: LaunchResult
    parameters: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Estimated kernel execution time in seconds."""
        return self.launch.seconds

    @property
    def milliseconds(self) -> float:
        """Estimated kernel execution time in milliseconds."""
        return self.launch.milliseconds

    def gcells_per_second(self, cells: int, iterations: int = 1) -> float:
        """Throughput in giga-cells updated per second (the Figure 5 metric)."""
        if self.seconds <= 0:
            return float("inf")
        return cells * iterations / self.seconds / 1e9

    def gflops(self, flops_per_cell: float, cells: int, iterations: int = 1) -> float:
        """Throughput in GFLOP/s given a per-cell FLOP count."""
        if self.seconds <= 0:
            return float("inf")
        return flops_per_cell * cells * iterations / self.seconds / 1e9


def check_image(image: np.ndarray) -> np.ndarray:
    """Validate a 2-D input image."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise SpecificationError("expected a 2-D image")
    if image.size == 0:
        raise SpecificationError("image must be non-empty")
    return image


def check_grid3d(grid: np.ndarray) -> np.ndarray:
    """Validate a 3-D input grid."""
    grid = np.asarray(grid)
    if grid.ndim != 3:
        raise SpecificationError("expected a 3-D grid")
    if grid.size == 0:
        raise SpecificationError("grid must be non-empty")
    return grid


def load_weights_to_shared(ctx: BlockContext, weights: DeviceBuffer, count: int,
                           name: str = "weights"):
    """Stage ``count`` filter weights from global into shared memory.

    Mirrors lines 7-12 of Listing 1: the block's threads cooperatively copy
    the weights, then synchronise.
    """
    smem = ctx.alloc_shared(name, (count,))
    tid = ctx.thread_idx_x
    for base in range(0, count, ctx.block_threads):
        idx = base + tid
        mask = idx < count
        safe = np.minimum(idx, count - 1)
        values = ctx.load_global(weights, safe, mask=mask)
        ctx.store_shared(smem, safe, values, mask=mask)
    ctx.syncthreads()
    return smem


def broadcast_weight(ctx: BlockContext, smem, flat_index: int) -> np.ndarray:
    """Warp-uniform (broadcast) read of one staged weight.

    The scalar index broadcasts to one lane per thread of every block in
    the batch.
    """
    return ctx.load_shared(smem, np.int64(flat_index))


def clamp(values: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """Clamp indices to a closed range (replicate boundary handling)."""
    return np.clip(values, lower, upper)


def make_device_pair(image: np.ndarray, precision: Precision,
                     memory: Optional[GlobalMemory] = None):
    """Upload an input array and allocate a same-shaped output buffer."""
    memory = memory or GlobalMemory()
    src = memory.to_device(image.astype(precision.numpy_dtype, copy=True), name="src")
    dst = memory.allocate(image.shape, precision, name="dst")
    return memory, src, dst


def require_edge_boundary(boundary: str, implementation: str) -> None:
    """The device kernels implement replicate ('edge') boundaries only."""
    if boundary != "edge":
        raise ConfigurationError(
            f"{implementation} supports the 'edge' (replicate) boundary only; "
            f"got {boundary!r}. Use the spec's reference() for other modes."
        )
