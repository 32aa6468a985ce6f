"""Kernel objects, launch configuration and grid execution.

A :class:`Kernel` wraps a Python function with the signature
``func(ctx: BlockContext, *args)`` and executes it over the thread blocks of
the launch grid, accumulating :class:`~repro.gpu.counters.KernelCounters`.

Two execution modes are supported:

* **full** — every block runs; the output buffers hold the complete result
  (used by correctness tests and the examples);
* **sampled** — only a representative subset of blocks runs and the counters
  are scaled up; outputs are partial, but the cost estimate is cheap even
  for paper-scale grids (used by the benchmark harness when a closed-form
  traffic profile is not available).

Either mode executes the grid in chunks of ``batch_size`` blocks, each
chunk one vectorized pass through a
:class:`~repro.gpu.block.BlockContext`, with all coalescing / unique-line /
bank-conflict accounting computed by segmented NumPy reductions.
``batch_size="auto"`` (the default) bounds a chunk by a memory budget;
``batch_size=1`` runs one block per chunk.  Outputs and counters are
bit-identical for every chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..dtypes import Precision, resolve_precision
from ..errors import ConfigurationError, LaunchError
from .architecture import GPUArchitecture, get_architecture
from .block import BlockContext
from .counters import KernelCounters
from .occupancy import OccupancyResult, compute_occupancy
from .profiler import TimingBreakdown, estimate_time

#: default per-batch memory budget of the ``batch_size="auto"`` heuristic
DEFAULT_BATCH_MEMORY_BYTES = 128 * 1024 * 1024
#: hard cap on blocks per batch (keeps peak temporaries bounded even for
#: tiny block sizes)
MAX_AUTO_BATCH_BLOCKS = 4096


def auto_batch_size(config: "LaunchConfig",
                    memory_budget_bytes: int = DEFAULT_BATCH_MEMORY_BYTES) -> int:
    """Blocks per batch chosen so a batch's working set fits a memory budget.

    The per-block footprint is estimated from the launch configuration: each
    live register vector costs ``block_threads`` elements (counted at the
    declared ``registers_per_thread``, 8 bytes each to cover float64 and the
    int64 index/line temporaries), plus the block's declared shared memory
    (allocated once per block of the batch) and a flat allowance for the
    traffic tracker's per-access line matrices.
    """
    bytes_per_vector = 8  # int64 indices / float64 registers dominate
    registers = max(8, int(config.registers_per_thread))
    per_block = (config.block_threads * (registers * bytes_per_vector + 64)
                 + int(config.shared_bytes_per_block))
    blocks = max(1, int(memory_budget_bytes) // max(1, per_block))
    return int(min(blocks, MAX_AUTO_BATCH_BLOCKS))


def _resolve_batch_size(batch_size: Union[int, str, None], config: "LaunchConfig",
                        total_blocks: int) -> int:
    if batch_size is None or batch_size == "auto":
        resolved = auto_batch_size(config)
    elif isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer)):
        raise LaunchError(f"batch_size must be a positive int or 'auto', got {batch_size!r}")
    else:
        resolved = int(batch_size)
        if resolved < 1:
            raise LaunchError("batch_size must be >= 1")
    return max(1, min(resolved, max(1, total_blocks)))


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block geometry plus the static resources of one kernel launch."""

    grid_dim: Tuple[int, int, int]
    block_threads: int
    registers_per_thread: int = 32
    shared_bytes_per_block: int = 0
    precision: Precision = field(default_factory=lambda: resolve_precision("float32"))
    #: independent outstanding memory accesses per thread (ILP hint used by
    #: the latency-attainment model; register-cache kernels have high MLP).
    memory_parallelism: float = 4.0

    def __post_init__(self) -> None:
        gx, gy, gz = self.grid_dim
        if min(gx, gy, gz) <= 0:
            raise ConfigurationError(f"grid dimensions must be positive, got {self.grid_dim}")
        if self.block_threads <= 0:
            raise ConfigurationError("block size must be positive")

    @property
    def total_blocks(self) -> int:
        gx, gy, gz = self.grid_dim
        return gx * gy * gz

    @property
    def total_threads(self) -> int:
        return self.total_blocks * self.block_threads

    def with_precision(self, precision: object) -> "LaunchConfig":
        """Copy of this configuration at a different precision."""
        return replace(self, precision=resolve_precision(precision))

    def to_dict(self) -> dict:
        """JSON-serialisable description (cache keys, result artifacts)."""
        return {
            "grid_dim": list(self.grid_dim),
            "block_threads": self.block_threads,
            "registers_per_thread": self.registers_per_thread,
            "shared_bytes_per_block": self.shared_bytes_per_block,
            "precision": self.precision.name,
            "memory_parallelism": self.memory_parallelism,
        }

    def fingerprint(self) -> str:
        """Stable content hash of this launch configuration."""
        from ..serialization import stable_digest

        return stable_digest(self.to_dict())


@dataclass
class LaunchResult:
    """Everything produced by one (simulated) kernel launch."""

    kernel_name: str
    config: LaunchConfig
    architecture: GPUArchitecture
    counters: KernelCounters
    blocks_executed: int
    sampled: bool
    sample_fraction: float

    _timing: Optional[TimingBreakdown] = None
    _occupancy: Optional[OccupancyResult] = None

    @property
    def occupancy(self) -> OccupancyResult:
        """Occupancy of this launch on the target architecture."""
        if self._occupancy is None:
            self._occupancy = compute_occupancy(
                self.architecture,
                self.config.block_threads,
                self.config.registers_per_thread,
                self.config.shared_bytes_per_block,
            )
        return self._occupancy

    @property
    def timing(self) -> TimingBreakdown:
        """Estimated execution time breakdown from the analytical model."""
        if self._timing is None:
            self._timing = estimate_time(
                self.counters,
                self.architecture,
                precision=self.config.precision,
                occupancy=self.occupancy,
                memory_parallelism=self.config.memory_parallelism,
            )
        return self._timing

    @property
    def seconds(self) -> float:
        """Estimated kernel time in seconds."""
        return self.timing.total_seconds

    @property
    def milliseconds(self) -> float:
        """Estimated kernel time in milliseconds."""
        return self.seconds * 1e3

    def merged_with(self, other: "LaunchResult") -> "LaunchResult":
        """Combine two launches (e.g. repeated stencil iterations)."""
        merged = KernelCounters()
        merged.merge(self.counters)
        merged.merge(other.counters)
        return LaunchResult(
            kernel_name=self.kernel_name,
            config=self.config,
            architecture=self.architecture,
            counters=merged,
            blocks_executed=self.blocks_executed + other.blocks_executed,
            sampled=self.sampled or other.sampled,
            sample_fraction=self.sample_fraction,
        )


class Kernel:
    """A simulated CUDA kernel."""

    def __init__(self, func: Callable[..., None], name: Optional[str] = None) -> None:
        self.func = func
        self.name = name or getattr(func, "__name__", "kernel")
        #: compiled replay programs keyed by (arch, plan, precision, args)
        self._trace_cache: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Kernel({self.name})"

    def launch(
        self,
        config: LaunchConfig,
        args: Sequence[object],
        architecture: object = "p100",
        max_blocks: Optional[int] = None,
        count_traffic: bool = True,
        batch_size: Union[int, str, None] = "auto",
    ) -> LaunchResult:
        """Execute the kernel over the launch grid.

        Parameters
        ----------
        config:
            Grid/block geometry and resource usage.
        args:
            Positional arguments forwarded to the kernel function after the
            block context.
        architecture:
            Architecture preset name or instance.
        max_blocks:
            If given and smaller than the grid, only a uniformly spaced
            sample of blocks is executed and the counters are scaled to the
            full grid (outputs are then incomplete).
        count_traffic:
            Disable per-block unique-line DRAM accounting (faster) when the
            caller supplies traffic analytically.
        batch_size:
            Blocks executed per vectorized batch.  ``"auto"`` (default)
            bounds the batch by a memory budget (:func:`auto_batch_size`);
            any positive int fixes it (``1`` runs one block per batch);
            results and counters do not depend on it.  ``"replay"`` records the
            kernel body once as a dataflow trace and executes subsequent
            chunks through the compiled replay engine
            (:mod:`repro.trace.replay`), bit-identical to ``"auto"``.
        """
        if batch_size == "replay":
            from ..trace.replay import replay_launch

            return replay_launch(self, config, args, architecture=architecture,
                                 max_blocks=max_blocks,
                                 count_traffic=count_traffic)
        arch = get_architecture(architecture)
        if config.block_threads % arch.warp_size != 0:
            raise LaunchError(
                f"block size {config.block_threads} is not a multiple of warp size "
                f"{arch.warp_size}"
            )
        counters = KernelCounters()
        gx, gy, _ = config.grid_dim
        total_blocks = config.total_blocks
        # linear block order: x fastest, then y, then z
        order = np.arange(total_blocks, dtype=np.int64)
        sampled = False
        if max_blocks is not None and max_blocks < total_blocks:
            stride = max(1, total_blocks // max_blocks)
            order = order[::stride][:max_blocks]
            sampled = True
        index_matrix = np.stack([order % gx, (order // gx) % gy,
                                 order // (gx * gy)], axis=1)
        chunk = _resolve_batch_size(batch_size, config, len(order))
        executed = 0
        for start in range(0, index_matrix.shape[0], chunk):
            batch = index_matrix[start:start + chunk]
            ctx = BlockContext(
                block_indices=batch,
                grid_dim=config.grid_dim,
                block_threads=config.block_threads,
                architecture=arch,
                counters=counters,
                precision=config.precision,
                count_traffic=count_traffic,
            )
            self.func(ctx, *args)
            ctx.finalize()
            executed += int(batch.shape[0])
        sample_fraction = executed / total_blocks if total_blocks else 1.0
        if sampled and sample_fraction > 0:
            counters = counters.scaled(1.0 / sample_fraction)
        return LaunchResult(
            kernel_name=self.name,
            config=config,
            architecture=arch,
            counters=counters,
            blocks_executed=executed,
            sampled=sampled,
            sample_fraction=sample_fraction,
        )


def kernel(func: Callable[..., None]) -> Kernel:
    """Decorator turning a block function into a :class:`Kernel`."""
    return Kernel(func)


def grid_1d(total_items: int, items_per_block: int) -> Tuple[int, int, int]:
    """1-D grid covering ``total_items`` with ``items_per_block`` per block."""
    if items_per_block <= 0:
        raise ConfigurationError("items_per_block must be positive")
    return (math.ceil(total_items / items_per_block), 1, 1)


def grid_2d(items_x: int, per_block_x: int, items_y: int, per_block_y: int) -> Tuple[int, int, int]:
    """2-D grid covering an ``items_x`` x ``items_y`` domain."""
    if per_block_x <= 0 or per_block_y <= 0:
        raise ConfigurationError("per-block extents must be positive")
    return (math.ceil(items_x / per_block_x), math.ceil(items_y / per_block_y), 1)
