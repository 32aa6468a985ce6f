"""The SIMT programming surface kernels are written against.

A :class:`BlockContext` executes a batch of CUDA thread blocks as one
vectorised pass.  Kernels are ordinary Python functions
``kernel(ctx, *args)`` in which every "per-thread" value is a NumPy array of
shape ``(num_blocks, block_threads)`` (structure-of-arrays with a leading
block axis) and the block indices are ``(num_blocks, 1)`` columns, so
per-block scalars broadcast along the block axis.
:meth:`~repro.gpu.kernel.Kernel.launch` runs the grid in chunks of
``batch_size`` blocks; ``batch_size=1`` is the same context holding one
block per chunk.  The context provides

* thread/block/lane indices,
* counted global-memory loads and stores: per-warp coalescing sectors from
  one sorted unique-count pass over a ``(blocks * warps, warp_size)`` line
  matrix (:func:`~repro.gpu.memory.rowwise_unique_counts`) and per-block
  unique-line DRAM reads (:class:`~repro.gpu.memory.BatchedTrafficTracker`),
* counted shared-memory allocation and access, with bank conflicts and
  broadcasts from one ``bincount`` over ``(warp, bank)`` pairs
  (:func:`~repro.gpu.shared_memory.bank_conflict_profile`),
* warp shuffles restricted to 32-lane groups, and
* counted arithmetic intrinsics (``mad``, ``add``, ``mul``) so the timing
  model sees the same instruction mix the GPU would execute.

Scatters flatten the batch in block order, so when two blocks store to the
same location the higher block index wins, whatever the chunk size.

Using the intrinsics is what makes a kernel's cost observable; plain NumPy
arithmetic still computes correctly but is invisible to the profiler, so the
library's kernels always go through the intrinsics.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..dtypes import Precision, resolve_precision
from ..errors import SimulationError
from . import warp as warp_ops
from .architecture import GPUArchitecture
from .check import active_race_checker
from .counters import KernelCounters
from .memory import (
    BatchedTrafficTracker,
    DeviceBuffer,
    coalesced_transactions_matrix,
    rowwise_unique_counts,
)
from .shared_memory import SharedArray, SharedMemory, bank_conflict_profile
from .simt import grouped_warp_counts


class BlockContext:
    """Execution context of a batch of thread blocks on the simulated GPU.

    Register vectors are ``(num_blocks, block_threads)`` arrays,
    ``block_idx_x/y/z`` are ``(num_blocks, 1)`` columns and every
    index/mask argument may be anything broadcastable to the register shape.
    """

    def __init__(
        self,
        block_indices: np.ndarray,
        grid_dim: Tuple[int, int, int],
        block_threads: int,
        architecture: GPUArchitecture,
        counters: KernelCounters,
        precision: Precision,
        count_traffic: bool = True,
    ) -> None:
        block_indices = np.asarray(block_indices, dtype=np.int64)
        if block_indices.ndim != 2 or block_indices.shape[1] != 3:
            raise SimulationError("block_indices must have shape (num_blocks, 3)")
        self.block_indices = block_indices
        self.num_blocks = int(block_indices.shape[0])
        self.grid_dim = grid_dim
        self.block_threads = int(block_threads)
        self.architecture = architecture
        self.counters = counters
        self.precision = precision
        self.warp_size = architecture.warp_size
        if self.block_threads % self.warp_size != 0:
            raise SimulationError(
                f"block size {self.block_threads} must be a multiple of the warp size"
            )
        self.num_warps = self.block_threads // self.warp_size
        self.shared = SharedMemory(self.num_blocks,
                                   architecture.shared_memory_per_block,
                                   architecture.shared_memory_banks,
                                   architecture.shared_memory_bank_bytes)
        self._traffic = (BatchedTrafficTracker(self.num_blocks,
                                               architecture.cache_line_bytes)
                         if count_traffic else None)
        self._thread_idx = np.arange(self.block_threads, dtype=np.int64)
        self._register_shape = (self.num_blocks, self.block_threads)
        self._issue_warps = self.num_blocks * self.num_warps
        checker = active_race_checker()
        self._race = (checker.attach(self.num_blocks, self.block_threads)
                      if checker is not None else None)
        counters.blocks_executed += self.num_blocks
        counters.warps_executed += self._issue_warps

    # ------------------------------------------------------------------ ids
    @property
    def thread_idx_x(self) -> np.ndarray:
        """``threadIdx.x`` of every thread (shape ``(B,)``, same per block)."""
        return self._thread_idx

    @property
    def lane_id(self) -> np.ndarray:
        """Lane index of every thread within its warp."""
        return self._thread_idx % self.warp_size

    @property
    def warp_id(self) -> np.ndarray:
        """Warp index of every thread within its block."""
        return self._thread_idx // self.warp_size

    @property
    def block_idx_x(self) -> np.ndarray:
        """``blockIdx.x`` per batch entry, shape ``(num_blocks, 1)``."""
        return self.block_indices[:, 0:1]

    @property
    def block_idx_y(self) -> np.ndarray:
        return self.block_indices[:, 1:2]

    @property
    def block_idx_z(self) -> np.ndarray:
        return self.block_indices[:, 2:3]

    # ------------------------------------------------------------ registers
    @property
    def numpy_dtype(self) -> np.dtype:
        """Element dtype of the kernel's working precision."""
        return self.precision.numpy_dtype

    def zeros(self) -> np.ndarray:
        """A zero-filled per-thread register vector."""
        return np.zeros(self._register_shape, dtype=self.numpy_dtype)

    def full(self, value: float) -> np.ndarray:
        """A constant per-thread register vector."""
        return np.full(self._register_shape, value, dtype=self.numpy_dtype)

    # ------------------------------------------------------------- coercion
    def _as_indices(self, flat_indices: object, op: str) -> np.ndarray:
        """Coerce indices to one ``int64`` entry per thread (broadcasting)."""
        arr = np.asarray(flat_indices, dtype=np.int64)
        try:
            return np.broadcast_to(arr, self._register_shape)
        except ValueError:
            raise SimulationError(f"{op} expects one index per thread") from None

    def _as_mask(self, mask: Optional[object]) -> Optional[np.ndarray]:
        if mask is None:
            return None
        arr = np.asarray(mask, dtype=bool)
        try:
            return np.broadcast_to(arr, self._register_shape)
        except ValueError:
            raise SimulationError("mask must broadcast to one lane per thread") from None

    def _as_register(self, values: object) -> np.ndarray:
        return np.broadcast_to(np.asarray(values), self._register_shape)

    # --------------------------------------------------------------- shuffles
    def shfl_up(self, values: np.ndarray, delta: int = 1) -> np.ndarray:
        """``__shfl_up_sync`` across each warp (counted)."""
        self.counters.shfl += self._issue_warps
        return warp_ops.shfl_up(self._as_register(values), delta, self.warp_size)

    def shfl_down(self, values: np.ndarray, delta: int = 1) -> np.ndarray:
        """``__shfl_down_sync`` across each warp (counted)."""
        self.counters.shfl += self._issue_warps
        return warp_ops.shfl_down(self._as_register(values), delta, self.warp_size)

    def shfl_idx(self, values: np.ndarray, source_lane: int) -> np.ndarray:
        """``__shfl_sync`` broadcast from ``source_lane`` (counted)."""
        self.counters.shfl += self._issue_warps
        return warp_ops.shfl_idx(self._as_register(values), source_lane, self.warp_size)

    # -------------------------------------------------------------- arithmetic
    def mad(self, a: np.ndarray, b: np.ndarray, acc: np.ndarray) -> np.ndarray:
        """Fused multiply-add ``a * b + acc`` (one FMA warp instruction)."""
        self.counters.fma += self._issue_warps
        return np.asarray(a, dtype=self.numpy_dtype) * np.asarray(b, dtype=self.numpy_dtype) + acc

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Counted addition."""
        self.counters.add += self._issue_warps
        return np.asarray(a, dtype=self.numpy_dtype) + np.asarray(b, dtype=self.numpy_dtype)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Counted multiplication."""
        self.counters.mul += self._issue_warps
        return np.asarray(a, dtype=self.numpy_dtype) * np.asarray(b, dtype=self.numpy_dtype)

    def overhead(self, instructions: float = 1.0) -> None:
        """Account for integer/addressing instructions not modelled explicitly."""
        self.counters.misc += instructions * self._issue_warps

    # ------------------------------------------------------- warp bookkeeping
    def _active_warps(self, mask: Optional[np.ndarray]) -> int:
        if mask is None:
            return self._issue_warps
        active, divergent = grouped_warp_counts(mask, self.warp_size)
        self.counters.divergent_branches += divergent
        return active

    def _warp_matrix(self, values: np.ndarray) -> np.ndarray:
        """Reshape a register-shaped array to ``(batch * warps, warp_size)``."""
        return np.ascontiguousarray(values).reshape(-1, self.warp_size)

    # ----------------------------------------------------------- global mem
    def load_global(self, buffer: DeviceBuffer, flat_indices: np.ndarray,
                    mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Gather ``buffer[flat_indices]`` for every block of the batch."""
        flat_indices = self._as_indices(flat_indices, "load_global")
        if np.any(flat_indices < 0) or np.any(flat_indices >= buffer.size):
            raise SimulationError(f"out-of-bounds global load on {buffer.name!r}")
        mask = self._as_mask(mask)
        warps = self._active_warps(mask)
        self.counters.gmem_load += warps
        itemsize = buffer.itemsize
        # one line matrix serves both the sector count and the traffic record
        lines = (flat_indices * itemsize) // self.architecture.cache_line_bytes
        self.counters.gmem_load_transactions += int(
            rowwise_unique_counts(self._warp_matrix(lines),
                                  None if mask is None else self._warp_matrix(mask)).sum())
        active = flat_indices.size if mask is None else int(mask.sum())
        self.counters.cache_read_bytes += float(active * itemsize)
        if self._traffic is not None and active:
            self._traffic.record_read(buffer, lines, mask)
        values = np.zeros(self._register_shape, dtype=buffer.dtype)
        if mask is None:
            values[:] = buffer.flat[flat_indices]
        else:
            values[mask] = buffer.flat[flat_indices[mask]]
        return values.astype(self.numpy_dtype, copy=False)

    def store_global(self, buffer: DeviceBuffer, flat_indices: np.ndarray,
                     values: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
        """Scatter ``values`` into ``buffer`` for every block of the batch.

        Duplicate destinations resolve in block order (later block wins),
        so the result does not depend on how the grid was chunked.
        """
        flat_indices = self._as_indices(flat_indices, "store_global")
        if np.any(flat_indices < 0) or np.any(flat_indices >= buffer.size):
            raise SimulationError(f"out-of-bounds global store on {buffer.name!r}")
        mask = self._as_mask(mask)
        warps = self._active_warps(mask)
        self.counters.gmem_store += warps
        itemsize = buffer.itemsize
        self.counters.gmem_store_transactions += coalesced_transactions_matrix(
            self._warp_matrix(flat_indices), itemsize,
            self.architecture.cache_line_bytes,
            None if mask is None else self._warp_matrix(mask))
        active = flat_indices.size if mask is None else int(mask.sum())
        if not buffer.cached:
            self.counters.dram_write_bytes += float(active * itemsize)
        values = np.broadcast_to(np.asarray(values), self._register_shape)
        if mask is None:
            buffer.flat[flat_indices] = values.astype(buffer.dtype, copy=False)
        else:
            buffer.flat[flat_indices[mask]] = values[mask].astype(buffer.dtype,
                                                                  copy=False)

    # ----------------------------------------------------------- shared mem
    def alloc_shared(self, name: str, shape: Tuple[int, ...],
                     precision: Optional[object] = None) -> SharedArray:
        """Allocate a named shared-memory array in every block of the batch."""
        prec = self.precision if precision is None else resolve_precision(precision)
        return self.shared.allocate(name, shape, prec)

    def _smem_access(self, shared: SharedArray, flat_indices: object,
                     mask: Optional[object], op: str):
        raw = np.asarray(flat_indices)
        # warp-uniform accesses (a scalar or per-block column index) are
        # broadcasts by construction: all active lanes of every warp read
        # one address, so the sort/bincount conflict analysis is skipped.
        uniform = raw.ndim == 0 or raw.shape[-1] == 1
        flat_indices = self._as_indices(flat_indices, op)
        size = shared.flat.shape[1]
        if np.any(flat_indices < 0) or np.any(flat_indices >= size):
            raise SimulationError(
                f"out-of-bounds shared {op.split('_')[0]} on {shared.name!r}")
        lane_mask = self._as_mask(mask)
        if uniform:
            rows = self.num_blocks * self.num_warps
            if lane_mask is None:
                active_counts = np.full(rows, self.warp_size, dtype=np.int64)
            else:
                active_counts = self._warp_matrix(lane_mask).sum(axis=1)
            broadcasts = active_counts > 0
            degrees = broadcasts.astype(np.int64)
        else:
            degrees, broadcasts, active_counts = bank_conflict_profile(
                self._warp_matrix(flat_indices), shared.array.itemsize,
                self.shared.banks, self.shared.bank_bytes,
                None if lane_mask is None else self._warp_matrix(lane_mask))
        return flat_indices, lane_mask, degrees, broadcasts, active_counts, uniform

    def load_shared(self, shared: SharedArray, flat_indices: np.ndarray,
                    mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Counted shared-memory gather (bank conflicts and broadcasts).

        Warp-uniform unmasked reads (the broadcast-weight pattern) gather
        one element per block and broadcast it across the lanes, instead of
        gathering one element per lane.
        """
        flat_indices, lane_mask, degrees, broadcasts, active_counts, uniform = \
            self._smem_access(shared, flat_indices, mask, "load_shared")
        if self._race is not None:
            self._race.on_access(shared.name, shared.flat.shape[1],
                                 flat_indices, lane_mask, None,
                                 is_store=False)
        itemsize = shared.array.itemsize
        occupied = active_counts > 0
        broadcast_warps = int((broadcasts & occupied).sum())
        conflict_degrees = degrees[occupied & ~broadcasts]
        accesses = int(conflict_degrees.sum())
        conflicts = int((conflict_degrees - 1).sum())
        self.counters.smem_broadcast += broadcast_warps
        self.counters.smem_load += accesses
        self.counters.smem_bank_conflicts += conflicts
        active_total = int(active_counts.sum())
        self.counters.smem_read_bytes += float(active_total * itemsize)
        if lane_mask is None and uniform:
            per_block = shared.flat[np.arange(self.num_blocks), flat_indices[:, 0]]
            values = np.empty(self._register_shape, dtype=self.numpy_dtype)
            values[:] = per_block.astype(self.numpy_dtype, copy=False)[:, None]
            return values
        rows = np.broadcast_to(np.arange(self.num_blocks)[:, None], self._register_shape)
        if lane_mask is None:
            return shared.flat[rows, flat_indices].astype(self.numpy_dtype, copy=False)
        values = np.zeros(self._register_shape, dtype=self.numpy_dtype)
        values[lane_mask] = shared.flat[rows[lane_mask], flat_indices[lane_mask]] \
            .astype(self.numpy_dtype, copy=False)
        return values

    def store_shared(self, shared: SharedArray, flat_indices: np.ndarray,
                     values: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
        """Counted shared-memory scatter."""
        flat_indices, lane_mask, degrees, broadcasts, active_counts, _ = \
            self._smem_access(shared, flat_indices, mask, "store_shared")
        itemsize = shared.array.itemsize
        store_degrees = degrees[active_counts > 0]
        accesses = int(store_degrees.sum())
        conflicts = int((store_degrees - 1).sum())
        self.counters.smem_store += accesses
        self.counters.smem_bank_conflicts += conflicts
        active_total = int(active_counts.sum())
        self.counters.smem_write_bytes += float(active_total * itemsize)
        values = np.broadcast_to(np.asarray(values), self._register_shape)
        if self._race is not None:
            self._race.on_access(shared.name, shared.flat.shape[1],
                                 flat_indices, lane_mask,
                                 values.astype(shared.array.dtype,
                                               copy=False),
                                 is_store=True)
        rows = np.broadcast_to(np.arange(self.num_blocks)[:, None], self._register_shape)
        if lane_mask is None:
            shared.flat[rows, flat_indices] = values.astype(shared.array.dtype,
                                                            copy=False)
        else:
            shared.flat[rows[lane_mask], flat_indices[lane_mask]] = \
                values[lane_mask].astype(shared.array.dtype, copy=False)

    # -------------------------------------------------------------- control
    def syncthreads(self) -> None:
        """``__syncthreads()`` — counted barrier, no functional effect here."""
        self.counters.sync += self._issue_warps
        if self._race is not None:
            self._race.on_barrier()

    # ------------------------------------------------------------- finalize
    def finalize(self) -> None:
        """Fold the batch's unique-line DRAM reads into the launch counters."""
        if self._traffic is not None:
            self.counters.dram_read_bytes += self._traffic.finalize()
