"""Warp-level data exchange primitives (the CUDA shuffle instructions).

These functions reproduce the semantics of ``__shfl_up_sync`` and friends on
arrays whose *last axis is the lane axis*.  They are pure functions so they
can be unit-tested and property-tested independently of the block execution
machinery, which wraps them with instruction accounting.  Leading axes are
arbitrary: a ``(threads,)`` vector and the block context's
``(num_blocks, threads)`` register vectors shuffle identically.

CUDA semantics reproduced here:

* ``shfl_up(v, d)``   — lane ``i`` receives the value of lane ``i - d``;
  lanes ``i < d`` keep their own value.
* ``shfl_down(v, d)`` — lane ``i`` receives the value of lane ``i + d``;
  lanes ``i >= width - d`` keep their own value.
* ``shfl_idx(v, s)``  — every lane receives the value of lane ``s``.
* ``shfl_xor(v, m)``  — lane ``i`` receives the value of lane ``i ^ m``.
"""

from __future__ import annotations


import numpy as np

from ..errors import SimulationError


def _check_width(values: np.ndarray, width: int) -> None:
    if width <= 0 or width & (width - 1):
        raise SimulationError("shuffle width must be a positive power of two")
    if values.shape[-1] % width != 0:
        raise SimulationError(
            f"lane axis of length {values.shape[-1]} is not a multiple of width {width}"
        )


def _grouped(values: np.ndarray, width: int) -> np.ndarray:
    """Reshape so the last axis is exactly one shuffle group wide."""
    return values.reshape(values.shape[:-1] + (-1, width))


def shfl_up(values: np.ndarray, delta: int, width: int = 32) -> np.ndarray:
    """``__shfl_up_sync``: shift values towards higher lanes by ``delta``."""
    _check_width(values, width)
    if delta < 0:
        raise SimulationError("shfl_up delta must be non-negative")
    if delta == 0:
        return values.copy()
    grouped = _grouped(values, width)
    result = grouped.copy()
    if delta < width:
        result[..., delta:] = grouped[..., : width - delta]
    return result.reshape(values.shape)


def shfl_down(values: np.ndarray, delta: int, width: int = 32) -> np.ndarray:
    """``__shfl_down_sync``: shift values towards lower lanes by ``delta``."""
    _check_width(values, width)
    if delta < 0:
        raise SimulationError("shfl_down delta must be non-negative")
    if delta == 0:
        return values.copy()
    grouped = _grouped(values, width)
    result = grouped.copy()
    if delta < width:
        result[..., : width - delta] = grouped[..., delta:]
    return result.reshape(values.shape)


def shfl_idx(values: np.ndarray, source_lane: int, width: int = 32) -> np.ndarray:
    """``__shfl_sync``: broadcast the value held by ``source_lane``."""
    _check_width(values, width)
    if not 0 <= source_lane < width:
        raise SimulationError(f"source lane {source_lane} outside [0, {width})")
    grouped = _grouped(values, width)
    result = np.broadcast_to(grouped[..., source_lane:source_lane + 1],
                             grouped.shape).copy()
    return result.reshape(values.shape)


def shfl_xor(values: np.ndarray, lane_mask: int, width: int = 32) -> np.ndarray:
    """``__shfl_xor_sync``: butterfly exchange with lane ``i ^ lane_mask``."""
    _check_width(values, width)
    if not 0 <= lane_mask < width:
        raise SimulationError(f"lane mask {lane_mask} outside [0, {width})")
    grouped = _grouped(values, width)
    lanes = np.arange(width)
    result = grouped[..., lanes ^ lane_mask]
    return result.reshape(values.shape)


def ballot(predicate: np.ndarray, width: int = 32) -> np.ndarray:
    """``__ballot_sync``: pack per-lane predicates into a bitmask per group."""
    _check_width(predicate, width)
    grouped = _grouped(predicate.astype(bool), width)
    weights = (1 << np.arange(width, dtype=np.uint64))
    return (grouped.astype(np.uint64) * weights).sum(axis=-1)


def lane_ids(count: int, width: int = 32) -> np.ndarray:
    """Lane index of each of ``count`` consecutive threads."""
    return np.arange(count) % width


def warp_ids(count: int, width: int = 32) -> np.ndarray:
    """Warp index of each of ``count`` consecutive threads."""
    return np.arange(count) // width


class Warp:
    """A single 32-lane warp holding named register vectors.

    This convenience wrapper is used by the micro-benchmarks and by unit
    tests; the kernel execution path operates on batches of thread blocks
    via :class:`repro.gpu.block.BlockContext` and calls the module-level
    functions directly.
    """

    def __init__(self, width: int = 32, precision: object = "float32") -> None:
        from ..dtypes import resolve_precision

        self.width = width
        self.precision = resolve_precision(precision)
        self._registers: dict[str, np.ndarray] = {}

    @property
    def lanes(self) -> np.ndarray:
        """Lane indices 0..width-1."""
        return np.arange(self.width)

    def set_register(self, name: str, values: np.ndarray) -> None:
        """Store a per-lane register vector."""
        array = np.asarray(values, dtype=self.precision.numpy_dtype)
        if array.shape != (self.width,):
            raise SimulationError(
                f"register {name!r} must have shape ({self.width},), got {array.shape}"
            )
        self._registers[name] = array.copy()

    def get_register(self, name: str) -> np.ndarray:
        """Read back a per-lane register vector."""
        try:
            return self._registers[name].copy()
        except KeyError as exc:
            raise SimulationError(f"register {name!r} was never written") from exc

    def shfl_up(self, name: str, delta: int) -> np.ndarray:
        """Shuffle a named register up and return the received values."""
        return shfl_up(self.get_register(name), delta, self.width)

    def shfl_down(self, name: str, delta: int) -> np.ndarray:
        """Shuffle a named register down and return the received values."""
        return shfl_down(self.get_register(name), delta, self.width)
