"""Dataflow IR recorded from one eager execution of a kernel body.

A :class:`Trace` is built by :class:`~repro.trace.tracer.TracingContext`
while the *first* batch chunk of a launch executes eagerly through the
ordinary :class:`~repro.gpu.block.BlockContext`.  Every context
operation and every NumPy expression the kernel body evaluates on traced
register vectors appends one :class:`Node`.  The recording is therefore a
straight-line program: kernel bodies unroll their (host-side) loops over
concrete Python values, and data-dependent control flow is rejected.

Two classifications drive the compiled replay:

* **kind** — how a node's value varies across the grid.  ``CONST`` values
  are plain scalars, ``THREAD`` values are block-uniform (every block in a
  chunk sees the same per-thread row, so a single ``(T,)`` row represents
  them), and ``BLOCK`` values differ per block (leading axis is the chunk's
  block count ``B``).  Kind depends only on the kinds of a node's inputs —
  loads from global/shared memory are block-uniform whenever their indices
  and mask are, because memory content is shared by all blocks.
* **tier** — when a node's value can be computed.  ``COMPILE`` values are
  fixed by the trace key and stored in the compiled program; ``LAUNCH``
  values are computed once per launch (e.g. loads from buffers the trace
  never stores to); ``CHUNK`` values are recomputed for every chunk.  Tiers
  are assigned by :func:`repro.trace.replay.compile_trace`.

Concrete values are retained only for ``CONST``/``THREAD`` nodes (a scalar
or one ``(T,)`` row); ``BLOCK`` intermediates are dropped as soon as the
kernel body releases them, so recording costs no more memory than the eager
engine does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..gpu.memory import DeviceBuffer


class TraceUnsupported(SimulationError):
    """The kernel body used an operation the tracer cannot record.

    ``replay_launch`` treats this as a signal to fall back to the batched
    engine for that kernel rather than failing the launch.
    """


# value variation across the grid
KIND_CONST = 0   # plain scalar, identical for every thread of every block
KIND_THREAD = 1  # block-uniform: one (T,)-shaped row represents all blocks
KIND_BLOCK = 2   # block-varying: leading axis is the chunk block count B

# evaluation time
TIER_COMPILE = 0  # fixed by the trace key; baked into the program
TIER_LAUNCH = 1   # computed once per launch (session initialisation)
TIER_CHUNK = 2    # recomputed for every batch chunk

#: symbolic leading axis used in ``Node.shape`` for BLOCK-kind values
B_AXIS = "B"


class Node:
    """One recorded operation (or input / constant) in a trace."""

    __slots__ = ("id", "op", "fn", "inputs", "kwargs", "params",
                 "kind", "tier", "shape", "dtype", "value")

    def __init__(self, node_id: int, op: str, *, fn=None,
                 inputs: Tuple[int, ...] = (), kwargs=None, params=None,
                 kind: int = KIND_CONST, shape: Tuple = (),
                 dtype=None, value=None):
        self.id = node_id
        self.op = op
        self.fn = fn
        self.inputs = inputs
        self.kwargs = kwargs or {}
        self.params = params or {}
        self.kind = kind
        self.tier = TIER_CHUNK  # assigned properly by compile_trace
        self.shape = shape
        self.dtype = dtype
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Node({self.id}, {self.op!r}, kind={self.kind}, "
                f"shape={self.shape}, dtype={self.dtype})")


def _const_key(value) -> Optional[tuple]:
    """Interning key for scalar constants (None for arrays: no interning)."""
    if isinstance(value, np.ndarray):
        return None
    try:
        return (type(value).__name__, repr(value))
    except Exception:  # pragma: no cover - exotic reprs
        return None


class Trace:
    """A recorded kernel body: node list plus buffer-slot bookkeeping.

    Device buffers are identified *positionally* (by their index in the
    kernel's argument tuple), so one trace replays against any launch whose
    argument signature matches the trace key — e.g. the stencil ping-pong
    rebinding ``src``/``dst`` every iteration reuses a single trace.
    """

    def __init__(self, args: Tuple, *, batch_blocks: int, block_threads: int,
                 warp_size: int, num_warps: int, numpy_dtype):
        self.nodes: List[Node] = []
        self.batch_blocks = batch_blocks
        self.block_threads = block_threads
        self.warp_size = warp_size
        self.num_warps = num_warps
        self.numpy_dtype = numpy_dtype
        #: buffer_id -> argument position of every DeviceBuffer argument
        self.slot_of: Dict[int, int] = {}
        #: argument position -> static facts used by the compiled program
        self.slot_info: Dict[int, Dict[str, object]] = {}
        #: argument positions the trace stores to
        self.written_slots: set = set()
        self._cse: Dict[tuple, int] = {}
        self._consts: Dict[tuple, int] = {}
        self._inputs: Dict[str, int] = {}
        for position, arg in enumerate(args):
            if isinstance(arg, DeviceBuffer):
                self.slot_of[arg.buffer_id] = position
                self.slot_info[position] = {
                    "dtype": arg.dtype,
                    "itemsize": arg.itemsize,
                    "size": arg.size,
                    "cached": arg.cached,
                    "name": arg.name,
                }

    # ------------------------------------------------------------- nodes

    def add(self, op: str, **kw) -> Node:
        node = Node(len(self.nodes), op, **kw)
        self.nodes.append(node)
        return node

    def const(self, value) -> Node:
        """Record (or reuse) a constant node for a host scalar or array."""
        key = _const_key(value)
        if key is not None and key in self._consts:
            return self.nodes[self._consts[key]]
        if isinstance(value, np.ndarray):
            stored = value.copy()
            node = self.add("const", kind=KIND_CONST, shape=stored.shape,
                            dtype=stored.dtype, value=stored)
        else:
            stored = value
            arr = np.asarray(value)
            node = self.add("const", kind=KIND_CONST, shape=(),
                            dtype=arr.dtype, value=stored)
        if key is not None:
            self._consts[key] = node.id
        return node

    def input(self, name: str, kind: int, value, shape) -> Node:
        """Record (or reuse) a launch-input node (thread ids, block ids)."""
        if name in self._inputs:
            return self.nodes[self._inputs[name]]
        node = self.add("input", params={"name": name}, kind=kind,
                        shape=shape, dtype=np.dtype(np.int64),
                        value=value if kind <= KIND_THREAD else None)
        self._inputs[name] = node.id
        return node

    def slot_for(self, buffer: DeviceBuffer) -> int:
        slot = self.slot_of.get(buffer.buffer_id)
        if slot is None:
            raise TraceUnsupported(
                f"kernel accessed device buffer {buffer.name!r} that is not "
                f"one of its launch arguments; the replay engine can only "
                f"bind argument buffers")
        return slot

    # ------------------------------------------------------- shape logic

    def result_shape(self, kind: int, concrete: np.ndarray) -> Tuple:
        """Symbolic shape of a node: BLOCK values get a ``B`` leading axis."""
        shape = tuple(np.shape(concrete))
        if kind == KIND_BLOCK:
            if not shape or shape[0] != self.batch_blocks:
                raise TraceUnsupported(
                    f"block-varying value with shape {shape} does not carry "
                    f"the chunk block count {self.batch_blocks} on its "
                    f"leading axis")
            return (B_AXIS,) + shape[1:]
        return shape

    def reduce_concrete(self, kind: int, concrete):
        """Drop redundant axes from a block-uniform concrete value.

        Eager context operations return full ``(B, T)`` registers; when the
        recorded kind proves the value block-uniform we keep only row 0 (and
        assert the uniformity, which doubles as a check on the kind logic).
        """
        if kind == KIND_BLOCK or not isinstance(concrete, np.ndarray):
            return concrete
        if concrete.ndim >= 2 and concrete.shape[0] == self.batch_blocks:
            row = concrete[0]
            if self.batch_blocks > 1 and not np.array_equal(
                    np.broadcast_to(row, concrete.shape), concrete):
                raise TraceUnsupported(
                    "value classified block-uniform varies across blocks")
            return np.ascontiguousarray(row)
        return concrete
