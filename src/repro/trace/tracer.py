"""Recording pass: execute a kernel body once, capture its op stream.

:class:`TracingContext` presents the same interface as
:class:`~repro.gpu.block.BlockContext` but returns
:class:`TracerArray` handles from every operation.  Each handle pairs a
*concrete* value — produced by delegating to a real block context, so the
recording chunk is simulated with exactly the eager engine's semantics and
counter accounting — with the id of the IR node that produced it.  NumPy
expressions the kernel body applies to handles (``+``, ``np.minimum``,
``np.where``, ``.astype`` …) are intercepted through the array protocols
and recorded as ``pure`` nodes carrying the ufunc itself, so replay runs
the identical NumPy call.

Host-side control flow (``for``/``if`` over plain Python values) simply
unrolls into the trace.  Anything data-dependent — branching on a traced
value, indexing NumPy with a traced shape — raises
:class:`~repro.trace.ir.TraceUnsupported`, and the launch falls back to the
batched engine.
"""

from __future__ import annotations


import numpy as np

from .ir import (
    B_AXIS,
    KIND_BLOCK,
    KIND_CONST,
    KIND_THREAD,
    Trace,
    TraceUnsupported,
)


def _astype_fn(x, dtype):
    """Marker function recorded for ``TracerArray.astype``."""
    return np.asarray(x).astype(dtype)


def _record_pure(trace: Trace, fn, operands, kwargs=None) -> "TracerArray":
    """Record one side-effect-free NumPy call and evaluate it concretely."""
    kwargs = dict(kwargs or {})
    ids = []
    values = []
    kind = KIND_CONST
    for operand in operands:
        if isinstance(operand, TracerArray):
            node = trace.nodes[operand.node]
            ids.append(node.id)
            values.append(operand.value)
            kind = max(kind, node.kind)
        else:
            ids.append(trace.const(operand).id)
            values.append(operand)
    result = trace.reduce_concrete(kind, fn(*values, **kwargs))
    key = (id(fn), tuple(ids),
           tuple(sorted((k, repr(v)) for k, v in kwargs.items())))
    cached = trace._cse.get(key)
    if cached is not None:
        return TracerArray(trace, cached, result)
    node = trace.add(
        "pure", fn=fn, inputs=tuple(ids), kwargs=kwargs, kind=kind,
        shape=trace.result_shape(kind, result),
        dtype=np.asarray(result).dtype,
        value=result if kind <= KIND_THREAD else None)
    trace._cse[key] = node.id
    return TracerArray(trace, node.id, result)


class TracerArray:
    """A traced register value: concrete data plus its producing IR node."""

    __slots__ = ("trace", "node", "value")
    #: make NumPy defer binary ops to this class instead of coercing
    __array_priority__ = 1000.0

    def __init__(self, trace: Trace, node_id: int, value):
        self.trace = trace
        self.node = node_id
        self.value = value

    # -------------------------------------------------- array-like surface

    @property
    def dtype(self):
        return np.asarray(self.value).dtype

    @property
    def shape(self):
        return np.shape(self.value)

    @property
    def ndim(self):
        return np.ndim(self.value)

    def astype(self, dtype, copy: bool = True) -> "TracerArray":
        return _record_pure(self.trace, _astype_fn, (self,),
                            {"dtype": np.dtype(dtype)})

    # ----------------------------------------------------- numpy protocols

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs.pop("out", None) is not None:
            raise TraceUnsupported(
                f"unsupported ufunc usage {ufunc.__name__}.{method} on a "
                f"traced value")
        if ufunc.nout != 1:
            raise TraceUnsupported(
                f"multi-output ufunc {ufunc.__name__} is not traceable")
        return _record_pure(self.trace, ufunc, inputs, kwargs)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.where and len(args) == 3 and not kwargs:
            return _record_pure(self.trace, np.where, args)
        if func is np.clip and len(args) == 3 and not kwargs:
            return _record_pure(self.trace, np.clip, args)
        if func is np.shape and not kwargs:
            return self.shape
        if func is np.ndim and not kwargs:
            return self.ndim
        raise TraceUnsupported(
            f"numpy function {getattr(func, '__name__', func)!r} is not "
            f"traceable")

    def __array__(self, dtype=None, copy=None):
        raise TraceUnsupported(
            "a traced value escaped into an untraced numpy coercion; the "
            "replay engine cannot record this kernel body")

    def __bool__(self):
        raise TraceUnsupported(
            "data-dependent control flow: a traced value was used as a "
            "branch condition")

    def __iter__(self):
        raise TraceUnsupported("iterating over a traced value is not "
                               "supported")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TracerArray(node={self.node}, shape={self.shape})"


def _make_binary(ufunc, reflected: bool):
    if reflected:
        def method(self, other):
            return _record_pure(self.trace, ufunc, (other, self))
    else:
        def method(self, other):
            return _record_pure(self.trace, ufunc, (self, other))
    return method


def _make_unary(ufunc):
    def method(self):
        return _record_pure(self.trace, ufunc, (self,))
    return method


_BINARY = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "truediv": np.true_divide, "floordiv": np.floor_divide,
    "mod": np.remainder, "pow": np.power,
    "lshift": np.left_shift, "rshift": np.right_shift,
    "and": np.bitwise_and, "or": np.bitwise_or, "xor": np.bitwise_xor,
}
_COMPARE = {
    "lt": np.less, "le": np.less_equal, "gt": np.greater,
    "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal,
}
for _name, _ufunc in _BINARY.items():
    setattr(TracerArray, f"__{_name}__", _make_binary(_ufunc, False))
    setattr(TracerArray, f"__r{_name}__", _make_binary(_ufunc, True))
for _name, _ufunc in _COMPARE.items():
    setattr(TracerArray, f"__{_name}__", _make_binary(_ufunc, False))
for _name, _ufunc in (("neg", np.negative), ("pos", np.positive),
                      ("abs", np.absolute), ("invert", np.invert)):
    setattr(TracerArray, f"__{_name}__", _make_unary(_ufunc))


class SharedTracer:
    """Handle for a traced shared-memory allocation."""

    __slots__ = ("inner", "node", "content_kind")

    def __init__(self, inner, node_id: int):
        self.inner = inner
        self.node = node_id
        #: how the *content* varies across blocks (zero-initialised: CONST);
        #: every store widens it with its index/mask/values kinds
        self.content_kind = KIND_CONST


class TracingContext:
    """Drop-in context that records while delegating to a block context."""

    def __init__(self, eager, trace: Trace):
        self._eager = eager
        self.trace = trace

    # --------------------------------------------------- static attributes

    @property
    def block_threads(self):
        return self._eager.block_threads

    @property
    def warp_size(self):
        return self._eager.warp_size

    @property
    def num_warps(self):
        return self._eager.num_warps

    @property
    def grid_dim(self):
        return self._eager.grid_dim

    @property
    def architecture(self):
        return self._eager.architecture

    @property
    def precision(self):
        return self._eager.precision

    @property
    def numpy_dtype(self):
        return self._eager.numpy_dtype

    # ------------------------------------------------------------ operands

    def _operand(self, value):
        """(node_id, concrete, kind) of a kernel-body operand."""
        if isinstance(value, TracerArray):
            node = self.trace.nodes[value.node]
            return node.id, value.value, node.kind
        node = self.trace.const(value)
        return node.id, value, KIND_CONST

    def _result(self, op: str, concrete, kind: int, *, inputs=(),
                params=None, shape=None) -> TracerArray:
        concrete = self.trace.reduce_concrete(kind, concrete)
        if shape is None:
            shape = self.trace.result_shape(kind, concrete)
        node = self.trace.add(
            op, inputs=tuple(inputs), params=params, kind=kind, shape=shape,
            dtype=np.asarray(concrete).dtype,
            value=concrete if kind <= KIND_THREAD else None)
        return TracerArray(self.trace, node.id, concrete)

    # ----------------------------------------------------------------- ids

    @property
    def thread_idx_x(self) -> TracerArray:
        value = self._eager.thread_idx_x
        node = self.trace.input("tid", KIND_THREAD, value, value.shape)
        return TracerArray(self.trace, node.id, value)

    @property
    def lane_id(self) -> TracerArray:
        value = self._eager.lane_id
        node = self.trace.input("lane", KIND_THREAD, value, value.shape)
        return TracerArray(self.trace, node.id, value)

    @property
    def warp_id(self) -> TracerArray:
        value = self._eager.warp_id
        node = self.trace.input("warp", KIND_THREAD, value, value.shape)
        return TracerArray(self.trace, node.id, value)

    def _block_input(self, name: str, value) -> TracerArray:
        node = self.trace.input(name, KIND_BLOCK, None, (B_AXIS, 1))
        return TracerArray(self.trace, node.id, value)

    @property
    def block_idx_x(self) -> TracerArray:
        return self._block_input("bx", self._eager.block_idx_x)

    @property
    def block_idx_y(self) -> TracerArray:
        return self._block_input("by", self._eager.block_idx_y)

    @property
    def block_idx_z(self) -> TracerArray:
        return self._block_input("bz", self._eager.block_idx_z)

    # ------------------------------------------------------------ registers

    def zeros(self) -> TracerArray:
        value = self.numpy_dtype.type(0)
        node = self.trace.const(value)
        return TracerArray(self.trace, node.id, value)

    def full(self, value: float) -> TracerArray:
        scalar = self.numpy_dtype.type(value)
        node = self.trace.const(scalar)
        return TracerArray(self.trace, node.id, scalar)

    # ----------------------------------------------------------- arithmetic

    def _arith(self, kind_name: str, eager_fn, operands) -> TracerArray:
        ids, values, kind = [], [], KIND_CONST
        for operand in operands:
            node_id, value, op_kind = self._operand(operand)
            ids.append(node_id)
            values.append(value)
            kind = max(kind, op_kind)
        concrete = eager_fn(*values)
        return self._result("arith", concrete, kind, inputs=ids,
                            params={"kind": kind_name})

    def mad(self, a, b, acc) -> TracerArray:
        return self._arith("mad", self._eager.mad, (a, b, acc))

    def add(self, a, b) -> TracerArray:
        return self._arith("add", self._eager.add, (a, b))

    def mul(self, a, b) -> TracerArray:
        return self._arith("mul", self._eager.mul, (a, b))

    # ------------------------------------------------------------- shuffles

    def _shfl(self, direction: str, eager_fn, values, amount) -> TracerArray:
        node_id, concrete, kind = self._operand(values)
        result = eager_fn(concrete, int(amount))
        kind = max(kind, KIND_THREAD)
        return self._result("shfl", result, kind, inputs=(node_id,),
                            params={"dir": direction, "amount": int(amount)})

    def shfl_up(self, values, delta: int = 1) -> TracerArray:
        return self._shfl("up", self._eager.shfl_up, values, delta)

    def shfl_down(self, values, delta: int = 1) -> TracerArray:
        return self._shfl("down", self._eager.shfl_down, values, delta)

    def shfl_idx(self, values, source_lane: int) -> TracerArray:
        return self._shfl("idx", self._eager.shfl_idx, values, source_lane)

    # ---------------------------------------------------------- global mem

    def load_global(self, buffer, flat_indices, mask=None) -> TracerArray:
        slot = self.trace.slot_for(buffer)
        idx_id, idx_val, idx_kind = self._operand(flat_indices)
        inputs = [idx_id]
        mask_val, kind = None, idx_kind
        if mask is not None:
            mask_id, mask_val, mask_kind = self._operand(mask)
            inputs.append(mask_id)
            kind = max(kind, mask_kind)
        value = self._eager.load_global(buffer, idx_val, mask_val)
        return self._result(
            "load_global", value, kind, inputs=inputs,
            params={"slot": slot, "masked": mask is not None})

    def store_global(self, buffer, flat_indices, values, mask=None) -> None:
        slot = self.trace.slot_for(buffer)
        idx_id, idx_val, _ = self._operand(flat_indices)
        val_id, val_val, _ = self._operand(values)
        inputs = [idx_id, val_id]
        mask_val = None
        if mask is not None:
            mask_id, mask_val, _ = self._operand(mask)
            inputs.append(mask_id)
        self._eager.store_global(buffer, idx_val, val_val, mask_val)
        self.trace.add("store_global", inputs=tuple(inputs),
                       params={"slot": slot, "masked": mask is not None})
        self.trace.written_slots.add(slot)

    # ---------------------------------------------------------- shared mem

    def alloc_shared(self, name: str, shape, precision=None) -> SharedTracer:
        inner = self._eager.alloc_shared(name, shape, precision)
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        node = self.trace.add(
            "alloc_shared",
            params={"name": name, "shape": tuple(shape), "size": size,
                    "dtype": inner.array.dtype,
                    "itemsize": int(inner.array.dtype.itemsize)},
            kind=KIND_CONST, shape=(B_AXIS, size), dtype=inner.array.dtype)
        return SharedTracer(inner, node.id)

    def _smem_operands(self, shared, flat_indices, mask):
        if not isinstance(shared, SharedTracer):
            raise TraceUnsupported(
                "shared-memory handle did not come from this tracing context")
        idx_id, idx_val, idx_kind = self._operand(flat_indices)
        raw = np.asarray(idx_val)
        uniform = raw.ndim == 0 or raw.shape[-1] == 1
        inputs = [idx_id]
        mask_val, kind = None, idx_kind
        if mask is not None:
            mask_id, mask_val, mask_kind = self._operand(mask)
            inputs.append(mask_id)
            kind = max(kind, mask_kind)
        return inputs, idx_val, mask_val, kind, uniform

    def load_shared(self, shared, flat_indices, mask=None) -> TracerArray:
        inputs, idx_val, mask_val, access_kind, uniform = \
            self._smem_operands(shared, flat_indices, mask)
        value = self._eager.load_shared(shared.inner, idx_val, mask_val)
        kind = max(access_kind, shared.content_kind)
        params = {"shared": shared.node, "uniform": uniform,
                  "masked": mask is not None}
        if kind == KIND_BLOCK and uniform and mask is None:
            # a warp-uniform read of block-varying content is one value per
            # block: represent it as a (B, 1) column (broadcasts exactly)
            column = value[:, :1]
            if not np.array_equal(np.broadcast_to(column, value.shape), value):
                raise TraceUnsupported("uniform shared load produced a "
                                       "non-uniform register")
            return self._result("load_shared", np.ascontiguousarray(column),
                                kind, inputs=inputs, params=params,
                                shape=(B_AXIS, 1))
        return self._result("load_shared", value, kind, inputs=inputs,
                            params=params)

    def store_shared(self, shared, flat_indices, values, mask=None) -> None:
        inputs, idx_val, mask_val, access_kind, uniform = \
            self._smem_operands(shared, flat_indices, mask)
        val_id, val_val, val_kind = self._operand(values)
        inputs.insert(1, val_id)
        self._eager.store_shared(shared.inner, idx_val, val_val, mask_val)
        self.trace.add("store_shared", inputs=tuple(inputs),
                       params={"shared": shared.node, "uniform": uniform,
                               "masked": mask is not None})
        shared.content_kind = max(shared.content_kind, access_kind, val_kind)

    # ------------------------------------------------------------- control

    def syncthreads(self) -> None:
        self._eager.syncthreads()
        self.trace.add("sync")

    def overhead(self, instructions: float = 1.0) -> None:
        self._eager.overhead(instructions)
        self.trace.add("misc", params={"instructions": instructions})

    def finalize(self) -> None:
        self._eager.finalize()
