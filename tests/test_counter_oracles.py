"""Counter-oracle property tests for the execution engine's accounting.

Seeded-random address streams are replayed through the block context
(:class:`~repro.gpu.block.BlockContext`), once with one single-block context
per block (how ``batch_size=1`` chunks a grid) and once with every block in
one context, and the counted quantities are checked against deliberately
brute-force Python oracles:

* per-warp coalescing sectors (``gmem_load_transactions`` /
  ``gmem_store_transactions``),
* per-block unique-line DRAM read traffic (``dram_read_bytes``),
* shared-memory bank conflicts / broadcasts (``smem_bank_conflicts``,
  ``smem_load``, ``smem_broadcast``),
* active and divergent warps under lane masks (``gmem_load``,
  ``gmem_store``, ``divergent_branches``),
* byte counts (``cache_read_bytes``, ``dram_write_bytes``,
  ``smem_read_bytes``, ``smem_write_bytes``), and
* the per-warp instruction counts (shuffles, barriers, arithmetic).

The oracles use nothing but Python sets/dicts and loops, so any bug in the
segmented NumPy accounting paths shows up as a disagreement;
:func:`test_every_counter_matches_oracle` covers every
:class:`~repro.gpu.counters.KernelCounters` field at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dtypes import resolve_precision
from repro.gpu.architecture import get_architecture
from repro.gpu.block import BlockContext
from repro.gpu.counters import KernelCounters
from repro.gpu.memory import GlobalMemory

WARP_SIZE = 32
LINE_BYTES = 128
BLOCK_THREADS = 64
NUM_BLOCKS = 3
NUM_ACCESSES = 4
BUFFER_ELEMENTS = 4096
SMEM_ELEMENTS = 256


# ----------------------------------------------------------------- oracles

def oracle_sectors(active_indices, itemsize, line_bytes=LINE_BYTES):
    """Brute force: distinct memory sectors touched by one warp access."""
    return len({(int(i) * itemsize) // line_bytes for i in active_indices})


def oracle_warp_sectors(indices, mask, itemsize):
    """Total sectors for one block-wide access, warp by warp."""
    total = 0
    for w in range(0, len(indices), WARP_SIZE):
        lanes = range(w, w + WARP_SIZE)
        active = [indices[i] for i in lanes if mask is None or mask[i]]
        if active:
            total += oracle_sectors(active, itemsize)
    return total


def oracle_unique_line_bytes(reads, itemsize, line_bytes=LINE_BYTES):
    """Brute force: per-block unique-line DRAM bytes for a list of reads
    (each a ``(indices, mask)`` pair) against a single buffer."""
    lines = set()
    for indices, mask in reads:
        for i, idx in enumerate(indices):
            if mask is None or mask[i]:
                lines.add((int(idx) * itemsize) // line_bytes)
    return len(lines) * line_bytes


def oracle_bank_degree(active_indices, itemsize, banks=32, bank_bytes=4):
    """Brute force bank-conflict degree of one warp shared-memory access.

    Returns ``(degree, is_broadcast)`` exactly as the simulator defines
    them: all active lanes on one address is a broadcast; otherwise the
    degree is the worst per-bank count of *distinct* addresses, where
    8-byte elements occupy two consecutive banks.
    """
    addresses = sorted({int(i) * itemsize for i in active_indices})
    if len(addresses) == 1:
        return 1, True
    words_per_element = max(1, itemsize // bank_bytes)
    degree = 1
    for sub in range(words_per_element):
        per_bank = {}
        for address in addresses:
            bank = (address // bank_bytes + sub) % banks
            per_bank[bank] = per_bank.get(bank, 0) + 1
        degree = max(degree, max(per_bank.values()))
    return degree, False


def oracle_smem_counts(accesses, itemsize, is_store):
    """Brute force (loads_or_stores, broadcasts, conflicts) for a list of
    block-wide shared accesses (``(indices, mask)`` pairs)."""
    ops = broadcasts = conflicts = 0
    for indices, mask in accesses:
        for w in range(0, len(indices), WARP_SIZE):
            lanes = range(w, w + WARP_SIZE)
            active = [indices[i] for i in lanes if mask is None or mask[i]]
            if not active:
                continue
            degree, broadcast = oracle_bank_degree(active, itemsize)
            if broadcast and not is_store:
                broadcasts += 1
            else:
                ops += degree
                conflicts += degree - 1
    return ops, broadcasts, conflicts


def oracle_warps(indices, mask):
    """Brute force (active warps, divergent warps) of one block-wide access:
    a warp is active when any lane is, divergent when its lanes disagree."""
    active = divergent = 0
    for w in range(0, len(indices), WARP_SIZE):
        lanes = [mask is None or bool(mask[i]) for i in range(w, w + WARP_SIZE)]
        active += any(lanes)
        divergent += any(lanes) and not all(lanes)
    return active, divergent


def oracle_active_lanes(indices, mask):
    """Brute force number of active lanes of one block-wide access."""
    return sum(1 for i in range(len(indices)) if mask is None or mask[i])


# ----------------------------------------------------------------- drivers

def _stream(rng, high, mask_mode):
    """One seeded block-wide address stream plus an optional lane mask."""
    indices = rng.integers(0, high, size=BLOCK_THREADS, dtype=np.int64)
    if mask_mode == "none":
        return indices, None
    if mask_mode == "warp-uniform":
        # whole warps on or off: active < all warps, but nothing diverges
        warps = rng.random(BLOCK_THREADS // WARP_SIZE) < 0.5
        return indices, np.repeat(warps, WARP_SIZE)
    mask = rng.random(BLOCK_THREADS) < 0.7
    if mask_mode == "dead-warp":
        mask[:WARP_SIZE] = False  # a fully inactive warp must count nothing
    return indices, mask


def _make_streams(seed, high, patterns=("random",)):
    """Per-block access streams: ``streams[a][b] = (indices, mask)``."""
    rng = np.random.default_rng(seed)
    streams = []
    for access in range(NUM_ACCESSES):
        mask_mode = ("none", "random", "dead-warp")[access % 3]
        per_block = [_stream(rng, high, mask_mode) for _ in range(NUM_BLOCKS)]
        streams.append(per_block)
    if "contiguous" in patterns:
        base = np.arange(BLOCK_THREADS, dtype=np.int64)
        streams.append([(base, None) for _ in range(NUM_BLOCKS)])
    if "broadcast" in patterns:
        streams.append([(np.full(BLOCK_THREADS, 7, dtype=np.int64), None)
                        for _ in range(NUM_BLOCKS)])
    if "strided" in patterns:
        strided = (np.arange(BLOCK_THREADS, dtype=np.int64) * 2) % high
        streams.append([(strided, None) for _ in range(NUM_BLOCKS)])
    if "warp-uniform" in patterns:
        streams.append([_stream(rng, high, "warp-uniform")
                        for _ in range(NUM_BLOCKS)])
    return streams


def _contexts(engine, arch, counters, precision):
    """``(context, blocks)`` pairs splitting the NUM_BLOCKS blocks by engine."""
    groups = ([[b] for b in range(NUM_BLOCKS)] if engine == "legacy"
              else [list(range(NUM_BLOCKS))])
    return [
        (BlockContext(block_indices=[(b, 0, 0) for b in blocks],
                      grid_dim=(NUM_BLOCKS, 1, 1),
                      block_threads=BLOCK_THREADS, architecture=arch,
                      counters=counters, precision=precision), blocks)
        for blocks in groups
    ]


def _operands(per_block, blocks):
    """One access's ``(indices, mask)`` matrices for a context's blocks."""
    indices = np.stack([per_block[b][0] for b in blocks])
    masks = [per_block[b][1] for b in blocks]
    return indices, None if masks[0] is None else np.stack(masks)


def _run_global(engine, arch, precision, streams, store=False):
    """Replay the streams through one engine; returns the counters."""
    counters = KernelCounters()
    memory = GlobalMemory()
    buffer = memory.allocate((BUFFER_ELEMENTS,), precision, name="g")
    for ctx, blocks in _contexts(engine, arch, counters, precision):
        for per_block in streams:
            indices, mask = _operands(per_block, blocks)
            if store:
                ctx.store_global(buffer, indices, np.float64(1.0), mask=mask)
            else:
                ctx.load_global(buffer, indices, mask=mask)
        ctx.finalize()
    return counters


def _run_shared(engine, arch, precision, streams, store=False):
    counters = KernelCounters()
    for ctx, blocks in _contexts(engine, arch, counters, precision):
        smem = ctx.alloc_shared("s", (SMEM_ELEMENTS,))
        for per_block in streams:
            indices, mask = _operands(per_block, blocks)
            if store:
                ctx.store_shared(smem, indices, np.float64(1.0), mask=mask)
            else:
                ctx.load_shared(smem, indices, mask=mask)
    return counters


#: how the NUM_BLOCKS blocks are split into contexts: "legacy" gives every
#: block a one-block context (how ``batch_size=1``, the ``scalar`` engine,
#: chunks a grid; the id is older than the single block engine), "batched"
#: puts them all in one context
ENGINES = ("legacy", "batched")
SEEDS = (0, 1, 2)


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision_name", ["float32", "float64"])
def test_coalescing_sectors_match_oracle(engine, seed, precision_name):
    arch = get_architecture("p100")
    precision = resolve_precision(precision_name)
    itemsize = precision.itemsize
    streams = _make_streams(seed, BUFFER_ELEMENTS,
                            patterns=("contiguous", "strided"))
    counters = _run_global(engine, arch, precision, streams)
    expected = sum(
        oracle_warp_sectors(list(indices), mask, itemsize)
        for per_block in streams for indices, mask in per_block
    )
    assert counters.gmem_load_transactions == expected
    # a fully coalesced float32 warp access is exactly one 128-byte sector
    if precision_name == "float32":
        solo = KernelCounters()
        ctx = BlockContext([(0, 0, 0)], (1, 1, 1), BLOCK_THREADS, arch, solo, precision)
        memory = GlobalMemory()
        buffer = memory.allocate((BUFFER_ELEMENTS,), precision)
        ctx.load_global(buffer, np.arange(BLOCK_THREADS, dtype=np.int64))
        assert solo.gmem_load_transactions == BLOCK_THREADS // WARP_SIZE


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
def test_store_sectors_match_oracle(engine, seed):
    arch = get_architecture("v100")
    precision = resolve_precision("float32")
    streams = _make_streams(seed, BUFFER_ELEMENTS)
    counters = _run_global(engine, arch, precision, streams, store=True)
    expected = sum(
        oracle_warp_sectors(list(indices), mask, precision.itemsize)
        for per_block in streams for indices, mask in per_block
    )
    assert counters.gmem_store_transactions == expected
    active = sum(
        (len(indices) if mask is None else int(np.sum(mask)))
        for per_block in streams for indices, mask in per_block
    )
    assert counters.dram_write_bytes == active * precision.itemsize


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision_name", ["float32", "float64"])
def test_unique_line_dram_traffic_matches_oracle(engine, seed, precision_name):
    arch = get_architecture("p100")
    precision = resolve_precision(precision_name)
    streams = _make_streams(seed, BUFFER_ELEMENTS)
    counters = _run_global(engine, arch, precision, streams)
    expected = sum(
        oracle_unique_line_bytes(
            [(list(per_block[b][0]), per_block[b][1]) for per_block in streams],
            precision.itemsize)
        for b in range(NUM_BLOCKS)
    )
    assert counters.dram_read_bytes == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision_name", ["float32", "float64"])
def test_bank_conflicts_match_oracle(engine, seed, precision_name):
    arch = get_architecture("p100")
    precision = resolve_precision(precision_name)
    itemsize = precision.itemsize
    streams = _make_streams(seed, SMEM_ELEMENTS,
                            patterns=("contiguous", "broadcast", "strided"))
    counters = _run_shared(engine, arch, precision, streams)
    flat = [(list(indices), mask)
            for per_block in streams for indices, mask in per_block]
    loads, broadcasts, conflicts = oracle_smem_counts(flat, itemsize, is_store=False)
    assert counters.smem_load == loads
    assert counters.smem_broadcast == broadcasts
    assert counters.smem_bank_conflicts == conflicts


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
def test_bank_conflicts_on_stores_match_oracle(engine, seed):
    arch = get_architecture("v100")
    precision = resolve_precision("float64")
    streams = _make_streams(seed, SMEM_ELEMENTS, patterns=("strided",))
    counters = _run_shared(engine, arch, precision, streams, store=True)
    flat = [(list(indices), mask)
            for per_block in streams for indices, mask in per_block]
    stores, _, conflicts = oracle_smem_counts(flat, precision.itemsize, is_store=True)
    assert counters.smem_store == stores
    assert counters.smem_bank_conflicts == conflicts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision_name", ["float32", "float64"])
def test_engines_agree_counter_for_counter(seed, precision_name):
    """One-block contexts and one whole-batch context must agree on every
    counter."""
    arch = get_architecture("p100")
    precision = resolve_precision(precision_name)
    gstreams = _make_streams(seed, BUFFER_ELEMENTS,
                             patterns=("contiguous", "strided"))
    sstreams = _make_streams(seed + 100, SMEM_ELEMENTS,
                             patterns=("broadcast", "strided"))
    for runner, streams in ((_run_global, gstreams), (_run_shared, sstreams)):
        legacy = runner("legacy", arch, precision, streams)
        batched = runner("batched", arch, precision, streams)
        assert legacy.as_dict() == batched.as_dict()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
def test_active_and_divergent_warps_match_oracle(engine, seed):
    arch = get_architecture("p100")
    precision = resolve_precision("float32")
    streams = _make_streams(seed, BUFFER_ELEMENTS, patterns=("warp-uniform",))
    expected = [oracle_warps(indices, mask)
                for per_block in streams for indices, mask in per_block]
    active = sum(a for a, _ in expected)
    divergent = sum(d for _, d in expected)
    loads = _run_global(engine, arch, precision, streams)
    stores = _run_global(engine, arch, precision, streams, store=True)
    assert loads.gmem_load == stores.gmem_store == active
    assert loads.divergent_branches == stores.divergent_branches == divergent
    assert 0 < divergent < active < NUM_BLOCKS * NUM_ACCESSES * 3


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision_name", ["float32", "float64"])
def test_byte_counts_match_oracle(engine, seed, precision_name):
    arch = get_architecture("v100")
    precision = resolve_precision(precision_name)
    streams = _make_streams(seed, SMEM_ELEMENTS, patterns=("warp-uniform",))
    lanes = sum(oracle_active_lanes(indices, mask)
                for per_block in streams for indices, mask in per_block)
    nbytes = lanes * precision.itemsize
    assert _run_global(engine, arch, precision, streams).cache_read_bytes == nbytes
    assert _run_global(engine, arch, precision, streams,
                       store=True).dram_write_bytes == nbytes
    assert _run_shared(engine, arch, precision, streams).smem_read_bytes == nbytes
    assert _run_shared(engine, arch, precision, streams,
                       store=True).smem_write_bytes == nbytes


# ------------------------------------------------- the whole counter set

SHUFFLES, OVERHEAD, UNIFORM_INDEX = 3, 5.0, 5


def _run_program(engine, arch, precision, gstreams, sstreams):
    """Every counted operation of the context, on every block."""
    counters = KernelCounters()
    memory = GlobalMemory()
    source = memory.allocate((BUFFER_ELEMENTS,), precision, name="src")
    target = memory.allocate((BUFFER_ELEMENTS,), precision, name="dst")
    for ctx, blocks in _contexts(engine, arch, counters, precision):
        for per_block in gstreams:
            indices, mask = _operands(per_block, blocks)
            values = ctx.load_global(source, indices, mask=mask)
            ctx.store_global(target, indices, values, mask=mask)
        smem = ctx.alloc_shared("s", (SMEM_ELEMENTS,))
        for per_block in sstreams:
            indices, mask = _operands(per_block, blocks)
            ctx.store_shared(smem, indices, np.float64(1.0), mask=mask)
            ctx.syncthreads()
            ctx.load_shared(smem, indices, mask=mask)
        ctx.load_shared(smem, np.int64(UNIFORM_INDEX))  # warp-uniform read
        lanes = ctx.thread_idx_x.astype(ctx.numpy_dtype)
        shuffled = ctx.shfl_down(ctx.shfl_up(lanes, 1), 2)
        shuffled = ctx.shfl_idx(shuffled, 0)
        ctx.syncthreads()
        ctx.mad(shuffled, shuffled, ctx.add(shuffled, ctx.mul(lanes, lanes)))
        ctx.overhead(OVERHEAD)
        ctx.finalize()
    return counters


def oracle_counters(gstreams, sstreams, itemsize):
    """Brute force value of every counter for :func:`_run_program`."""
    warps = BLOCK_THREADS // WARP_SIZE
    expected = dict.fromkeys(KernelCounters().as_dict(), 0)
    expected["blocks_executed"] = NUM_BLOCKS
    expected["warps_executed"] = NUM_BLOCKS * warps
    for per_block in gstreams:
        for indices, mask in per_block:
            active, divergent = oracle_warps(indices, mask)
            sectors = oracle_warp_sectors(list(indices), mask, itemsize)
            lanes = oracle_active_lanes(indices, mask)
            expected["gmem_load"] += active
            expected["gmem_store"] += active
            expected["divergent_branches"] += 2 * divergent
            expected["gmem_load_transactions"] += sectors
            expected["gmem_store_transactions"] += sectors
            expected["cache_read_bytes"] += lanes * itemsize
            expected["dram_write_bytes"] += lanes * itemsize
    expected["dram_read_bytes"] = sum(
        oracle_unique_line_bytes([per_block[b] for per_block in gstreams],
                                 itemsize)
        for b in range(NUM_BLOCKS))
    accesses = [(list(indices), mask)
                for per_block in sstreams for indices, mask in per_block]
    uniform = [([UNIFORM_INDEX] * BLOCK_THREADS, None)] * NUM_BLOCKS
    stores, _, store_conflicts = oracle_smem_counts(accesses, itemsize,
                                                    is_store=True)
    loads, broadcasts, load_conflicts = oracle_smem_counts(
        accesses + uniform, itemsize, is_store=False)
    lanes = sum(oracle_active_lanes(indices, mask) for indices, mask in accesses)
    expected.update(smem_store=stores, smem_load=loads,
                    smem_broadcast=broadcasts,
                    smem_bank_conflicts=store_conflicts + load_conflicts,
                    smem_read_bytes=(lanes + NUM_BLOCKS * BLOCK_THREADS) * itemsize,
                    smem_write_bytes=lanes * itemsize)
    per_warp = NUM_BLOCKS * warps
    expected["shfl"] = SHUFFLES * per_warp
    expected["sync"] = (len(sstreams) + 1) * per_warp
    expected["fma"] = expected["add"] = expected["mul"] = per_warp
    expected["misc"] = OVERHEAD * per_warp
    return expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision_name", ["float32", "float64"])
def test_every_counter_matches_oracle(engine, seed, precision_name):
    arch = get_architecture("p100")
    precision = resolve_precision(precision_name)
    gstreams = _make_streams(seed, BUFFER_ELEMENTS,
                             patterns=("contiguous", "strided", "warp-uniform"))
    sstreams = _make_streams(seed + 100, SMEM_ELEMENTS,
                             patterns=("broadcast", "strided", "warp-uniform"))
    counters = _run_program(engine, arch, precision, gstreams, sstreams)
    assert counters.as_dict() == oracle_counters(gstreams, sstreams,
                                                 precision.itemsize)
