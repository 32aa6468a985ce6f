"""Amortized compaction in the batched DRAM traffic tracker.

The tracker folds pending line matrices into sentinel-padded unique
segments.  These tests pin the two properties the size-tiered (LSM-style)
merge scheme guarantees:

* **exactness** — finalize equals a naive per-block set union on any
  pattern, masked or not, regardless of fold boundaries;
* **bounded work** — on the adversarial zero-reuse pattern (every access
  touches fresh cache lines, so the working set never stops growing),
  doubling the recorded volume costs at most a little over double the
  compaction work.  A single-compact-matrix scheme re-sorts the entire
  accumulated working set each fold, which is quadratic: doubling the
  volume would quadruple the work and fail the bound here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu.memory import BatchedTrafficTracker
from repro.gpu.memory import DeviceBuffer


def _buffer(buffer_id: int = 0) -> DeviceBuffer:
    return DeviceBuffer(array=np.zeros(1 << 20, dtype=np.float32),
                        name=f"buf{buffer_id}")


def _naive_bytes(records, num_blocks, line_bytes=128):
    """Reference: per-block set union of active lines."""
    per_block = [set() for _ in range(num_blocks)]
    for lines, mask in records:
        for b in range(num_blocks):
            active = lines[b] if mask is None else lines[b][mask[b]]
            per_block[b].update(int(x) for x in active)
    return float(sum(len(s) for s in per_block) * line_bytes)


@pytest.mark.parametrize("compact_columns", [4, 32, 256])
def test_finalize_matches_naive_union(compact_columns):
    """Fold/merge boundaries never change the counted traffic."""
    rng = np.random.default_rng(compact_columns)
    num_blocks, lanes = 7, 32
    buffer = _buffer()
    tracker = BatchedTrafficTracker(num_blocks,
                                    compact_columns=compact_columns)
    records = []
    for i in range(40):
        lines = rng.integers(0, 500, size=(num_blocks, lanes))
        mask = None if i % 3 == 0 else rng.random((num_blocks, lanes)) < 0.7
        records.append((lines, mask))
        tracker.record_read(buffer, lines, mask)
    assert tracker.finalize() == _naive_bytes(records, num_blocks)


def test_finalize_handles_multiple_buffers_and_reuse():
    rng = np.random.default_rng(1)
    num_blocks, lanes = 5, 16
    buffers = [_buffer(0), _buffer(1)]
    tracker = BatchedTrafficTracker(num_blocks, compact_columns=8)
    per_buffer = {0: [], 1: []}
    for i in range(30):
        which = i % 2
        # heavy reuse: a tiny line universe
        lines = rng.integers(0, 12, size=(num_blocks, lanes))
        per_buffer[which].append((lines, None))
        tracker.record_read(buffers[which], lines, None)
    expected = sum(_naive_bytes(per_buffer[w], num_blocks) for w in (0, 1))
    assert tracker.finalize() == expected


def _adversarial_work(num_records: int, compact_columns: int = 64) -> int:
    """Compaction work for ``num_records`` zero-reuse recordings."""
    num_blocks, lanes = 4, 32
    buffer = _buffer()
    tracker = BatchedTrafficTracker(num_blocks,
                                    compact_columns=compact_columns)
    for i in range(num_records):
        # every record touches lines never seen before: worst case for any
        # compaction scheme, the working set grows without bound
        base = i * lanes
        lines = np.broadcast_to(np.arange(base, base + lanes),
                                (num_blocks, lanes))
        tracker.record_read(buffer, lines, None)
    tracker.finalize()
    return tracker.compaction_work


def test_adversarial_compaction_work_is_amortized():
    """Doubling the zero-reuse volume at most ~doubles compaction work.

    Size-tiered merging costs O(n log n): work(2n)/work(n) stays near
    2 * log(2n)/log(n).  The quadratic single-matrix scheme this replaced
    sits at 4x and fails the bound.
    """
    work_n = _adversarial_work(256)
    work_2n = _adversarial_work(512)
    assert work_n > 0
    assert work_2n / work_n < 3.0


def test_reuse_pattern_work_is_linear():
    """With full reuse the working set is constant: work scales ~linearly."""
    def work(n):
        num_blocks, lanes = 4, 32
        tracker = BatchedTrafficTracker(num_blocks, compact_columns=64)
        buffer = _buffer()
        lines = np.broadcast_to(np.arange(lanes), (num_blocks, lanes))
        for _ in range(n):
            tracker.record_read(buffer, lines, None)
        tracker.finalize()
        return tracker.compaction_work

    work_n, work_2n = work(256), work(512)
    assert work_n > 0
    assert work_2n / work_n < 2.5


def test_segment_count_stays_logarithmic():
    """Live segments per buffer stay O(log recorded-columns)."""
    num_blocks, lanes = 2, 32
    buffer = _buffer()
    tracker = BatchedTrafficTracker(num_blocks, compact_columns=32)
    for i in range(1024):
        base = i * lanes
        lines = np.broadcast_to(np.arange(base, base + lanes),
                                (num_blocks, lanes))
        tracker.record_read(buffer, lines, None)
    (segments,) = tracker._segments.values()
    assert len(segments) <= 16  # ~log2(1024 * 32 / 32) plus slack
    # widths decrease geometrically: the size-tier invariant held
    widths = [s.shape[1] for s in segments]
    assert widths == sorted(widths, reverse=True)


def test_cached_buffers_are_not_tracked():
    tracker = BatchedTrafficTracker(2)
    cached = DeviceBuffer(array=np.zeros(64, dtype=np.float32),
                          name="weights", cached=True)
    tracker.record_read(cached, np.zeros((2, 8), dtype=np.int64), None)
    assert tracker.finalize() == 0.0
    assert tracker.compaction_work == 0
