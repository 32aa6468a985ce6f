"""Output checks and the simulated-statistics digest (standard library only).

Every operation a workload attempts is checked here or in
:mod:`workloads`; a check that fails counts the operation as failed.  The
digest folds every simulated statistic of a run (counters, modelled
milliseconds, output digests, exact counts) into one short hash.  It holds
no timing, so it must read the same for every run and every seed: a change
that only claims speed shows it changed no simulated result.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping, Optional

#: max absolute error of a sweep cell against its float64 CPU oracle; the
#: values the differential test matrix (tests/test_scenario_matrix.py) uses
ORACLE_TOLERANCE = {"float32": 1e-4, "float64": 1e-9}


def digest(value: object) -> str:
    """16-hex digest of JSON-serialisable data (dict key order ignored)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _within_tolerance(engine, precision, output_digest, error) -> bool:
    """One cell: a functional output within its precision's tolerance of
    the CPU oracle, or a model-engine cell (no output, no error)."""
    if output_digest is None:
        return engine == "model" and error is None
    tolerance = ORACLE_TOLERANCE.get(str(precision))
    return (tolerance is not None and error is not None
            and 0.0 <= float(error) <= tolerance)


def cell_payload_ok(payload: Optional[Mapping[str, object]]) -> bool:
    """A sweep cell payload: present, timed by the model, within tolerance."""
    if not payload or payload.get("milliseconds") is None:
        return False
    case = payload.get("case") or {}
    return _within_tolerance(case.get("engine"), case.get("precision"),
                             payload.get("output_digest"),
                             payload.get("oracle_max_abs_error"))


def sweep_result_ok(result: Mapping[str, object], total: int) -> bool:
    """A served sweep artifact: one in-tolerance row per submitted cell."""
    rows = result.get("measurements") or []
    if len(rows) != total:
        return False
    for row in rows:
        extra = row.get("extra") or {}
        if row.get("milliseconds") is None or not _within_tolerance(
                extra.get("engine"), extra.get("precision"),
                extra.get("output_digest"), extra.get("oracle_max_abs_error")):
            return False
    return True


def cells_ok(cells: Iterable[Mapping[str, object]], total: int) -> bool:
    """A run's NDJSON cell stream: every cell present with a good payload."""
    cells = list(cells)
    return (len(cells) == total
            and len({c.get("cell") for c in cells}) == total
            and all(cell_payload_ok(c.get("payload")) for c in cells))


def sweep_statistics(result: Mapping[str, object]) -> list:
    """The simulated statistics of one served sweep artifact, row by row."""
    return [{"case": (row.get("extra") or {}).get("case_id"),
             "milliseconds": row.get("milliseconds"),
             "counters": row.get("counters"),
             "output": (row.get("extra") or {}).get("output_digest")}
            for row in result.get("measurements") or []]
