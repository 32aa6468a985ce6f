"""Validation of the Section 5 analytical performance model.

Two layers of validation:

* **Paper claims** (Sections 5.2 and 5.3) — ``Dif_smem_reg = M*N*T_smem_read
  - (M-1)*T_shfl >> 0`` for M, N >= 2 on both architectures, and the
  halo-overhead-adjusted advantage ``AvgDif`` grows with the filter size and
  is positive for all practically relevant filters.
* **Cross-engine validation** — now that the model is a first-class
  execution engine (``engine="model"``), every registered scenario that
  supports both the model and a functional engine is run through *both* at
  a functional problem size, and the per-kernel prediction error bounds
  (``model / simulated`` time ratios) are reported.  The simulation cells
  reuse the sweep engine's workers and cache keys, so a sweep that already
  ran leaves this experiment with only the closed-form halves to compute.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..analysis.metrics import error_bounds, relative_error
from ..analysis.tables import format_table
from ..core.performance_model import (
    advantage_table,
    average_advantage,
    latency_advantage,
)
from .jobs import SimulationJob
from .results import ExperimentResult, Measurement

TITLE = "Section 5 performance-model validation"
FILTER_SIZES = (2, 3, 5, 7, 9, 11, 15, 20)
#: reduced sweep used by --quick runs
QUICK_FILTER_SIZES = (2, 5, 9, 20)
ARCHITECTURES = ("p100", "v100", "a100", "h100")
#: the parts the paper's boolean claims are stated for.  The halo-adjusted
#: positivity claim does NOT extrapolate to Hopper: its much larger
#: global-memory latency makes halo reloads dominate at M = 5, so the
#: modern parts carry their own claim with the shifted threshold below.
CLAIM_ARCHITECTURES = ("p100", "v100")
MODERN_CLAIM_ARCHITECTURES = ("a100", "h100")
#: smallest square filter with a positive halo-adjusted advantage on every
#: modern part (H100 turns positive at M = 6, A100 already at M = 2)
MODERN_POSITIVE_MIN_EXTENT = 6
#: the exhaustive M/N extent of the full claim checks; --quick uses the
#: reduced extent (the claims are monotone, so the booleans are unchanged)
CLAIM_MAX_EXTENT = 21
QUICK_CLAIM_MAX_EXTENT = 9

#: functional engine the model predictions are validated against (one-block
#: batches, the scalar engine, are bit-identical, so one reference suffices)
REFERENCE_ENGINE = "batched"
#: problem size of the cross-engine cells; --quick shrinks it
CROSS_SIZE = "small"
QUICK_CROSS_SIZE = "tiny"


def run(architectures: Sequence[str] = ARCHITECTURES,
        filter_sizes: Sequence[int] = FILTER_SIZES,
        outputs_per_thread: int = 4) -> List[Dict[str, object]]:
    """Evaluate the Section 5 quantities over a sweep of filter sizes."""
    rows: List[Dict[str, object]] = []
    for arch in architectures:
        rows.extend(_measure_advantage(arch, list(filter_sizes),
                                       outputs_per_thread)["rows"])
    return rows


def claims(architectures: Sequence[str] = CLAIM_ARCHITECTURES,
           max_extent: int = CLAIM_MAX_EXTENT) -> Dict[str, bool]:
    """The boolean claims the paper makes about the model.

    The first three entries are the paper's claims, evaluated on the parts
    the paper evaluates (``CLAIM_ARCHITECTURES`` by default).  The modern
    claim re-states the positivity property for Ampere/Hopper with the
    threshold shifted to ``MODERN_POSITIVE_MIN_EXTENT`` — at M = 5 the
    H100's global-memory latency makes the halo reloads outweigh the
    scratchpad savings, so the paper's M >= 5 form is genuinely false there.
    """
    eq5 = all(
        latency_advantage(arch, m, n) > 0
        for arch in architectures
        for m in range(2, max_extent) for n in range(2, max_extent)
    )
    growth = all(
        average_advantage(arch, size + 1, size + 1, 4) > average_advantage(arch, size, size, 4)
        for arch in architectures for size in range(2, max_extent - 1)
    )
    large_filters_positive = all(
        average_advantage(arch, size, size, 4) > 0
        for arch in architectures for size in range(5, max_extent)
    )
    modern_positive = all(
        average_advantage(arch, size, size, 4) > 0
        for arch in MODERN_CLAIM_ARCHITECTURES
        for size in range(MODERN_POSITIVE_MIN_EXTENT, max_extent)
    )
    return {
        "eq5_advantage_positive_for_all_M_N_ge_2": eq5,
        "halo_adjusted_advantage_grows_with_filter": growth,
        "halo_adjusted_advantage_positive_for_M_ge_5": large_filters_positive,
        "halo_adjusted_advantage_positive_for_M_ge_6_on_modern": modern_positive,
    }


def _measure_advantage(architecture: str, filter_sizes: List[int],
                       outputs_per_thread: int = 4) -> Dict[str, object]:
    """Worker: the Section 5 advantage sweep on one architecture."""
    rows = [
        {"architecture": architecture, **row, "eq5_positive": row["dif_cycles"] > 0}
        for row in advantage_table(architecture, filter_sizes, outputs_per_thread)
    ]
    return {"rows": rows}


def _measure_claims(architectures: List[str], max_extent: int) -> Dict[str, object]:
    """Worker: the boolean paper claims over the given extent."""
    return {"claims": claims(tuple(architectures), max_extent)}


# ------------------------------------------------------- cross-engine cells

def cross_validation_cases(quick: bool = False) -> List[Tuple[object, object]]:
    """(simulated case, model case) pairs for every model-capable scenario.

    Derived entirely from the registry envelopes: a scenario contributes
    when it supports both the reference engine and the model engine at the
    validation size, on each evaluated architecture and every precision it
    declares.  Registering a new kernel therefore extends this experiment
    with no edits here.
    """
    from ..scenarios import all_scenarios
    from ..scenarios.registry import ScenarioCase

    size = QUICK_CROSS_SIZE if quick else CROSS_SIZE
    pairs: List[Tuple[object, object]] = []
    for scenario in all_scenarios():
        for arch in ARCHITECTURES:
            for precision in scenario.precisions:
                if not (scenario.supports(arch, precision, REFERENCE_ENGINE, size)
                        and scenario.supports(arch, precision, "model", size)):
                    continue
                pairs.append((
                    ScenarioCase(scenario.name, arch, precision,
                                 REFERENCE_ENGINE, size),
                    ScenarioCase(scenario.name, arch, precision, "model", size),
                ))
    return pairs


def _cross_jobs(quick: bool) -> List[SimulationJob]:
    """One sweep-engine job per cross-validation cell (cache-shared)."""
    from ..scenarios.sweep import case_cache_fields, case_job_key

    jobs: List[SimulationJob] = []
    for pair in cross_validation_cases(quick):
        for case in pair:
            jobs.append(SimulationJob(
                key=case_job_key(case),
                func="repro.scenarios.sweep:_measure_case",
                params=case.to_dict(),
                cache_fields=case_cache_fields(case),
            ))
    return jobs


# --------------------------------------------------------------- pipeline

def jobs(quick: bool = False) -> List[SimulationJob]:
    """Advantage sweeps + claim checks + the cross-engine cell matrix."""
    sizes = list(QUICK_FILTER_SIZES if quick else FILTER_SIZES)
    max_extent = QUICK_CLAIM_MAX_EXTENT if quick else CLAIM_MAX_EXTENT
    out = [
        SimulationJob(
            key=f"model:advantage:{arch}:{'-'.join(map(str, sizes))}",
            func="repro.experiments.model_validation:_measure_advantage",
            params={"architecture": arch, "filter_sizes": sizes,
                    "outputs_per_thread": 4},
            cache_fields={"kernel": "performance_model:advantage",
                          "architecture": arch, "engine": "closed_form"},
        )
        for arch in ARCHITECTURES
    ]
    out.append(SimulationJob(
        key=f"model:claims:m{max_extent}",
        func="repro.experiments.model_validation:_measure_claims",
        params={"architectures": list(CLAIM_ARCHITECTURES),
                "max_extent": max_extent},
        cache_fields={"kernel": "performance_model:claims",
                      "engine": "closed_form"},
    ))
    out.extend(_cross_jobs(quick))
    return out


def assemble(payloads: Dict[str, Dict[str, object]],
             quick: bool = False) -> ExperimentResult:
    from ..scenarios.sweep import case_job_key

    sizes = list(QUICK_FILTER_SIZES if quick else FILTER_SIZES)
    max_extent = QUICK_CLAIM_MAX_EXTENT if quick else CLAIM_MAX_EXTENT
    measurements = []
    for arch in ARCHITECTURES:
        key = f"model:advantage:{arch}:{'-'.join(map(str, sizes))}"
        for row in payloads[key]["rows"]:
            measurements.append(Measurement(
                kernel="register_cache_advantage", architecture=arch,
                workload=str(row.get("filter", row.get("M", ""))),
                config={"outputs_per_thread": 4},
                value=row.get("dif_cycles"), unit="cycles", extra=row))
    claims_payload = payloads[f"model:claims:m{max_extent}"]["claims"]

    # cross-engine validation: one measurement per (simulated, model) pair
    ratios_by_kernel: Dict[str, List[float]] = {}
    for sim_case, model_case in cross_validation_cases(quick):
        simulated = payloads[case_job_key(sim_case)]["milliseconds"]
        predicted = payloads[case_job_key(model_case)]["milliseconds"]
        ratio = predicted / simulated
        ratios_by_kernel.setdefault(sim_case.scenario, []).append(ratio)
        measurements.append(Measurement(
            kernel=sim_case.scenario,
            architecture=sim_case.architecture,
            workload=f"{sim_case.size}/{sim_case.precision}",
            value=ratio, unit="x",
            extra={
                "kind": "cross_engine",
                "scenario": sim_case.scenario,
                "architecture": sim_case.architecture,
                "precision": sim_case.precision,
                "size": sim_case.size,
                "simulated_ms": simulated,
                "model_ms": predicted,
                "ratio": ratio,
                "relative_error": relative_error(predicted, simulated),
            }))
    bounds = {kernel: {"cases": len(ratios), **error_bounds(ratios)}
              for kernel, ratios in sorted(ratios_by_kernel.items())}
    return ExperimentResult(
        experiment="model", title=TITLE, quick=quick,
        measurements=measurements,
        metadata={"claims": claims_payload, "claim_max_extent": max_extent,
                  "cross_engine": {
                      "reference_engine": REFERENCE_ENGINE,
                      "size": QUICK_CROSS_SIZE if quick else CROSS_SIZE,
                      "bounds": bounds,
                  }})


def render(result: ExperimentResult) -> str:
    advantage_rows = result.rows(kernel="register_cache_advantage")
    text = f"{TITLE}\n" + format_table(advantage_rows)
    text += "\n\nclaims: " + str(result.metadata["claims"])
    cross = result.metadata.get("cross_engine") or {}
    bounds = cross.get("bounds") or {}
    if bounds:
        rows = [
            {"kernel": kernel,
             "cases": entry["cases"],
             "ratio_min": entry["min"],
             "ratio_max": entry["max"],
             "ratio_geomean": entry["geomean"]}
            for kernel, entry in bounds.items()
        ]
        text += ("\n\ncross-engine validation — model vs "
                 f"{cross.get('reference_engine')} engine at size "
                 f"{cross.get('size')!r} (ratio = model/simulated, 1.0 = exact)\n")
        text += format_table(rows)
    return text


def report(quick: bool = False) -> str:
    """Formatted model-validation report."""
    from .parallel import execute_jobs

    return render(assemble(execute_jobs(jobs(quick)), quick))
