"""The scenario registry: every kernel/baseline declared once, as data.

A :class:`Scenario` bundles everything the rest of the repository needs to
exercise one implementation — a spec builder, a workload builder, a planner,
a runner entry point, a CPU oracle and the supported
(architecture x precision x engine) envelope.  Registering a scenario makes
it visible to three consumers at once:

* the sweep engine (:mod:`repro.scenarios.sweep`), which expands declarative
  Cartesian matrices over the registry into cached simulation jobs;
* the auto-generated differential test matrix (``tests/test_scenario_matrix``),
  which derives oracle and engine-parity checks for every registered case;
* the experiment modules, which look implementations up by name instead of
  importing each kernel wrapper ad hoc.

Adding a kernel therefore means one registration call — its sweep cells and
its correctness suite exist immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.launch_defaults import resolve_launch_defaults
from ..dtypes import resolve_precision
from ..errors import ConfigurationError
from ..gpu.architecture import architecture_names
from ..serialization import stable_digest

#: execution engines a scenario may support: the block context one block per
#: batch (``scalar``) or memory-budgeted batches (``batched``), the compiled
#: trace-replay engine, the closed-form instruction/traffic profile, and the
#: Section 5 analytic performance model
ENGINES: Tuple[str, ...] = ("scalar", "batched", "replay", "analytic", "model")

#: engines that evaluate closed forms instead of executing the kernel; these
#: never build a workload array and never produce a functional output
NON_EXECUTING_ENGINES: Tuple[str, ...] = ("analytic", "model")

#: how each functional engine maps onto the kernels' ``batch_size`` parameter
ENGINE_BATCH_SIZE: Dict[str, object] = {"scalar": 1, "batched": "auto",
                                        "replay": "replay"}

#: the launch parameters a scenario may declare tunable: the sliding-window
#: depth P and the CUDA block size B of Section 7.1's design-space study,
#: plus the per-dimension block shape R (warp rows per block) the extended
#: space explores on 2-D kernels
TUNABLE_PARAMETERS: Tuple[str, ...] = ("outputs_per_thread", "block_threads",
                                       "block_rows")

#: reserved parameter key carrying the default-resolution provenance
#: (``"explicit"``/``"tuned"``/``"paper"`` or a chain combination) from the
#: registry's one resolution point down to planners and result records
LAUNCH_DEFAULTS_SOURCE_KEY = "launch_defaults_source"


def _normalise_plan_kwargs(plan_kwargs: object) -> Tuple[Tuple[str, int], ...]:
    """Canonical (hashable, sorted) form of a launch-parameter override set."""
    if not plan_kwargs:
        return ()
    items = dict(plan_kwargs).items()
    try:
        return tuple(sorted((str(k), int(v)) for k, v in items))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"plan_kwargs values must be integers, got {dict(plan_kwargs)!r}"
        ) from exc


@dataclass(frozen=True)
class ScenarioCase:
    """One fully resolved cell of the scenario space.

    The five axes mirror the paper's evaluation matrix: implementation,
    GPU generation, precision, execution engine and problem size.  A sixth,
    optional axis — ``plan_kwargs`` — carries launch-parameter overrides
    (``outputs_per_thread``/``block_threads``), making the Section 7.1
    design space a first-class sweep dimension; it is stored canonically as
    a sorted tuple of pairs so cases stay hashable and deduplicable.
    """

    scenario: str
    architecture: str
    precision: str
    engine: str
    size: str
    plan_kwargs: object = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan_kwargs",
                           _normalise_plan_kwargs(self.plan_kwargs))

    @property
    def plan_overrides(self) -> Dict[str, int]:
        """The launch-parameter overrides as a plain mapping."""
        return dict(self.plan_kwargs)

    @property
    def case_id(self) -> str:
        """Deterministic identifier, e.g. ``"conv2d:p100:float32:batched:tiny"``.

        Launch-parameter overrides append a deterministic suffix
        (``...:tiny:block_threads=256,outputs_per_thread=2``); cases without
        overrides keep their historical five-part identifier.
        """
        base = (f"{self.scenario}:{self.architecture}:{self.precision}:"
                f"{self.engine}:{self.size}")
        if self.plan_kwargs:
            base += ":" + ",".join(f"{k}={v}" for k, v in self.plan_kwargs)
        return base

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "scenario": self.scenario, "architecture": self.architecture,
            "precision": self.precision, "engine": self.engine,
            "size": self.size}
        if self.plan_kwargs:
            out["plan_kwargs"] = dict(self.plan_kwargs)
        return out

    def fingerprint(self) -> str:
        """Stable content hash of this case (cache keys, artifacts)."""
        return stable_digest(self.to_dict())


@dataclass(frozen=True)
class Scenario:
    """One registered implementation and its declarative envelope.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"conv2d"`` or ``"conv2d-npp"``.
    family:
        Problem family (``"convolution"``, ``"stencil"``, ``"scan"``).
    role:
        ``"ssam"`` for the paper's kernels, ``"baseline"`` otherwise.
    dims:
        Dimensionality of the problem domain (1, 2 or 3).
    runner:
        ``runner(spec, workload, params, architecture, precision, engine)``
        returning a :class:`~repro.kernels.KernelRunResult`.
    sizes:
        Named problem sizes; each value is the parameter mapping handed to
        the builders and the runner.  A size may restrict the engines it is
        feasible on with an ``"engines"`` entry (paper-scale domains are
        analytic-only).
    architectures / precisions / engines:
        The supported envelope; case expansion silently skips combinations
        outside it.
    spec_builder:
        ``spec_builder(params)`` returning the problem spec (or ``None`` for
        spec-less scenarios like scan).
    workload_builder:
        ``workload_builder(params, precision)`` returning the input array;
        not invoked for analytic cases.
    planner:
        Optional ``planner(spec, params, architecture, precision)`` returning
        the :class:`~repro.core.plan.SSAMPlan` used by the kernel, exposed so
        tests and cache keys can reason about register budgets.
    oracle:
        Optional ``oracle(spec, workload, params)`` returning the ground-truth
        output on the host; scenarios without one (analytic-only baselines)
        are excluded from functional validation.
    model:
        Optional ``model(spec, params, architecture, precision)`` returning a
        :class:`~repro.kernels.KernelRunResult` predicted by the Section 5
        analytic performance model (:mod:`repro.core.performance_model`);
        required when ``"model"`` appears in ``engines``.
    tunables:
        The launch parameters this scenario accepts as overrides (subset of
        :data:`TUNABLE_PARAMETERS`).  A tunable scenario's runner, model and
        planner all read the overrides from the parameter mapping they are
        handed (the registry merges a case's ``plan_kwargs`` into the size
        parameters), so the whole Section 7.1 design space flows through one
        code path.  Scenarios with no tunables reject any override.
    """

    name: str
    family: str
    dims: int
    runner: Callable[..., object]
    sizes: Mapping[str, Mapping[str, object]]
    architectures: Tuple[str, ...]
    precisions: Tuple[str, ...]
    engines: Tuple[str, ...]
    role: str = "ssam"
    spec_builder: Optional[Callable[..., object]] = None
    workload_builder: Optional[Callable[..., np.ndarray]] = None
    planner: Optional[Callable[..., object]] = None
    oracle: Optional[Callable[..., np.ndarray]] = None
    model: Optional[Callable[..., object]] = None
    tunables: Tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if not self.sizes:
            raise ConfigurationError(f"scenario {self.name!r} declares no sizes")
        for engine in self.engines:
            if engine not in ENGINES:
                raise ConfigurationError(
                    f"scenario {self.name!r} declares unknown engine {engine!r}; "
                    f"expected one of {ENGINES}")
        if "model" in self.engines and self.model is None:
            raise ConfigurationError(
                f"scenario {self.name!r} declares the 'model' engine but "
                f"provides no model evaluator")
        for tunable in self.tunables:
            if tunable not in TUNABLE_PARAMETERS:
                raise ConfigurationError(
                    f"scenario {self.name!r} declares unknown tunable "
                    f"{tunable!r}; expected a subset of {TUNABLE_PARAMETERS}")
        object.__setattr__(self, "architectures", tuple(self.architectures))
        object.__setattr__(self, "precisions", tuple(self.precisions))
        object.__setattr__(self, "engines", tuple(self.engines))
        object.__setattr__(self, "tunables", tuple(self.tunables))
        object.__setattr__(self, "sizes", dict(self.sizes))

    # -- envelope -----------------------------------------------------------
    def resolve_size(self, size: str) -> Dict[str, object]:
        """Parameter mapping of a named size (without the engine restriction)."""
        try:
            params = dict(self.sizes[size])
        except KeyError as exc:
            raise ConfigurationError(
                f"scenario {self.name!r} has no size {size!r}; "
                f"available: {sorted(self.sizes)}") from exc
        params.pop("engines", None)
        return params

    def engines_for(self, size: str) -> Tuple[str, ...]:
        """Engines feasible at a named size (the size may restrict them)."""
        restricted = self.sizes.get(size, {}).get("engines")
        if restricted is None:
            return self.engines
        return tuple(e for e in restricted if e in self.engines)

    def supports(self, architecture: str, precision: str, engine: str,
                 size: Optional[str] = None) -> bool:
        """True when the combination lies inside this scenario's envelope."""
        if architecture not in self.architectures:
            return False
        if precision not in self.precisions:
            return False
        if engine not in self.engines:
            return False
        if size is not None:
            if size not in self.sizes or engine not in self.engines_for(size):
                return False
        return True

    def validate_plan_kwargs(self, plan_kwargs: Mapping[str, object]) -> Dict[str, int]:
        """Check launch-parameter overrides against the tunable envelope."""
        overrides = dict(_normalise_plan_kwargs(plan_kwargs))
        unknown = sorted(set(overrides) - set(self.tunables))
        if unknown:
            raise ConfigurationError(
                f"scenario {self.name!r} does not tune {unknown}; "
                f"tunable parameters: {list(self.tunables) or 'none'}")
        return overrides

    def supports_plan_kwargs(self, plan_kwargs: Mapping[str, object]) -> bool:
        """True when every override key lies inside the tunable envelope."""
        return not plan_kwargs or set(dict(plan_kwargs)) <= set(self.tunables)

    def resolve_tunable_defaults(self, params: Mapping[str, object],
                                 architecture: str,
                                 precision: str) -> Dict[str, object]:
        """Resolve this scenario's tunables through the default chain, once.

        Every tunable key is made concrete in the returned parameter mapping
        (explicit value -> tuned-database hit -> paper constant), and the
        chain outcome is recorded under
        :data:`LAUNCH_DEFAULTS_SOURCE_KEY` so planners, runners and result
        records all see the same values and the same provenance.  This is
        the registry's single resolution point: ``build_plan`` and ``run``
        both route through it, which keeps the plan used for cache keys
        identical to the one the kernel executes even when a tuning
        database is active.
        """
        out = dict(params)
        if not self.tunables:
            return out
        resolved = resolve_launch_defaults(
            self.tunables, architecture=architecture, precision=precision,
            scenario=self.name,
            explicit={key: params.get(key) for key in self.tunables})
        out.update(resolved.values)
        out[LAUNCH_DEFAULTS_SOURCE_KEY] = resolved.source
        return out

    def cases(self, architectures: Optional[Sequence[str]] = None,
              precisions: Optional[Sequence[str]] = None,
              engines: Optional[Sequence[str]] = None,
              sizes: Optional[Sequence[str]] = None,
              plan_kwargs: Optional[Sequence[Mapping[str, object]]] = None,
              ) -> List[ScenarioCase]:
        """Expand the (filtered) envelope into concrete cases.

        ``None`` for an axis means "everything the scenario supports";
        requested values outside the envelope are silently skipped, so one
        matrix can span scenarios with different envelopes.  ``plan_kwargs``
        is a sequence of launch-parameter override mappings (default: the
        single empty override); override sets naming parameters a scenario
        does not tune are skipped like any other out-of-envelope value.
        """
        archs = self.architectures if architectures is None else architectures
        precs = self.precisions if precisions is None else precisions
        engs = self.engines if engines is None else engines
        names = tuple(self.sizes) if sizes is None else sizes
        overrides = [{}] if plan_kwargs is None else list(plan_kwargs)
        out: List[ScenarioCase] = []
        for size in names:
            if size not in self.sizes:
                continue
            for arch in archs:
                for prec in precs:
                    for engine in engs:
                        if not self.supports(arch, prec, engine, size):
                            continue
                        for kwargs in overrides:
                            if not self.supports_plan_kwargs(kwargs):
                                continue
                            out.append(ScenarioCase(self.name, arch, prec,
                                                    engine, size, kwargs))
        return out

    # -- building blocks ----------------------------------------------------
    def build_spec(self, size: str):
        """The problem spec of a named size (``None`` for spec-less scenarios)."""
        if self.spec_builder is None:
            return None
        return self.spec_builder(self.resolve_size(size))

    def build_workload(self, size: str, precision: str) -> Optional[np.ndarray]:
        """The input array of a named size (``None`` when not applicable)."""
        if self.workload_builder is None:
            return None
        return self.workload_builder(self.resolve_size(size), precision)

    def build_plan(self, size: str, architecture: str, precision: str,
                   plan_kwargs: Optional[Mapping[str, object]] = None):
        """The SSAM plan of a named size, when the scenario has a planner.

        ``plan_kwargs`` overrides the launch parameters (P, B) exactly as
        the runner sees them, so cache keys and tests reason about the same
        plan the kernel will execute.
        """
        if self.planner is None:
            return None
        params = self.resolve_size(size)
        if plan_kwargs:
            params.update(self.validate_plan_kwargs(plan_kwargs))
        params = self.resolve_tunable_defaults(params, architecture, precision)
        return self.planner(self.build_spec(size), params,
                            architecture, precision)

    # -- execution -----------------------------------------------------------
    def run(self, spec, workload, params: Mapping[str, object],
            architecture: str, precision: str, engine: str,
            plan_kwargs: Optional[Mapping[str, object]] = None):
        """Low-level entry point: run with explicit spec/workload/params.

        ``plan_kwargs`` (validated against the tunable envelope) is merged
        into the parameter mapping handed to the runner or model, which
        thread the overrides into the kernel entry points.
        """
        if engine not in self.engines:
            raise ConfigurationError(
                f"scenario {self.name!r} does not support engine {engine!r}")
        params = dict(params)
        if plan_kwargs:
            params.update(self.validate_plan_kwargs(plan_kwargs))
        params = self.resolve_tunable_defaults(params, architecture, precision)
        if engine == "model":
            return self.model(spec, params, architecture, precision)
        return self.runner(spec, workload, params, architecture,
                           precision, engine)

    def run_case(self, case: ScenarioCase):
        """Run one expanded case end to end (builds spec + workload)."""
        if case.scenario != self.name:
            raise ConfigurationError(
                f"case {case.case_id!r} does not belong to scenario {self.name!r}")
        if not self.supports(case.architecture, case.precision, case.engine,
                             case.size):
            raise ConfigurationError(
                f"case {case.case_id!r} lies outside the scenario envelope")
        params = self.resolve_size(case.size)
        spec = self.build_spec(case.size)
        workload = (None if case.engine in NON_EXECUTING_ENGINES
                    else self.build_workload(case.size, case.precision))
        return self.run(spec, workload, params, case.architecture,
                        case.precision, case.engine,
                        plan_kwargs=case.plan_overrides)

    def run_analytic(self, spec, params: Mapping[str, object],
                     architecture: str, precision: str):
        """Analytic evaluation with an explicit spec and domain parameters.

        Used by the experiment modules, which sweep their own specs/domains
        rather than the registry's named sizes.
        """
        return self.run(spec, None, params, architecture, precision, "analytic")

    def oracle_output(self, case: ScenarioCase) -> np.ndarray:
        """Ground-truth output of one case, computed on the host."""
        if self.oracle is None:
            raise ConfigurationError(
                f"scenario {self.name!r} has no CPU oracle")
        params = self.resolve_size(case.size)
        spec = self.build_spec(case.size)
        workload = self.build_workload(case.size, case.precision)
        return self.oracle(spec, workload, params)

    def analysis(self, architecture: str = "p100",
                 precision: str = "float32", size: Optional[str] = None):
        """Static verification report of this scenario's kernel traces.

        Auto-derived like the differential matrices: runs the scenario once
        through the replay engine under a trace capture and verifies every
        recorded trace (races, bounds, performance lint, static-vs-dynamic
        counter cross-check).  Returns a
        :class:`repro.analysis.scenario.ScenarioAnalysis`.
        """
        from ..analysis.scenario import analyze_scenario

        return analyze_scenario(self.name, architecture=architecture,
                                precision=precision, size=size)


# ---------------------------------------------------------------------------
# the registry proper
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Register a scenario; duplicate names are configuration errors."""
    if scenario.name in _REGISTRY:
        raise ConfigurationError(
            f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def unregister(name: str) -> None:
    """Remove a scenario (tests registering throwaway scenarios clean up)."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {sorted(_REGISTRY)}") from exc


def scenario_names(family: Optional[str] = None,
                   role: Optional[str] = None) -> List[str]:
    """Registered names in registration order, optionally filtered."""
    return [s.name for s in all_scenarios(family=family, role=role)]


def all_scenarios(family: Optional[str] = None,
                  role: Optional[str] = None) -> List[Scenario]:
    """Registered scenarios in registration order, optionally filtered."""
    out = []
    for scenario in _REGISTRY.values():
        if family is not None and scenario.family != family:
            continue
        if role is not None and scenario.role != role:
            continue
        out.append(scenario)
    return out


def expand_matrix(matrix: Mapping[str, object]) -> List[ScenarioCase]:
    """Expand a declarative Cartesian matrix into concrete cases.

    The matrix is a JSON-style mapping with up to five axes::

        {"scenarios": ["conv2d", "scan"],     # or "all", "ssam", a family name
         "architectures": ["p100", "v100"],   # or "all"
         "precisions": ["float32", "float64"],
         "engines": ["scalar", "batched"],
         "sizes": ["tiny"],
         "plan_kwargs": [{}, {"block_threads": 256}]}   # optional sixth axis

    Omitted axes (or ``"all"``) default to each scenario's full envelope;
    combinations outside an envelope are skipped, so one matrix can span
    scenarios with different capabilities.  Axis *values*, however, are
    validated against the global vocabularies up front: a misspelled
    architecture, precision, engine or size raises
    :class:`~repro.errors.ConfigurationError` naming the valid values
    instead of silently thinning the matrix (or surfacing as an opaque
    zero-case error through the job service).  ``plan_kwargs`` is a list of
    launch-parameter override mappings (default: one empty override);
    scenarios that do not tune a named parameter skip that override set.
    Expansion order is deterministic: registration order, then size,
    architecture, precision, engine, override.
    """
    selectors = matrix.get("scenarios", "all")
    if isinstance(selectors, str):
        selectors = [selectors]
    chosen: List[Scenario] = []
    for selector in selectors:
        if selector == "all":
            matched = all_scenarios()
        elif selector in ("ssam", "baseline"):
            matched = all_scenarios(role=selector)
        elif any(s.family == selector for s in _REGISTRY.values()):
            matched = all_scenarios(family=selector)
        else:
            matched = [get_scenario(selector)]
        for scenario in matched:
            if scenario not in chosen:
                chosen.append(scenario)

    def axis(key: str) -> Optional[Sequence[str]]:
        value = matrix.get(key)
        if value is None or value == "all":
            return None
        if isinstance(value, str):
            return [value]
        return list(value)

    def validated(key: str, valid: Sequence[str]) -> Optional[Sequence[str]]:
        values = axis(key)
        if values is not None:
            unknown = sorted(set(values) - set(valid))
            if unknown:
                raise ConfigurationError(
                    f"unknown {key} in scenario matrix: {unknown}; "
                    f"valid {key}: {sorted(valid)}")
        return values

    architectures = validated("architectures", architecture_names())
    engines = validated("engines", ENGINES)
    known_sizes = sorted({size for s in chosen for size in s.sizes})
    sizes = validated("sizes", known_sizes)
    precisions = axis("precisions")
    if precisions is not None:
        for name in precisions:
            resolve_precision(name)  # raises ConfigurationError when unknown

    overrides = matrix.get("plan_kwargs")
    if overrides is not None:
        if isinstance(overrides, Mapping):
            overrides = [overrides]
        overrides = [dict(entry) for entry in overrides]

    cases: List[ScenarioCase] = []
    for scenario in chosen:
        cases.extend(scenario.cases(architectures=architectures,
                                    precisions=precisions,
                                    engines=engines,
                                    sizes=sizes,
                                    plan_kwargs=overrides))
    if not cases:
        raise ConfigurationError(
            f"scenario matrix expands to zero cases: {dict(matrix)!r}")
    return cases
