"""Differential backend fuzzer: a seeded run's outcome does not depend on
who runs the local steps, nor on what watches or interrupts the run.

Each example draws a whole run:

* the backend — ``process`` or ``socket`` — with 1-2 workers;
* IID or Dirichlet non-IID shards;
* the participant regime — classic (``population=0``, with the cohort
  knobs set anyway, ± mobility traces) or population + cohort, ± a
  churn plan;
* synchronisation — hard, or soft with a drawn staleness mix under the
  ``use`` / ``throw`` / ``compensate`` policy;
* ± a model-layer :class:`~repro.faults.FaultPlan`;
* ± a benign :class:`~repro.faults.NetworkFaultPlan` (latency and
  throttling only: neither can use up a task's retries);
* ± an interruption — a checkpoint cut, or an injected ``crash_server``
  — followed by a resume from the checkpoint;
* telemetry on (the default), on with tracing, on with tracing and
  per-op profiling, or off;
* the compute dtype — float64 or float32;
* the circuit-breaker constants of :mod:`repro.transport.resilience` —
  as shipped, or tight (a breaker that opens on one failure, with a
  50 ms cooldown), which must not move an outcome when nothing fails.

It asserts that the run's digest (:func:`finish_and_digest`: α ‖ θ and
buffers ‖ genotype ‖ per-round result tuples) equals the digest of the
same run made uninterrupted on the serial backend with default
telemetry and without wire faults, in the same compute dtype.  In
classic mode that reference also leaves the cohort knobs at their
defaults, so ``population=0`` is checked to make them inert.  Hypothesis shrinks any divergence to a minimal run.
"""

import dataclasses
import multiprocessing
import pathlib
import tempfile
from typing import Dict, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExperimentConfig, FederatedModelSearch
from repro.core.phases import run_search, run_warmup
from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec, InjectedServerCrash
from repro.faults.network import NetworkFaultPlan, NetworkFaultSpec
from repro.network import MOBILITY_MODES
from repro.population import ChurnPlan
from repro.transport import resilience

from .test_golden_digests import finish_and_digest

WARMUP, SEARCH = 1, 3
#: classic-mode participants / population-mode registry size
PARTICIPANTS, POPULATION = 3, 12
DEFAULTS = ExperimentConfig()
#: model-layer fault kinds; ``crash_server`` is drawn as an interruption
MODEL_FAULTS = tuple(kind for kind in FAULT_KINDS if kind != "crash_server")
#: ``Run.resilience`` → the values of the resilience constants
RESILIENCE = {
    "shipped": {
        name: getattr(resilience, name)
        for name in ("BREAKER_FAILURES", "BREAKER_COOLDOWN_S", "BREAKER_COOLDOWN_MAX_S")
    },
    "tight": dict(
        BREAKER_FAILURES=1, BREAKER_COOLDOWN_S=0.05, BREAKER_COOLDOWN_MAX_S=0.1
    ),
}


@dataclasses.dataclass(frozen=True)
class Run:
    """One drawn run (printed as the falsifying example)."""

    backend: str
    workers: int
    seed: int
    non_iid: bool
    population: int
    cohort_size: int
    cohort_strategy: str
    churn: Optional[Tuple[Tuple[str, object], ...]]
    mobility: Optional[Tuple[str, ...]]
    staleness_mix: Optional[Tuple[float, ...]]
    staleness_policy: str
    faults: Tuple[FaultSpec, ...]
    wire: Tuple[NetworkFaultSpec, ...]
    #: ``("cut" | "crash", round)``: checkpoint after / crash at ``round``
    interrupt: Optional[Tuple[str, int]]
    #: ``"on"`` | ``"traced"`` | ``"ops"`` (traced + per-op) | ``"off"``
    telemetry: str
    compute_dtype: str
    #: a key of :data:`RESILIENCE`
    resilience: str

    def reference(self) -> "Run":
        """The same run, uninterrupted on the serial backend with default
        telemetry, without wire faults (and in classic mode without
        cohort knobs)."""
        knobs = {}
        if not self.population:
            knobs = dict(
                cohort_size=DEFAULTS.cohort_size,
                cohort_strategy=DEFAULTS.cohort_strategy,
            )
        return dataclasses.replace(
            self, backend="serial", workers=0, wire=(), interrupt=None,
            telemetry="on", resilience="shipped", **knobs,
        )

    def config(self, scratch: pathlib.Path) -> ExperimentConfig:
        """The run's config; plan files are written into ``scratch``."""
        crash = self.interrupt is not None and self.interrupt[0] == "crash"
        faults = self.faults
        if crash:
            faults += (FaultSpec("crash_server", round_start=self.interrupt[1]),)
        plans = (
            ("fault_plan_path", faults and FaultPlan(self.seed, faults)),
            ("network_faults", self.wire and NetworkFaultPlan(self.seed, self.wire)),
            ("churn_plan", self.churn and ChurnPlan(**dict(self.churn))),
        )
        files: Dict[str, Optional[str]] = {}
        for key, plan in plans:
            files[key] = None
            if plan:
                files[key] = str(scratch / f"{key}.json")
                plan.save(files[key])
        return ExperimentConfig.small(
            seed=self.seed,
            non_iid=self.non_iid,
            warmup_rounds=WARMUP,
            search_rounds=SEARCH,
            num_participants=PARTICIPANTS,
            train_per_class=6,
            test_per_class=2,
            batch_size=8,
            backend=self.backend,
            num_workers=self.workers,
            population=self.population,
            cohort_size=self.cohort_size,
            cohort_strategy=self.cohort_strategy,
            staleness_mix=self.staleness_mix,
            staleness_policy=self.staleness_policy,
            mobility_modes=self.mobility,
            telemetry_enabled=self.telemetry != "off",
            tracing_enabled=self.telemetry in ("traced", "ops"),
            trace_ops=self.telemetry == "ops",
            compute_dtype=self.compute_dtype,
            # one checkpoint, written as the round before the crash ends
            checkpoint_every=self.interrupt[1] if crash else 0,
            checkpoint_path=str(scratch / "run.ckpt") if crash else None,
            **files,
        )


def digest(run: Run, scratch: pathlib.Path) -> str:
    """Run ``run`` (through its interruption and resume, if any) under
    its resilience constants."""
    with mock.patch.multiple(resilience, **RESILIENCE[run.resilience]):
        return _digest(run, scratch)


def _digest(run: Run, scratch: pathlib.Path) -> str:
    pipeline = FederatedModelSearch(run.config(scratch))
    if run.interrupt is None:
        return finish_and_digest(pipeline)
    kind, at = run.interrupt
    checkpoint = str(scratch / "run.ckpt")
    try:
        if kind == "crash":
            with pytest.raises(InjectedServerCrash):
                pipeline.warm_up()
                pipeline.search()
        elif at <= WARMUP:
            run_warmup(pipeline.server, at, on_round=pipeline._round_hook("warmup"))
            pipeline.save_checkpoint(checkpoint)
        else:
            pipeline.warm_up()
            run_search(
                pipeline.server, at - WARMUP, on_round=pipeline._round_hook("search")
            )
            pipeline.save_checkpoint(checkpoint)
    finally:
        pipeline.close()
    resumed = FederatedModelSearch.resume(checkpoint)
    assert resumed.server.round == at
    return finish_and_digest(resumed)


def workers_alive() -> set:
    children = multiprocessing.active_children()
    return {p.pid for p in children if p.name == "repro-worker"}


probabilities = st.sampled_from((0.25, 0.5, 1.0))

model_faults = st.builds(
    FaultSpec,
    kind=st.sampled_from(MODEL_FAULTS),
    participant=st.none() | st.integers(0, PARTICIPANTS - 1),
    round_start=st.integers(0, WARMUP + SEARCH - 1),
    probability=probabilities,
)

#: Latency and throttling delay frames but never break one, so no task
#: can run out of retries and the outcome must not move.
wire_faults = st.one_of(
    st.builds(
        NetworkFaultSpec,
        kind=st.just("latency"),
        probability=probabilities,
        latency_s=st.sampled_from((0.001, 0.005)),
        jitter_s=st.sampled_from((0.0, 0.003)),
        max_events=st.integers(1, 20),
    ),
    st.builds(
        NetworkFaultSpec,
        kind=st.just("throttle"),
        probability=probabilities,
        bytes_per_s=st.sampled_from((4e6, 1.6e7)),
        max_events=st.integers(1, 4),
    ),
)

#: relative weights of staleness 0, 1, ... (the delay model normalises)
staleness_mixes = (
    st.lists(st.integers(0, 4), min_size=2, max_size=4)
    .filter(any)
    .map(lambda weights: tuple(map(float, weights)))
)

mobility_modes = st.lists(
    st.sampled_from(sorted(MOBILITY_MODES)), min_size=1, max_size=2
).map(tuple)

churn_plans = st.fixed_dictionaries(
    dict(
        join_rate=st.sampled_from((0.0, 0.5, 1.0)),
        departure_prob=st.sampled_from((0.0, 0.05)),
        dropout_prob=st.sampled_from((0.0, 0.2)),
        seed=st.integers(0, 3),
    )
).map(lambda plan: tuple(sorted(plan.items())))


@st.composite
def runs(draw) -> Run:
    population = draw(st.sampled_from((0, POPULATION)))
    staleness_mix = draw(st.none() | staleness_mixes)
    interrupt = draw(st.sampled_from((None, "cut", "crash")))
    if interrupt:
        interrupt = (interrupt, draw(st.integers(1, WARMUP + SEARCH - 1)))
    return Run(
        backend=draw(st.sampled_from(("process", "socket"))),
        workers=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 7)),
        non_iid=draw(st.booleans()),
        population=population,
        cohort_size=draw(
            st.integers(2, 4) if population else st.sampled_from((1, 777))
        ),
        cohort_strategy=draw(st.sampled_from(("uniform", "weighted"))),
        churn=draw(st.none() | churn_plans) if population else None,
        mobility=None if population else draw(st.none() | mobility_modes),
        staleness_mix=staleness_mix,
        staleness_policy=(
            DEFAULTS.staleness_policy
            if staleness_mix is None
            else draw(st.sampled_from(("use", "throw", "compensate")))
        ),
        faults=tuple(draw(st.lists(model_faults, max_size=2))),
        wire=tuple(draw(st.lists(wire_faults, max_size=2))),
        interrupt=interrupt,
        telemetry=draw(st.sampled_from(("on", "traced", "ops", "off"))),
        compute_dtype=draw(st.sampled_from(("float64", "float32"))),
        resilience=draw(st.sampled_from(sorted(RESILIENCE))),
    )


@settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(run=runs())
def test_run_matches_its_uninterrupted_serial_reference(run):
    before = workers_alive()
    with tempfile.TemporaryDirectory() as scratch:
        got = digest(run, pathlib.Path(scratch))
        assert workers_alive() <= before, "a worker outlived its run"
        assert got == digest(run.reference(), pathlib.Path(scratch))
