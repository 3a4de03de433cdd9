"""The four benchmark workloads, their inputs and their correctness oracles.

Every workload is a list of *jobs* built from the benchmark seed alone;
one pass over the list is the workload's unit of deterministic work.
Jobs go through the public facade only (``Scenario``, ``run_scenario``,
``Experiment.resume(...).continue_run()`` and
``repro.fuzz.generate_scenario``), one at a time in one process: no
``Experiment`` pool.

A job returns a :class:`JobResult`; unless told not to check, the
oracle of its workload appends a failure for every broken promise.
Oracle work (reference twins, projection digests) happens outside the
timed calls.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.api import Experiment, Scenario, run_scenario
from repro.fuzz import generate_scenario


# ----------------------------------------------------------------------
# measurement of one job
# ----------------------------------------------------------------------
@dataclass
class JobResult:
    """What one job did, as measured around its facade calls."""

    #: "<job>#<attempt>", the run id of the job's spans
    run_label: str = ""
    events: int = 0
    wall_s: float = 0.0
    #: machine-speed scale of the job's times (see ``run.machine_probe``)
    scale: float = 1.0
    cpu_s: float = 0.0
    children_cpu_s: float = 0.0
    #: wall time of ``Experiment.resume`` (durable jobs only)
    resume_s: Optional[float] = None
    #: canonical digest of the job's deterministic output
    digest: str = ""
    #: deterministic counts read from the outcome(s)
    scroll_entries: int = 0
    faults_detected: int = 0
    reports: int = 0
    #: per-run facade records the per-layer rollup reads
    transport: Optional[Dict[str, int]] = None
    stores: List[Dict[str, int]] = field(default_factory=list)
    #: traced runs only: parent wall and CPU inside ``Cluster.run``, and
    #: (checkpoints, full bytes, COW serialized bytes) per Time Machine
    #: -- the ``TimeMachine.stats()`` fields, read without touching the
    #: durable store, which is gone by then
    run_wall_s: float = 0.0
    run_cpu_s: float = 0.0
    checkpoint_stats: List[tuple] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


class Meter:
    """Wall and CPU (self + reaped children) around facade calls.

    With a span recorder, each call is also the root span of the layer
    spans it causes.
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.children_cpu_s = 0.0

    def __call__(self, name: str, fn: Callable, *args, **kwargs):
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        if self.recorder is not None:
            fn = self.recorder.wrap(fn, name, False)
        value = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        self_after = resource.getrusage(resource.RUSAGE_SELF)
        children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        children = (children_after.ru_utime + children_after.ru_stime) - (
            children_before.ru_utime + children_before.ru_stime
        )
        own = (self_after.ru_utime + self_after.ru_stime) - (
            self_before.ru_utime + self_before.ru_stime
        )
        self.wall_s += wall
        self.cpu_s += own + children
        self.children_cpu_s += children
        return value, wall


# ----------------------------------------------------------------------
# canonical digests (stable across processes and hash seeds)
# ----------------------------------------------------------------------
def _canonical(value: Any) -> Any:
    if isinstance(value, dict):
        items = [(_canonical(key), _canonical(item)) for key, item in value.items()]
        return ("dict", sorted(items, key=repr))
    if isinstance(value, (set, frozenset)):
        return ("set", sorted((_canonical(item) for item in value), key=repr))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_canonical(item) for item in value])
    return value


def digest(value: Any) -> str:
    return hashlib.sha256(repr(_canonical(value)).encode()).hexdigest()


def _outcome_counts(result: JobResult, outcome) -> None:
    result.events += outcome.events_executed
    result.scroll_entries += int(outcome.scroll.get("entries", 0))
    result.faults_detected += outcome.faults_detected
    result.reports += outcome.reports
    if outcome.store:
        result.stores.append(dict(outcome.store))


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
class SimJob:
    """One simulator scenario through ``run_scenario``."""

    def __init__(self, scenario: Scenario, faulted: bool) -> None:
        self.scenario = scenario
        self.faulted = faulted
        self.key = scenario.name

    def run(self, meter: Meter, check: bool = True) -> JobResult:
        outcome, _ = meter("api.run_scenario", run_scenario, self.scenario)
        result = JobResult(digest=digest(outcome.projection()))
        _outcome_counts(result, outcome)
        if not check:
            return result
        if self.faulted:
            # Fuzzed schedules break apps by design, so an unmet
            # expectation is no failure; a violation FixD detected but
            # did not report or roll back is.
            handled = min(outcome.faults_detected, self.scenario.max_faults_handled)
            if outcome.reports < handled:
                result.failures.append(
                    f"{self.key}: {outcome.faults_detected} violation(s) detected, "
                    f"{outcome.reports} report(s)"
                )
            if outcome.rollbacks < outcome.reports:
                result.failures.append(
                    f"{self.key}: {outcome.reports} report(s), {outcome.rollbacks} rollback(s)"
                )
        elif not outcome.passed or outcome.faults_detected or outcome.stopped_reason != "quiescent":
            result.failures.append(
                f"{self.key}: fault-free run failed: stopped={outcome.stopped_reason} "
                f"failures={outcome.failures}"
            )
        return result


class DurableJob:
    """Run to a mid-run horizon on a disk store, resume, continue to the end."""

    def __init__(self, scenario: Scenario, until: float, tmp_root: str, oracle: Dict) -> None:
        self.scenario = scenario
        self.until = until
        self.tmp_root = tmp_root
        self.oracle = oracle
        self.key = scenario.name

    def run(self, meter: Meter, check: bool = True) -> JobResult:
        store = tempfile.mkdtemp(prefix="store-", dir=self.tmp_root)
        try:
            scenario = Scenario.from_dict({**self.scenario.to_dict(), "store_path": store})
            crashed, _ = meter("api.run_scenario", run_scenario, scenario)
            resumed, resume_s = meter("api.resume", Experiment.resume, crashed.run_id, store)
            continued, _ = meter("api.continue_run", resumed.continue_run, until=self.until)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        states = continued.state_projection()
        result = JobResult(resume_s=resume_s, digest=digest(states))
        _outcome_counts(result, crashed)
        _outcome_counts(result, continued)
        if not check:
            return result
        if states != self.oracle["states"]:
            result.failures.append(f"{self.key}: continued state differs from the memory twin")
        if not resumed.replays:
            result.failures.append(f"{self.key}: resume replayed nothing")
        bad = sorted(pid for pid, replay in resumed.replays.items() if not replay.ok)
        if bad:
            result.failures.append(f"{self.key}: replay not ok for {bad}")
        return result


class ProcJob:
    """One fault-free run on a real-process substrate, checked against the simulator."""

    def __init__(self, scenario: Scenario, substrate: str, oracle: Dict) -> None:
        self.scenario = scenario
        self.substrate = substrate
        self.oracle = oracle
        self.key = scenario.name

    def run(self, meter: Meter, check: bool = True) -> JobResult:
        outcome, _ = meter("api.run_scenario", run_scenario, self.scenario)
        result = JobResult(digest=digest(outcome.final_states), transport=dict(outcome.transport or {}))
        _outcome_counts(result, outcome)
        if not check:
            return result
        if outcome.final_states != self.oracle["states"]:
            result.failures.append(f"{self.key}: final states differ from the sim run")
        if outcome.stopped_reason != "quiescent":
            result.failures.append(f"{self.key}: stopped {outcome.stopped_reason!r}, not quiescent")
        if self.substrate in ("shm", "net") and (result.transport or {}).get("messages_pickled", 0):
            result.failures.append(
                f"{self.key}: {result.transport['messages_pickled']} message(s) pickled"
            )
        return result


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """A seeded job list plus how its timed loop groups jobs.

    ``batch`` is the number of consecutive jobs one throughput sample
    covers; ``prepare`` does the untimed oracle work that some workloads
    need before their first job can be checked (it fills ``oracle``).
    """

    name = ""
    batch = 1
    #: jobs between two garbage collections, each followed by a machine
    #: probe (about a second of work or less)
    probe_every = 1
    #: whether times are scaled by the machine probe (see run.py)
    scaled = True

    def __init__(self, seed: int, tmp_root: str) -> None:
        self.seed = seed
        self.tmp_root = tmp_root
        self.jobs: List[Any] = []
        self.oracle: Dict[str, Any] = {}

    def prepare(self) -> None:
        pass


class Steady(Workload):
    # FixD's overhead on a healthy run: fault-free sim runs with the
    # in-memory checkpoint store.  Isolates checkpoint capture (deepcopy
    # and COW on every delivery), Scroll recording and vector clocks
    # (kvstore has 43 processes, so clocks are 43 entries wide).
    # Nothing is rolled back, flushed to disk or sent over a transport.
    name = "steady"
    batch = 3  # one pass: kvstore, two_phase_commit, wordcount_burst

    def __init__(self, seed: int, tmp_root: str) -> None:
        super().__init__(seed, tmp_root)
        rng = random.Random(seed)
        shapes = (
            ("kvstore", {"replicas": 3, "clients": 40}),
            ("two_phase_commit", {"participants": 4, "transactions": 200}),
            ("wordcount_burst", {"workers": 4, "chunks": 2000}),
        )
        self.jobs = [
            SimJob(
                Scenario(
                    app=app,
                    name=f"steady-{app}",
                    params=params,
                    seed=rng.randrange(2**20),
                    max_events=None,
                ),
                faulted=False,
            )
            for app, params in shapes
        ]


FAULT_APPS = ("bank", "kvstore", "leader_election", "token_ring", "two_phase_commit", "wordcount")


class Faults(Workload):
    # The suite/fuzz campaign path: many short generated scenarios with
    # investigation off.  The only workload that runs detection ->
    # protocol -> recovery line -> rollback -> report, reading the
    # checkpoints steady only writes; per-run set-up (build, attach) and
    # Outcome assembly weigh on every one of its ~600 runs.
    name = "faults"
    batch = 50
    probe_every = 25
    scenarios = 600

    def __init__(self, seed: int, tmp_root: str) -> None:
        super().__init__(seed, tmp_root)
        rng = random.Random(seed)
        self.jobs = [
            SimJob(
                generate_scenario(
                    FAULT_APPS[index % len(FAULT_APPS)],
                    rng.randrange(2**30),
                    name=f"faults-{index:03d}-{FAULT_APPS[index % len(FAULT_APPS)]}",
                ),
                faulted=True,
            )
            for index in range(self.scenarios)
        ]


DURABLE_END = 22.0
DURABLE_PARAMS = {"replicas": 3, "clients": 40}


class Durable(Workload):
    # The only workload where the blob store, the flush pipeline and
    # Scroll persistence work: kvstore on a disk store committing every
    # 2 time units, once per flush mode.  Each run stops at a seeded
    # mid-run horizon (the "crash"), then resumes (restore + replay
    # forward: the reads) and continues to t=22 (more commits: writes).
    name = "durable"
    batch = 2  # one pass: sync, pipelined
    # Reported unscaled: on the host this benchmark was built on, the
    # machine probe does not track this workload's speed (over four
    # seeds the scaled throughput spread 21%, the unscaled one 10%).
    scaled = False

    def __init__(self, seed: int, tmp_root: str) -> None:
        super().__init__(seed, tmp_root)
        rng = random.Random(seed)
        self.run_seed = rng.randrange(2**20)
        self.jobs = [
            DurableJob(
                self._scenario(
                    name=f"durable-{mode}",
                    until=0.5 * rng.randint(8, 32),
                    auto_commit_interval=2.0,
                    checkpoint_store="disk",
                    store_path=tmp_root,
                    flush_mode=mode,
                ),
                DURABLE_END,
                tmp_root,
                self.oracle,
            )
            for mode in ("sync", "pipelined")
        ]

    def _scenario(self, **fields) -> Scenario:
        return Scenario(
            app="kvstore",
            params=DURABLE_PARAMS,
            seed=self.run_seed,
            max_events=None,
            **fields,
        )

    def prepare(self) -> None:
        twin = run_scenario(self._scenario(name="durable-twin", until=DURABLE_END))
        self.oracle["states"] = twin.state_projection()


PROC_PARAMS = {"workers": 1, "chunks": 2000}
PROC_SUBSTRATES = (("pipe", "mp", "pipe"), ("shm", "mp", "shm"), ("net", "net", "pipe"))


class Procs(Workload):
    # The only workload where the router and the three transports work:
    # fault-free wordcount_burst with one worker (app processes stay at
    # or below two cores) on mp-pipe, mp-shm and net.  No checkpoints
    # are taken in the workers; each run is checked against the
    # simulator run of the same scenario.
    name = "procs"
    batch = 3  # one pass: pipe, shm, net

    def __init__(self, seed: int, tmp_root: str) -> None:
        super().__init__(seed, tmp_root)
        self.run_seed = random.Random(seed).randrange(2**20)
        self.jobs = [
            ProcJob(
                self._scenario(
                    name=f"procs-{substrate}",
                    backend=backend,
                    transport=transport,
                    until=1000.0,
                ),
                substrate,
                self.oracle,
            )
            for substrate, backend, transport in PROC_SUBSTRATES
        ]

    def _scenario(self, **fields) -> Scenario:
        return Scenario(
            app="wordcount_burst",
            params=PROC_PARAMS,
            seed=self.run_seed,
            max_events=None,
            **fields,
        )

    def prepare(self) -> None:
        sim = run_scenario(self._scenario(name="procs-sim"))
        self.oracle["states"] = sim.final_states


WORKLOADS = {workload.name: workload for workload in (Steady, Faults, Durable, Procs)}


def make_tmp_root(root: str) -> str:
    path = os.path.join(root, ".fixdbench_tmp")
    os.makedirs(path, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=path)
