"""Turning real process implementations into explorable models.

Figure 4 of the paper: when a process detects a fault, its peers reply
with a checkpoint of their state *and a model of their behaviour* — and
"this model does not have to be abstract; it could simply be the
implementation of the process itself".  This module is the adapter that
makes that work: a :class:`DistributedSystemModel` wraps a set of
:class:`~repro.dsim.process.Process` implementations (or hand-written
:class:`EnvironmentModel` stand-ins for components outside FixD's
control, such as the network or a third-party service) into a
guarded-command model whose actions are message deliveries and timer
firings.

State representation
--------------------
A :class:`SystemState` is the global state of the modelled system:

* one state dictionary per process (the same ``self.state`` the
  application maintains),
* per-process random-stream cursors (so replayed randomness is
  deterministic during exploration),
* per-channel FIFO queues of in-flight messages, and
* per-process FIFO queues of pending timers.

Actions
-------
* ``deliver:src->dst`` — deliver the oldest in-flight message on the
  ``src -> dst`` channel (guards keep per-channel FIFO order, while the
  interleaving *across* channels is what the explorer enumerates);
* ``timer:pid`` — fire the oldest pending timer at ``pid``.

Both kinds of action execute the *real handler code* of the destination
process in a sandbox: the process instance's state is loaded from the
model state, the handler runs, and the sends/timers it performs are
captured into the successor state.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dsim.message import Message
from repro.dsim.process import Process, ProcessContext
from repro.dsim.rng import DeterministicRNG, derive_seed
from repro.errors import InvariantViolation, ModelCheckingError
from repro.investigator.guarded import Action, GuardedModel
from repro.investigator.invariants import InvariantSpec
from repro.investigator.state import fingerprint
from repro.timemachine.checkpoint import GlobalCheckpoint

ProcessFactory = Callable[[], Process]


@dataclass(frozen=True)
class SystemState:
    """The global state of the modelled distributed system (treated as immutable)."""

    process_states: Tuple[Tuple[str, Any], ...]
    rng_cursors: Tuple[Tuple[str, int], ...]
    channels: Tuple[Tuple[Tuple[str, str], Tuple[Any, ...]], ...]
    timers: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    step: int = 0

    # -- constructors ----------------------------------------------------
    @staticmethod
    def build(
        process_states: Dict[str, Dict[str, Any]],
        rng_cursors: Dict[str, int],
        channels: Dict[Tuple[str, str], Sequence[Dict[str, Any]]],
        timers: Dict[str, Sequence[Tuple[str, Any]]],
        step: int = 0,
    ) -> "SystemState":
        return SystemState(
            process_states=tuple(sorted((pid, copy.deepcopy(state)) for pid, state in process_states.items())),
            rng_cursors=tuple(sorted(rng_cursors.items())),
            channels=tuple(
                sorted(
                    (channel, tuple(copy.deepcopy(list(queue))))
                    for channel, queue in channels.items()
                    if queue
                )
            ),
            timers=tuple(
                sorted((pid, tuple(copy.deepcopy(list(queue)))) for pid, queue in timers.items() if queue)
            ),
            step=step,
        )

    # -- views -----------------------------------------------------------
    def state_of(self, pid: str) -> Dict[str, Any]:
        for key, state in self.process_states:
            if key == pid:
                return state
        raise KeyError(pid)

    def states(self) -> Dict[str, Dict[str, Any]]:
        return {pid: state for pid, state in self.process_states}

    def rng_cursor(self, pid: str) -> int:
        for key, cursor in self.rng_cursors:
            if key == pid:
                return cursor
        return 0

    def channel_queue(self, src: str, dst: str) -> Tuple[Any, ...]:
        for channel, queue in self.channels:
            if channel == (src, dst):
                return queue
        return ()

    def timer_queue(self, pid: str) -> Tuple[Any, ...]:
        for key, queue in self.timers:
            if key == pid:
                return queue
        return ()

    def pending_messages(self) -> int:
        return sum(len(queue) for _, queue in self.channels)

    def pending_timers(self) -> int:
        return sum(len(queue) for _, queue in self.timers)

    @property
    def quiescent(self) -> bool:
        """True when no message and no timer is pending."""
        return self.pending_messages() == 0 and self.pending_timers() == 0

    def fingerprint(self) -> str:
        # The step counter is excluded: two identical configurations reached
        # after a different number of steps are the same state.
        return fingerprint(
            (self.process_states, self.rng_cursors, self.channels, self.timers)
        )

    def describe(self) -> str:
        states = ", ".join(f"{pid}:{state}" for pid, state in self.process_states)
        return f"msgs={self.pending_messages()} timers={self.pending_timers()} {states}"


class EnvironmentModel(Process):
    """A hand-written model of a component outside FixD's control.

    Section 4.3: "certain parts of the environment ... are not under the
    direct control of the FixD environment and must be modeled
    internally".  An :class:`EnvironmentModel` is simply a process whose
    behaviour is given by a response function instead of real code:
    every incoming message is answered according to ``respond``.
    """

    def __init__(self, respond: Optional[Callable[[Process, Message], None]] = None) -> None:
        super().__init__()
        self._respond = respond

    def on_unhandled(self, message: Message) -> None:
        if self._respond is not None:
            self._respond(self, message)
        # Unlike a real process, an environment model silently ignores
        # messages it has no scripted response for.


class _SandboxContext:
    """Captures the sends and timers a handler performs during model execution."""

    def __init__(self, pid: str, peers: Tuple[str, ...], rng: DeterministicRNG, now: float) -> None:
        self.sent: List[Message] = []
        self.timers_set: List[Tuple[str, Any]] = []
        self.timers_cancelled: List[str] = []
        self.context = ProcessContext(
            pid=pid,
            peers=peers,
            send_fn=self.sent.append,
            timer_fn=lambda name, delay, payload: self.timers_set.append((name, payload)),
            cancel_timer_fn=self.timers_cancelled.append,
            now_fn=lambda: now,
            rng=rng,
        )


class DistributedSystemModel:
    """A guarded-command model whose actions run real process handlers."""

    def __init__(
        self,
        factories: Dict[str, ProcessFactory],
        seed: int = 0,
        global_invariants: Optional[Dict[str, Callable[[Dict[str, Dict[str, Any]]], bool]]] = None,
        check_process_invariants: bool = True,
    ) -> None:
        if not factories:
            raise ModelCheckingError("a distributed system model needs at least one process")
        self.factories = dict(factories)
        self.seed = seed
        self.global_invariants = dict(global_invariants or {})
        self.check_process_invariants = check_process_invariants
        self._pids = tuple(sorted(self.factories))
        # One scratch instance per process, reused across action executions.
        self._scratch: Dict[str, Process] = {}

    # ------------------------------------------------------------------
    # scratch process management
    # ------------------------------------------------------------------
    def _scratch_process(self, pid: str) -> Process:
        if pid not in self._scratch:
            self._scratch[pid] = self.factories[pid]()
        return self._scratch[pid]

    def _fresh_rng(self, pid: str, cursor: int) -> DeterministicRNG:
        rng = DeterministicRNG(derive_seed(self.seed, "model", pid))
        rng.restore(cursor)
        return rng

    # ------------------------------------------------------------------
    # initial states
    # ------------------------------------------------------------------
    def initial_state(self) -> SystemState:
        """Run every process's ``on_start`` in a sandbox and collect the resulting state."""
        states: Dict[str, Dict[str, Any]] = {}
        cursors: Dict[str, int] = {}
        channels: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        timers: Dict[str, List[Tuple[str, Any]]] = {}
        for pid in self._pids:
            process = self.factories[pid]()
            rng = self._fresh_rng(pid, 0)
            sandbox = _SandboxContext(pid, self._pids, rng, now=0.0)
            process.bind(sandbox.context)
            process.on_start()
            states[pid] = copy.deepcopy(process.state)
            cursors[pid] = rng.draws
            for message in sandbox.sent:
                channels.setdefault((message.src, message.dst), []).append(message.to_record())
            timers[pid] = list(sandbox.timers_set)
        return SystemState.build(states, cursors, channels, timers)

    def state_from_checkpoint(
        self,
        checkpoint: GlobalCheckpoint,
        in_flight: Optional[Sequence[Message]] = None,
    ) -> SystemState:
        """Build the model's starting state from a global checkpoint (Figure 4)."""
        states: Dict[str, Dict[str, Any]] = {}
        cursors: Dict[str, int] = {}
        for pid in self._pids:
            if pid in checkpoint:
                states[pid] = checkpoint[pid].fresh_state()
                cursors[pid] = checkpoint[pid].rng_draws
            else:
                # Processes without a checkpoint start from their initial state.
                process = self.factories[pid]()
                rng = self._fresh_rng(pid, 0)
                sandbox = _SandboxContext(pid, self._pids, rng, now=0.0)
                process.bind(sandbox.context)
                process.on_start()
                states[pid] = copy.deepcopy(process.state)
                cursors[pid] = rng.draws
        channels: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        for message in in_flight or ():
            channels.setdefault((message.src, message.dst), []).append(message.to_record())
        return SystemState.build(states, cursors, channels, {})

    # ------------------------------------------------------------------
    # action execution
    # ------------------------------------------------------------------
    def _execute_handler(
        self,
        state: SystemState,
        pid: str,
        run: Callable[[Process], None],
    ) -> SystemState:
        """Run ``run(process)`` against ``pid``'s implementation and build the successor."""
        process = self._scratch_process(pid)
        rng = self._fresh_rng(pid, state.rng_cursor(pid))
        sandbox = _SandboxContext(pid, self._pids, rng, now=float(state.step + 1))
        process.bind(sandbox.context)
        process.state = copy.deepcopy(state.state_of(pid))

        run(process)

        states = state.states()
        states[pid] = copy.deepcopy(process.state)
        cursors = {p: state.rng_cursor(p) for p in self._pids}
        cursors[pid] = rng.draws
        channels: Dict[Tuple[str, str], List[Dict[str, Any]]] = {
            channel: list(queue) for channel, queue in state.channels
        }
        for message in sandbox.sent:
            channels.setdefault((message.src, message.dst), []).append(message.to_record())
        timers: Dict[str, List[Tuple[str, Any]]] = {p: list(state.timer_queue(p)) for p in self._pids}
        for name in sandbox.timers_cancelled:
            timers[pid] = [entry for entry in timers[pid] if entry[0] != name]
        timers[pid] = list(timers.get(pid, [])) + list(sandbox.timers_set)
        return SystemState.build(states, cursors, channels, timers, step=state.step + 1)

    def _deliver_effect(self, src: str, dst: str) -> Callable[[SystemState], SystemState]:
        def effect(state: SystemState) -> SystemState:
            queue = state.channel_queue(src, dst)
            if not queue:
                raise ModelCheckingError(f"deliver action fired with empty channel {src}->{dst}")
            record = queue[0]
            message = Message.from_record(dict(record))
            # Remove the message from the channel before executing the handler.
            trimmed = {channel: list(q) for channel, q in state.channels}
            trimmed[(src, dst)] = list(queue[1:])
            pre = SystemState.build(
                state.states(),
                {p: state.rng_cursor(p) for p in self._pids},
                trimmed,
                {p: list(state.timer_queue(p)) for p in self._pids},
                step=state.step,
            )
            return self._execute_handler(pre, dst, lambda process: process.deliver(message))

        return effect

    def _timer_effect(self, pid: str) -> Callable[[SystemState], SystemState]:
        def effect(state: SystemState) -> SystemState:
            queue = state.timer_queue(pid)
            if not queue:
                raise ModelCheckingError(f"timer action fired with no pending timer at {pid}")
            name, payload = queue[0]
            trimmed_timers = {p: list(state.timer_queue(p)) for p in self._pids}
            trimmed_timers[pid] = list(queue[1:])
            pre = SystemState.build(
                state.states(),
                {p: state.rng_cursor(p) for p in self._pids},
                {channel: list(q) for channel, q in state.channels},
                trimmed_timers,
                step=state.step,
            )
            return self._execute_handler(pre, pid, lambda process: process.fire_timer(name, payload))

        return effect

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _process_invariant_spec(self, pid: str) -> InvariantSpec:
        def predicate(state: SystemState) -> bool:
            process = self._scratch_process(pid)
            rng = self._fresh_rng(pid, state.rng_cursor(pid))
            sandbox = _SandboxContext(pid, self._pids, rng, now=float(state.step))
            process.bind(sandbox.context)
            process.state = copy.deepcopy(state.state_of(pid))
            try:
                process.check_invariants()
            except InvariantViolation:
                return False
            return True

        return InvariantSpec(
            name=f"process:{pid}",
            predicate=predicate,
            description=f"all invariants declared by process {pid} hold",
        )

    def _global_invariant_spec(self, name: str, predicate) -> InvariantSpec:
        return InvariantSpec(
            name=f"global:{name}",
            predicate=lambda state: predicate(state.states()),
            description=f"global invariant {name}",
        )

    # ------------------------------------------------------------------
    # model construction
    # ------------------------------------------------------------------
    def build_model(self, initial: Optional[SystemState] = None) -> GuardedModel:
        """Construct the guarded-command model to hand to ModelD / the explorer."""
        actions: List[Action] = []
        for src in self._pids:
            for dst in self._pids:
                if src == dst:
                    continue
                actions.append(
                    Action(
                        name=f"deliver:{src}->{dst}",
                        effect=self._deliver_effect(src, dst),
                        guard=lambda state, _s=src, _d=dst: bool(state.channel_queue(_s, _d)),
                        tags=frozenset({"communication"}),
                    )
                )
        for pid in self._pids:
            actions.append(
                Action(
                    name=f"timer:{pid}",
                    effect=self._timer_effect(pid),
                    guard=lambda state, _p=pid: bool(state.timer_queue(_p)),
                    tags=frozenset({"timer"}),
                )
            )
        invariants: List[InvariantSpec] = []
        if self.check_process_invariants:
            invariants.extend(self._process_invariant_spec(pid) for pid in self._pids)
        invariants.extend(
            self._global_invariant_spec(name, predicate)
            for name, predicate in sorted(self.global_invariants.items())
        )
        return GuardedModel(
            initial_state=initial if initial is not None else self.initial_state(),
            actions=actions,
            invariants=invariants,
        )

    @staticmethod
    def terminal_predicate(state: SystemState) -> bool:
        """Quiescent states are legitimate end states, not deadlocks."""
        return state.quiescent
