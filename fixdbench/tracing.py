"""Span recording for the traced benchmark run.

The benchmark never edits the program it measures: a traced run wraps
public functions of ``repro`` from here, one wrapper per layer
boundary, and restores them afterwards.  Each call becomes a span
``(id, name, start, end, parent, run, cpu)``: ``parent`` is the id of
the innermost open span on the same thread (-1 at the root), ``run`` is
the id of the scenario run the benchmark was executing, and ``cpu`` is
the process CPU time spent inside the span for the few boundaries that
ask for it (``None`` elsewhere).  Spans stay in memory until
:meth:`SpanRecorder.write` dumps them at the end of the run.

A layer's *self time* is its span durations minus the durations of its
direct child spans, so nested layers (a rollback that restores process
checkpoints, a flush that writes blobs) are never counted twice.

Worker processes forked by the real-process backends inherit the
wrappers; an ``at_fork`` hook puts the original functions back in the
child, so only the parent process is traced.  Workers are covered by
transport counters and child CPU instead.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


def traced_targets(recorder: "SpanRecorder") -> List[Tuple[Any, str, str, bool, Optional[Callable]]]:
    """``(owner, attribute, span name, record cpu, pre-wrapper)`` per wrapped boundary.

    The pre-wrapper, where there is one, takes the original function and
    returns one that also feeds ``recorder``; the span goes around it.
    Imported lazily so that importing this module costs nothing before
    ``repro`` is on the path.
    """
    from repro.api import apps
    from repro.api.outcome import Outcome
    from repro.core.faults import FaultDetector
    from repro.core.fixd import FixD
    from repro.core.protocol import FaultResponseCoordinator
    from repro.core.report import BugReport
    from repro.dsim.clock import VectorClock
    from repro.dsim.cluster import Cluster
    from repro.dsim.process import Process
    from repro.scroll.replayer import Replayer
    from repro.scroll.scroll import Scroll
    from repro.timemachine.blobstore import BlobStore, DurableCheckpointStore
    from repro.timemachine.cow import CowPageStore
    from repro.timemachine.flush_pipeline import FlushPipeline
    from repro.timemachine.rollback import RollbackManager
    from repro.timemachine.time_machine import TimeMachine

    return [
        # run loop: scheduler, network, hook dispatch (self time)
        (Cluster, "run", "dsim.run", True, None),
        (VectorClock, "snapshot", "dsim.clock_snapshot", False, None),
        # the application's own handlers and invariants
        (Process, "deliver", "app.deliver", False, None),
        (Process, "fire_timer", "app.fire_timer", False, None),
        (Process, "check_invariants", "app.invariants", False, None),
        # Scroll recording
        (Scroll, "record", "scroll.record", False, None),
        # checkpoint capture, both representations
        (Process, "capture_checkpoint", "timemachine.deepcopy_capture", False, None),
        (CowPageStore, "capture", "timemachine.cow_capture", False, None),
        # fault response: detection -> protocol -> line -> rollback -> report
        (FaultDetector, "on_invariant_violation", "core.fault_response", False, None),
        (FaultResponseCoordinator, "run", "core.protocol", False, None),
        (TimeMachine, "latest_recovery_line", "timemachine.recovery_line", False, None),
        (RollbackManager, "rollback", "timemachine.rollback", False, None),
        (Process, "restore_checkpoint", "timemachine.restore", False, None),
        (BugReport, "build_scroll_tail", "core.report", False, None),
        # per-run set-up and teardown of the facade
        (apps, "build", "api.build", False, None),
        (FixD, "attach", "api.attach", False, None),
        (Outcome, "from_run", "api.outcome", False, recorder.stash_time_machine),
        # durable writes
        (RollbackManager, "commit", "timemachine.commit", False, None),
        (DurableCheckpointStore, "flush_line", "timemachine.flush_line", False, None),
        (DurableCheckpointStore, "flush_scroll", "timemachine.flush_scroll", False, None),
        (BlobStore, "put", "timemachine.blob_put", False, recorder.count_blob_bytes),
        (FlushPipeline, "drain", "timemachine.flush_wait", False, None),
        # durable reads
        (DurableCheckpointStore, "restore_line", "timemachine.restore_line", False, None),
        (DurableCheckpointStore, "rebuild_scroll", "timemachine.rebuild_scroll", False, None),
        (Replayer, "replay_forward", "scroll.replay_forward", False, None),
    ]


class SpanRecorder:
    """In-memory span log with per-thread nesting.

    ``install()`` patches every target; ``uninstall()`` restores them.
    ``run`` is set by the caller before each scenario run so spans carry
    the run they belong to.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.run = ""
        self.counters: Dict[str, float] = defaultdict(float)
        #: Time Machines of finished runs, for their ``stats()``; kept
        #: for the next ``keep_time_machines`` runs only
        self.time_machines: List[Any] = []
        self.keep_time_machines = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []
        self._fork_hook_registered = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, cpu: bool) -> Callable:
        """``fn`` recording one span per call (with its CPU time if ``cpu``)."""
        recorder = self
        ids = self._ids
        spans = self.spans
        perf_counter = time.perf_counter
        process_time = time.process_time
        stack_of = self._stack

        if cpu:

            def wrapper(*args, **kwargs):
                stack = stack_of()
                span_id = next(ids)
                parent = stack[-1] if stack else -1
                stack.append(span_id)
                cpu_start = process_time()
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    used = process_time() - cpu_start
                    stack.pop()
                    spans.append((span_id, name, start, end, parent, recorder.run, used))

        else:

            def wrapper(*args, **kwargs):
                stack = stack_of()
                span_id = next(ids)
                parent = stack[-1] if stack else -1
                stack.append(span_id)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans.append((span_id, name, start, end, parent, recorder.run, None))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count_blob_bytes(self, put: Callable) -> Callable:
        """Count the bytes ``BlobStore.put`` actually wrote (dedup hits write none)."""
        counters = self.counters

        def put_counting(store, data, *args, **kwargs):
            address, written = put(store, data, *args, **kwargs)
            if written:
                counters["blob_bytes_written"] += len(data)
            return address, written

        return put_counting

    def stash_time_machine(self, from_run: Callable) -> Callable:
        """Keep each run's Time Machine so the caller can read its stats."""
        recorder = self

        def from_run_stashing(scenario, cluster, fixd, result, check):
            if recorder.keep_time_machines > 0:
                recorder.keep_time_machines -= 1
                recorder.time_machines.append(fixd.time_machine)
            return from_run(scenario, cluster, fixd, result, check)

        return from_run_stashing

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("span recorder is already installed")
        for owner, attribute, name, cpu, pre in traced_targets(self):
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._saved.append((owner, attribute, raw))
            # a static or class method is wrapped inside its descriptor
            descriptor = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if descriptor else raw
            if pre is not None:
                fn = pre(fn)
            wrapped = self.wrap(fn, name, cpu)
            setattr(owner, attribute, descriptor(wrapped) if descriptor else wrapped)
        if not self._fork_hook_registered:
            os.register_at_fork(after_in_child=self._untrace_child)
            self._fork_hook_registered = True

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._saved):
            setattr(owner, attribute, raw)
        self._saved = []

    def _untrace_child(self) -> None:
        # a forked backend worker must run the untraced program
        self.uninstall()
        self.spans = []

    # ------------------------------------------------------------------
    # rollup and output
    # ------------------------------------------------------------------
    def rollup(self, scales: Optional[Dict[str, float]] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds, CPU seconds.

        ``scales`` maps a run id to the factor its times are scaled by.
        """
        scales = scales or {}
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, _name, start, end, parent, _run, _cpu in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0}
        )
        for span_id, name, start, end, _parent, run, cpu in self.spans:
            row = table[name]
            scale = scales.get(run, 1.0)
            duration = end - start
            row["count"] += 1
            row["total_s"] += duration * scale
            row["self_s"] += (duration - child_time.get(span_id, 0.0)) * scale
            if cpu is not None:
                row["cpu_s"] += cpu * scale
        return dict(table)

    def write(self, path: str) -> None:
        """Dump every span as one gzipped JSON line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span_id, name, start, end, parent, run, cpu in sorted(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run,
                            "cpu": cpu,
                        },
                        separators=(",", ":"),
                    )
                )
                out.write("\n")


def untraced_fault_timer(samples: List[float]) -> None:
    """Time ``FaultDetector.on_invariant_violation`` into ``samples``.

    The one wrapper that stays on in the untraced run: FixD's whole
    synchronous fault response runs inside it, so its wall time is the
    fault-response latency itself, at the cost of one timer pair per
    fault.  It stays installed for the life of the process.
    """
    from repro.core.faults import FaultDetector

    original = FaultDetector.__dict__["on_invariant_violation"]
    perf_counter = time.perf_counter

    def timed(self, *args, **kwargs):
        start = perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            samples.append(perf_counter() - start)

    FaultDetector.on_invariant_violation = timed
