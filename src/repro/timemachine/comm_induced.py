"""Checkpoint policies: communication-induced and periodic (uncoordinated).

The paper's Figure 6 describes the communication-induced scheme used by
speculations: *each process saves a checkpoint before receiving a new
message*.  Because every receive is preceded by a checkpoint, for any
failure point there is always a consistent recovery line no older than
one message per process — the scheme trades extra (cheap, copy-on-write)
checkpoints for freedom from the domino effect.

:class:`PeriodicCheckpointing` is the classic uncoordinated alternative
(checkpoint every N handled events), which is cheaper per run but allows
arbitrarily long rollback propagation; the ablation benchmark contrasts
the two.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.dsim.hooks import RuntimeHook
from repro.timemachine.checkpoint import CheckpointStore


class _CheckpointingHookBase(RuntimeHook):
    """Shared plumbing for checkpoint policies implemented as runtime hooks.

    ``also_on_start`` captures one checkpoint per process when the run
    starts, so even a process that never checkpoints otherwise has a
    rollback target.
    """

    def __init__(
        self, store: Optional[CheckpointStore] = None, also_on_start: bool = True
    ) -> None:
        self.store = store if store is not None else CheckpointStore()
        self.also_on_start = also_on_start
        self._cluster = None
        self.checkpoints_taken: Dict[str, int] = defaultdict(int)

    def attach(self, cluster) -> None:
        self._cluster = cluster

    def on_run_start(self, time: float) -> None:
        if not self.also_on_start or self._cluster is None:
            return
        for pid in self._cluster.pids:
            self.take_checkpoint(pid, time)

    def take_checkpoint(self, pid: str, time: float) -> None:
        """Capture a local checkpoint of ``pid`` into the store."""
        if self._cluster is None:
            return
        process = self._cluster.process(pid)
        if process.crashed:
            return
        self.store.capture(process, time)
        self.checkpoints_taken[pid] += 1

    def total_checkpoints(self) -> int:
        return sum(self.checkpoints_taken.values())


class CommunicationInducedCheckpointing(_CheckpointingHookBase):
    """Checkpoint every process immediately before it receives a message."""

    def before_receive(self, pid, message, time):
        self.take_checkpoint(pid, time)


class PeriodicCheckpointing(_CheckpointingHookBase):
    """Uncoordinated checkpointing: every ``period`` completed handlers per process."""

    def __init__(
        self,
        period: int = 10,
        store: Optional[CheckpointStore] = None,
        also_on_start: bool = True,
    ) -> None:
        super().__init__(store, also_on_start)
        if period <= 0:
            raise ValueError("checkpoint period must be positive")
        self.period = period
        self._handler_counts: Dict[str, int] = defaultdict(int)

    def after_handler(self, pid, description, time):
        self._handler_counts[pid] += 1
        if self._handler_counts[pid] % self.period == 0:
            self.take_checkpoint(pid, time)
