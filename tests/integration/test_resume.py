"""Integration: ``Experiment.resume`` continues crashed runs from disk.

The simulator is deterministic, so a run that "crashes" (stops early) and an
uninterrupted twin of the same scenario commit byte-identical recovery lines
up to the crash point.  Resume of the crashed store restores the last
committed line, replays the persisted Scroll window forward to the crash
point, and ``continue_run`` finishes the run — landing on the same
application state the uninterrupted twin reached (checked through the facade
and at the content-address level: same committed state chunks to the same
blob names, whichever store wrote them).

Marked ``durable`` (disk stores under tmp_path); run via ``make resume-smoke``.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.api import Experiment, Scenario
from repro.errors import CheckpointError, ScenarioError
from repro.timemachine import DurableCheckpointStore

pytestmark = pytest.mark.durable


@pytest.fixture(params=["sync", "pipelined"])
def flush_mode(request):
    """Key integration tests run against both durable flush modes."""
    return request.param


def kv_scenario(
    name: str,
    store: str,
    until: float,
    flush_mode: str = "sync",
    faults=None,
) -> Scenario:
    return Scenario(
        app="kvstore",
        name=name,
        params={"replicas": 2, "clients": 1},
        seed=11,
        until=until,
        auto_commit_interval=2.0,
        checkpoint_store="disk",
        store_path=store,
        flush_mode=flush_mode,
        **({"faults": faults} if faults is not None else {}),
    )


def manifest_paths(store: str, run_id: str):
    run_dir = os.path.join(store, "runs", run_id)
    return sorted(
        os.path.join(run_dir, entry)
        for entry in os.listdir(run_dir)
        if entry.startswith("line-") and entry.endswith(".json")
    )


def _blob_names(store: str) -> set:
    blob_root = os.path.join(store, "blobs")
    names = set()
    for shard in os.listdir(blob_root):
        for entry in os.listdir(os.path.join(blob_root, shard)):
            if entry.endswith(".blob"):
                names.add(entry[: -len(".blob")])
    return names


class TestResume:
    def test_resume_restores_last_committed_line(self, store_path, flush_mode):
        outcome = Experiment(
            [kv_scenario("kv-run", store_path, until=6.0, flush_mode=flush_mode)]
        ).run()[0]
        assert outcome.store is not None
        assert outcome.store["lines_committed"] >= 2
        assert outcome.store["bytes_on_disk"] > 0
        # state chunks dedup against logical bytes; scroll segments and the
        # pending snapshot are the only other writers into the blob tree
        assert (
            outcome.store["bytes_on_disk"]
            <= outcome.store["logical_bytes"] + outcome.store["scroll_bytes"]
        )
        # every line commit flushed the Scroll window alongside the manifest
        assert outcome.store["scroll_flushes"] >= outcome.store["lines_committed"]
        # each execution gets its own uniquely-suffixed durable run id
        assert outcome.run_id.startswith("kv-run-")

        # resume accepts the scenario name and resolves it to that run
        resumed = Experiment.resume("kv-run", store_path)
        assert resumed.run_id == outcome.run_id
        assert resumed.scenario.app == "kvstore"
        assert resumed.line_index == outcome.store["lines_committed"]
        assert sorted(resumed.states()) == sorted(resumed.checkpoints)
        # the persisted Scroll was rebuilt and replayed forward cleanly:
        # the live cluster sits at the crash point, past the committed line
        assert resumed.scroll is not None and resumed.sidecar is not None
        assert resumed.replays
        assert all(replay.ok for replay in resumed.replays.values())
        # manifest schema v2 stamps the line's Scroll position; the sidecar
        # covers at least that far (the committed window is replayable)
        committed_position = resumed.manifest.get("scroll_position")
        assert isinstance(committed_position, int)
        assert int(resumed.sidecar["position"]) >= committed_position

    def test_crashed_run_resumes_to_uninterrupted_twin_line(self, tmp_path, flush_mode):
        """Parity: stop a run early ("crash"), resume, and continue to the
        twin's horizon — the continuation must land on the uninterrupted
        twin's application state."""
        full_store = str(tmp_path / "full")
        crashed_store = str(tmp_path / "crashed")
        full = Experiment(
            [kv_scenario("twin", full_store, until=6.0, flush_mode=flush_mode)]
        ).run()[0]
        crashed = Experiment(
            [kv_scenario("twin", crashed_store, until=4.0, flush_mode=flush_mode)]
        ).run()[0]

        resumed = Experiment.resume("twin", crashed_store)
        assert resumed.run_id == crashed.run_id
        crashed_lines = manifest_paths(crashed_store, crashed.run_id)
        full_lines = manifest_paths(full_store, full.run_id)
        assert len(full_lines) >= len(crashed_lines) >= 1

        # determinism + pure content addressing: the uninterrupted twin's
        # manifest at the crashed run's last line references the exact same
        # blob names for every state chunk
        with open(crashed_lines[-1]) as fh:
            crashed_manifest = json.load(fh)
        with open(full_lines[len(crashed_lines) - 1]) as fh:
            twin_manifest = json.load(fh)
        assert crashed_manifest["checkpoints"].keys() == twin_manifest["checkpoints"].keys()
        for pid in crashed_manifest["checkpoints"]:
            crashed_entry = crashed_manifest["checkpoints"][pid]
            twin_entry = twin_manifest["checkpoints"][pid]
            assert crashed_entry["state"] == twin_entry["state"]
            assert crashed_entry["vt"] == twin_entry["vt"]
            assert crashed_entry["rng_draws"] == twin_entry["rng_draws"]

        # replay-forward consumed the recorded post-line history cleanly
        assert resumed.replays
        assert all(replay.ok for replay in resumed.replays.values())

        # continuation parity: finishing the crashed run reaches the same
        # application state as the uninterrupted twin, and keeps appending
        # durable lines to the same run
        lines_before = len(manifest_paths(crashed_store, crashed.run_id))
        continued = resumed.continue_run(until=6.0)
        assert continued.state_projection() == full.state_projection()
        assert continued.consistent
        assert len(manifest_paths(crashed_store, crashed.run_id)) >= lines_before

        # a handle only continues once; resume again for another attempt
        with pytest.raises(ScenarioError):
            resumed.continue_run(until=6.0)

    def test_sync_and_pipelined_modes_commit_identical_manifests(self, tmp_path):
        """The pipelined writer is pure plumbing: the same scenario committed
        in both modes produces equal line manifests (modulo the unique run
        id) and the exact same content-addressed blob set."""
        from repro.dsim.message import reset_message_ids
        from repro.scroll.entry import reset_entry_seq

        stores = {}
        for mode in ("sync", "pipelined"):
            # message ids and scroll seqs are process-global counters; both
            # runs must start from the same values for blob-level equality
            reset_message_ids(1)
            reset_entry_seq(1)
            store = str(tmp_path / mode)
            outcome = Experiment(
                [kv_scenario("mode-twin", store, until=6.0, flush_mode=mode)]
            ).run()[0]
            stores[mode] = (store, outcome)
        sync_store, sync_outcome = stores["sync"]
        pipe_store, pipe_outcome = stores["pipelined"]
        sync_lines = manifest_paths(sync_store, sync_outcome.run_id)
        pipe_lines = manifest_paths(pipe_store, pipe_outcome.run_id)
        assert len(sync_lines) == len(pipe_lines) >= 2
        for sync_path, pipe_path in zip(sync_lines, pipe_lines):
            with open(sync_path) as fh:
                sync_manifest = json.load(fh)
            with open(pipe_path) as fh:
                pipe_manifest = json.load(fh)
            sync_manifest.pop("run_id")
            pipe_manifest.pop("run_id")
            assert sync_manifest == pipe_manifest
        assert _blob_names(sync_store) == _blob_names(pipe_store)
        # and the pipelined run re-pickled nothing on the commit path
        assert pipe_outcome.store["commit_pickled_bytes"] == 0

    def test_continuation_rearms_count_limited_message_faults(
        self, tmp_path, flush_mode
    ):
        """Regression: per-rule message-fault hit counts ride the pending
        snapshot and are restored on continuation.  Before that, the
        rebuilt engine re-armed an already-exhausted count-limited drop,
        so the continuation dropped one extra REPLICATE and its final
        state diverged from the uninterrupted twin's."""
        from repro.api.faults import Drop, FaultSchedule

        schedule = FaultSchedule.of(Drop(match_kind="REPLICATE", count=1, after=0.5))
        full_store = str(tmp_path / "full")
        crashed_store = str(tmp_path / "crashed")
        full = Experiment(
            [
                kv_scenario(
                    "fault-twin", full_store, until=8.0,
                    flush_mode=flush_mode, faults=schedule,
                )
            ]
        ).run()[0]
        assert sum(full.fault_hits.values()) == 1  # budget consumed early
        Experiment(
            [
                kv_scenario(
                    "fault-twin", crashed_store, until=4.0,
                    flush_mode=flush_mode, faults=schedule,
                )
            ]
        ).run()

        resumed = Experiment.resume("fault-twin", crashed_store)
        continued = resumed.continue_run(until=8.0)
        # the drop fired before the crash; the continuation must not re-fire
        assert sum(continued.fault_hits.values()) == 1
        assert continued.state_projection() == full.state_projection()

    def test_mp_recorded_run_resumes_on_the_simulator(self, store_path):
        """Regression: resume used to rebuild the *recorded* backend, so an
        mp-recorded run spawned an MPBackend whose restore path died with a
        SimulationError in ``clear_in_flight``.  Resume must always rebuild
        on the simulator and note the original backend on the handle."""
        outcome = Experiment([kv_scenario("mp-rec", store_path, until=4.0)]).run()[0]
        run_json = os.path.join(store_path, "runs", outcome.run_id, "run.json")
        with open(run_json) as fh:
            metadata = json.load(fh)
        # rewrite the recorded scenario as an mp run would have written it
        metadata["scenario"]["backend"] = "mp"
        metadata["scenario"]["transport"] = "shm"
        with open(run_json, "w") as fh:
            json.dump(metadata, fh)

        resumed = Experiment.resume("mp-rec", store_path)
        assert resumed.original_backend == "mp"
        assert resumed.scenario.backend == "sim"
        assert resumed.scenario.transport == "pipe"
        assert sorted(resumed.states()) == sorted(resumed.checkpoints)
        assert type(resumed.cluster.backend).__name__ == "SimBackend"

    def test_repeated_runs_dedupe_in_a_shared_store(self, store_path):
        """Two identical runs under different run_ids share one blob set."""
        first = Experiment(
            [kv_scenario("first", store_path, until=4.0)]
        ).run()[0]
        second = Experiment(
            [kv_scenario("second", store_path, until=4.0)]
        ).run()[0]
        assert second.store["bytes_on_disk"] == first.store["bytes_on_disk"] or (
            second.store["chunks_deduped"] > 0
        )
        # the second run wrote (almost) nothing new: its lines dedupe against
        # the first run's blobs
        assert second.store["chunks_written"] < first.store["chunks_written"]

    def test_repeated_executions_of_one_name_get_distinct_runs(self, store_path):
        """Re-running a same-named scenario must not overwrite the earlier
        run's manifests; resume-by-name picks the most recent execution."""
        first = Experiment([kv_scenario("again", store_path, until=4.0)]).run()[0]
        second = Experiment([kv_scenario("again", store_path, until=4.0)]).run()[0]
        assert first.run_id != second.run_id
        assert set(DurableCheckpointStore.run_ids(store_path)) == {
            first.run_id,
            second.run_id,
        }
        # both runs kept their own complete manifest sequences
        for outcome in (first, second):
            lines = manifest_paths(store_path, outcome.run_id)
            assert len(lines) == outcome.store["lines_committed"]
            metadata = DurableCheckpointStore.run_metadata(store_path, outcome.run_id)
            assert metadata["scenario"]["name"] == "again"
        resumed = Experiment.resume("again", store_path)
        assert resumed.run_id == second.run_id
        # the exact run id still targets the older execution
        assert Experiment.resume(first.run_id, store_path).run_id == first.run_id

    def test_scenario_name_with_path_separator_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(app="kvstore", name="../evil")

    def test_pipelined_run_and_continuation_stop_their_writer_threads(self, store_path):
        """Regression: nothing closed the durable store, so a pipelined run
        and its continuation each left a flush-pipeline thread alive."""

        def writer_threads() -> int:
            return sum(
                1
                for thread in threading.enumerate()
                if thread.name.endswith("-pipeline") and thread.is_alive()
            )

        before = writer_threads()
        Experiment(
            [kv_scenario("leak", store_path, until=4.0, flush_mode="pipelined")]
        ).run()
        assert writer_threads() == before
        Experiment.resume("leak", store_path).continue_run(until=6.0)
        assert writer_threads() == before

    def test_resume_unknown_run_raises(self, store_path):
        Experiment([kv_scenario("present", store_path, until=4.0)]).run()
        with pytest.raises(CheckpointError):
            Experiment.resume("absent", store_path)

    def test_resume_without_committed_lines_raises(self, store_path):
        # until=1.0 ends before the first auto-commit at 2.0: metadata exists,
        # but no recovery line was ever committed
        Experiment([kv_scenario("too-short", store_path, until=1.0)]).run()
        with pytest.raises(CheckpointError):
            Experiment.resume("too-short", store_path)

    def test_disk_store_without_path_is_rejected(self):
        with pytest.raises(Exception):
            Scenario(
                app="kvstore",
                name="nopath",
                checkpoint_store="disk",
            )

    def test_memory_store_reports_no_store_stats(self):
        outcome = Experiment(
            [
                Scenario(
                    app="kvstore",
                    name="mem",
                    params={"replicas": 2, "clients": 1},
                    until=3.0,
                )
            ]
        ).run()[0]
        assert outcome.store is None
