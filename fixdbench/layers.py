"""Per-layer metrics from a traced run.

Each metric is a self time (span duration minus child spans, see
``tracing.py``), a count, or a ratio of counts, normalised by the work
it serves.  The comment on each group names the end-to-end metric and
workload it should move; a layer a workload does not exercise reads 0.

The traced segment runs whole passes, so every count below is exact
and repeats run after run for one seed; only the times vary.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracing import SpanRecorder

#: the transports of ``procs``, in the order their metrics are reported
SUBSTRATES = ("pipe", "shm", "net")


def _wire(transport: dict, substrate: str):
    """``(writes, wire bytes)`` of one real-process run."""
    if substrate == "net":
        return transport.get("socket_writes", 0), transport.get("socket_bytes", 0)
    if substrate == "shm":
        return (
            transport.get("pipe_writes", 0) + transport.get("ring_frames", 0),
            transport.get("ring_bytes", 0) + transport.get("pickled_bytes", 0),
        )
    return transport.get("pipe_writes", 0), transport.get("pickled_bytes", 0)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(bench, args):
    """Untraced then traced segments; returns ``(metrics, extra lines)``."""
    # whole passes on both sides, so both rates cover the same jobs
    untraced = bench.segment(args.seconds / 2.0, whole_passes=True)
    untraced_rate = bench.end_to_end(untraced)["events_per_s"][0]
    extras = bench.untraced_extras(untraced)

    recorder = SpanRecorder()
    # Time Machines for one pass (a durable job finishes two runs);
    # reading their stats pickles every checkpoint, so stop there
    recorder.keep_time_machines = 2 * len(bench.workload.jobs)
    recorder.install()
    try:
        traced = bench.segment(args.seconds, whole_passes=True, recorder=recorder)
    finally:
        recorder.uninstall()
    traced_rate = bench.end_to_end(traced)["events_per_s"][0]
    first_pass = traced[: len(bench.workload.jobs)]

    rollup = recorder.rollup({r.run_label: r.scale for r in traced})

    def self_ms(*names):
        return sum(rollup.get(name, {}).get("self_s", 0.0) for name in names) * 1000.0

    def calls(name):
        return rollup.get(name, {}).get("count", 0)

    events = sum(r.events for r in traced)
    kevents = events / 1000.0
    faults = sum(r.faults_detected for r in traced)
    commits = calls("timemachine.commit")
    resumes = sum(1 for r in traced if r.resume_s is not None)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (float(value), unit)

    # Run loop, clocks, app floor, invariants, Scroll recording:
    # events_per_s on steady (and faults for run loop / Scroll).
    put("dsim.run_self_ms_per_kevent", _ratio(self_ms("dsim.run"), kevents), "ms/kevent")
    put("dsim.clock_snapshot_ms_per_kevent", _ratio(self_ms("dsim.clock_snapshot"), kevents), "ms/kevent")
    put("app.handler_self_ms_per_kevent", _ratio(self_ms("app.deliver", "app.fire_timer"), kevents), "ms/kevent")
    put("app.invariants_ms_per_kevent", _ratio(self_ms("app.invariants"), kevents), "ms/kevent")
    put("scroll.record_ms_per_kevent", _ratio(self_ms("scroll.record"), kevents), "ms/kevent")
    counts = bench.pass_counts(first_pass)
    put("scroll.entries_per_event", *counts["scroll.entries_per_event"])

    # Checkpoint capture: events_per_s and process.peak_rss_mb on steady,
    # run_ms_p50 on faults; nothing on procs.
    put("timemachine.deepcopy_capture_ms_per_kevent", _ratio(self_ms("timemachine.deepcopy_capture"), kevents), "ms/kevent")
    put("timemachine.cow_capture_ms_per_kevent", _ratio(self_ms("timemachine.cow_capture"), kevents), "ms/kevent")
    put("timemachine.checkpoints_per_event", _ratio(calls("timemachine.deepcopy_capture"), events), "1/event")
    stats = [s for r in first_pass for s in r.checkpoint_stats]
    checkpoints = sum(s[0] for s in stats)
    put(
        "timemachine.checkpoint_bytes_full_per_checkpoint",
        _ratio(sum(s[1] for s in stats), checkpoints),
        "B/ckpt",
    )
    put(
        "timemachine.cow_serialized_bytes_per_checkpoint",
        _ratio(sum(s[2] for s in stats), checkpoints),
        "B/ckpt",
    )

    # Recovery, per detected fault: fault_response_ms_* on faults only.
    put("timemachine.recovery_line_ms", _ratio(self_ms("timemachine.recovery_line"), faults), "ms/fault")
    put("timemachine.rollback_ms", _ratio(self_ms("timemachine.rollback"), faults), "ms/fault")
    put("timemachine.restore_ms", _ratio(self_ms("timemachine.restore"), faults), "ms/fault")
    put("core.protocol_ms", _ratio(self_ms("core.protocol"), faults), "ms/fault")
    put("core.report_ms", _ratio(self_ms("core.report"), faults), "ms/fault")
    put("core.fault_response_self_ms", _ratio(self_ms("core.fault_response"), faults), "ms/fault")
    put("core.reports_per_fault", *counts["core.reports_per_fault"])

    # Untraced: the run-time tail, memory, fault response (faults) and
    # resume (durable) latencies.
    for name, (value, unit) in extras.items():
        put(name, value, unit)

    # Per-run facade cost: run_ms_p50 and api.run_ms_p90 on faults.
    # api.scenario_self_ms is what run_scenario does outside every
    # wrapped layer: cluster and FixD construction, fault-plan install.
    put(
        "api.scenario_self_ms",
        _ratio(self_ms("api.run_scenario", "api.continue_run"), calls("api.run_scenario") + calls("api.continue_run")),
        "ms/call",
    )
    put("api.build_ms", _ratio(self_ms("api.build"), calls("api.build")), "ms/call")
    put("api.attach_ms", _ratio(self_ms("api.attach"), calls("api.attach")), "ms/call")
    put("api.outcome_ms", _ratio(self_ms("api.outcome"), calls("api.outcome")), "ms/call")

    # Durable writes, per commit: events_per_s on durable.
    put("timemachine.commit_ms", _ratio(self_ms("timemachine.commit"), commits), "ms/commit")
    put("timemachine.flush_line_ms", _ratio(self_ms("timemachine.flush_line"), commits), "ms/commit")
    put("timemachine.flush_scroll_ms", _ratio(self_ms("timemachine.flush_scroll"), commits), "ms/commit")
    put("timemachine.blob_put_ms", _ratio(self_ms("timemachine.blob_put"), commits), "ms/commit")
    put(
        "timemachine.blob_bytes_written_per_commit",
        _ratio(recorder.counters["blob_bytes_written"], commits),
        "B/commit",
    )
    put("timemachine.flush_wait_ms", _ratio(self_ms("timemachine.flush_wait"), commits), "ms/commit")
    stores = [store for r in traced for store in r.stores]
    chunks = sum(
        s.get("chunks_written", 0) + s.get("chunks_deduped", 0) + s.get("chunks_reused", 0)
        for s in stores
    )
    put("timemachine.chunk_reuse_ratio", _ratio(sum(s.get("chunks_reused", 0) for s in stores), chunks), "ratio")

    # Durable reads, per resume: resume_ms_p50 on durable.
    put("timemachine.restore_line_ms", _ratio(self_ms("timemachine.restore_line"), resumes), "ms/resume")
    put("timemachine.rebuild_scroll_ms", _ratio(self_ms("timemachine.rebuild_scroll"), resumes), "ms/resume")
    put("scroll.replay_forward_ms", _ratio(self_ms("scroll.replay_forward"), resumes), "ms/resume")
    put("api.resume_self_ms", _ratio(self_ms("api.resume"), resumes), "ms/resume")

    # Transports, per substrate: cpu_us_per_event and events_per_s on
    # procs; nothing on the sim workloads.
    by_substrate = defaultdict(list)
    for job, result in zip(_job_cycle(bench, len(traced)), traced):
        substrate = getattr(job, "substrate", None)
        if substrate is not None:
            by_substrate[substrate].append(result)
    for substrate in SUBSTRATES:
        runs = by_substrate.get(substrate, [])
        messages = sum(r.transport.get("messages_routed", 0) for r in runs)
        writes = sum(_wire(r.transport, substrate)[0] for r in runs)
        wire = sum(_wire(r.transport, substrate)[1] for r in runs)
        pickled = sum(r.transport.get("pickled_bytes", 0) for r in runs)
        sub_kevents = sum(r.events for r in runs) / 1000.0
        run_wall = sum(r.run_wall_s * r.scale for r in runs)
        run_cpu = sum(r.run_cpu_s * r.scale for r in runs)
        prefix = f"transport.{substrate}"
        put(f"{prefix}.writes_per_msg", _ratio(writes, messages), "1/msg")
        put(f"{prefix}.pickled_bytes_per_msg", _ratio(pickled, messages), "B/msg")
        put(f"{prefix}.wire_bytes_per_msg", _ratio(wire, messages), "B/msg")
        put(f"{prefix}.max_batch", max((r.transport.get("max_batch", 0) for r in runs), default=0), "count")
        prefix = f"dsim.{substrate}"
        put(f"{prefix}.router_cpu_ms_per_kevent", _ratio(run_cpu * 1000.0, sub_kevents), "ms/kevent")
        put(
            f"{prefix}.worker_cpu_ms_per_kevent",
            _ratio(sum(r.children_cpu_s * r.scale for r in runs) * 1000.0, sub_kevents),
            "ms/kevent",
        )
        put(f"{prefix}.run_idle_frac", 1.0 - run_cpu / run_wall if run_wall else 0.0, "frac")

    # Deterministic pass counts and the cost of tracing itself.
    put("workload.events_per_pass", *counts["workload.events_per_pass"])
    put("trace.overhead_frac", 1.0 - traced_rate / untraced_rate, "frac")

    spans_path = os.path.join(bench.out_dir, f"spans-{bench.workload_name}-seed{bench.seed}.jsonl.gz")
    recorder.write(spans_path)
    lines = [f"{'workload.pass_digest':58s} {bench.pass_digest(first_pass)}"]
    lines.append(f"spans: {len(recorder.spans)} written to {spans_path}")
    lines.extend(
        f"  {name:38s} calls={row['count']:8d} total_ms={row['total_s'] * 1000:10.2f} "
        f"self_ms={row['self_s'] * 1000:10.2f}"
        for name, row in sorted(rollup.items())
    )
    lines.append(f"untraced events_per_s={untraced_rate:.1f} traced events_per_s={traced_rate:.1f}")
    return metrics, lines


def _job_cycle(bench, count):
    jobs = bench.workload.jobs
    return [jobs[index % len(jobs)] for index in range(count)]
