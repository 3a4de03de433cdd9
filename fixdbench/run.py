"""Whole-run FixD benchmark: one seeded workload through the ``repro.api`` facade.

Usage, from the root of a checkout::

    python3 fixdbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Workloads (see ``fixdbench/workloads.py`` for why each exists):
``steady`` (fault-free sim runs), ``faults`` (~600 generated fault
scenarios), ``durable`` (disk store, crash at a seeded horizon, resume,
continue) and ``procs`` (mp-pipe, mp-shm and net).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures an untraced segment, then a traced one (spans
around every layer boundary, see ``fixdbench/tracing.py``), and reports
per-layer self times, deterministic counts and the tracing overhead.
Either way every run's output is checked; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``failed / attempted`` is the run's failed fraction.
Traced runs write their spans under ``.fixdbench_out/`` in the
checkout; temporary durable stores live under ``.fixdbench_tmp/`` and
are removed after each run.

Each invocation is a fresh process, so peak RSS and ``setup_s``
belong to its workload.  ``setup_s`` is importing the facade, building
the seeded inputs and running the first job cold, before any oracle
work; it is measured in this process and in two more fresh ones, and
the median is reported.

Times of ``steady``, ``faults`` and ``procs`` are scaled to a nominal
machine speed (see :func:`machine_probe`); the unscaled figures are
printed as ``raw.*`` lines next to them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("steady", "faults", "durable", "procs")
#: fresh processes that measure set-up only, besides the measuring one
SETUP_PROBES = 2
#: AF_UNIX socket paths must stay below ~108 bytes
MAX_SOCKET_DIR = 80
#: what :func:`machine_probe` took on an uncontended 2-vCPU Xeon VM;
#: scaled times are reported at that machine speed
PROBE_NOMINAL_S = 0.0065
#: how much the program slows down per unit of probe slowdown, on a log
#: scale: on that VM the log-log slope of steady pass throughput against
#: the probe was 0.34 to ~1.0 across three 14-25 pass series, and of
#: 0, 0.5, 0.6, 0.7 and 1, 0.5 left the least spread over two sets of
#: five seeded benchmark runs (see ``probe_scale``)
PROBE_ELASTICITY = 0.5
#: probe calls on each side of the set-up, which has no neighbours
SETUP_PROBE_CALLS = 4
#: how long children left at exit get to end after SIGTERM
CHILD_GRACE_S = 5.0


def collect_garbage():
    """Run a full collection; returns its (wall, CPU) seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    gc.collect()
    return time.perf_counter() - wall, time.process_time() - cpu


def machine_probe() -> float:
    """CPU seconds this thread takes for a fixed pure-Python loop right now.

    The host this benchmark runs on is shared: the same loop runs up to
    ~2x slower for seconds to minutes at a time.  The probe runs between
    jobs throughout a measured segment, and the segment's times are
    multiplied by :func:`probe_scale`, so slowdowns that hit the
    program and the probe alike cancel.  The probe is the
    benchmark's own code, the same on every commit, so a change to the
    program still moves every scaled time by what it saves.

    Nothing the program leaves behind may slow the probe down, or the
    scaling would cancel it too: the probe runs right after the
    program's garbage is collected, with the collector off, and counts
    the CPU time of its own thread only, so threads the program left
    running (holding the GIL, say) do not lengthen it.  It costs ~8 ms.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        total = 0.0
        for _ in range(8):
            start = time.thread_time()
            table, items = {}, []
            for i in range(3000):
                table[i % 300] = table.get(i % 300, 0) + i
                items.append((i, str(i)))
            total += time.thread_time() - start
        return total
    finally:
        if enabled:
            gc.enable()


def probe_scale(probes) -> float:
    """The factor that brings times measured next to ``probes`` to nominal speed.

    The probe's tight loop slows down more than the program does when
    the host is busy, so the factor is ``PROBE_NOMINAL_S / mean(probes)``
    damped by ``PROBE_ELASTICITY``.
    """
    return (PROBE_NOMINAL_S / statistics.fmean(probes)) ** PROBE_ELASTICITY


def child_pids():
    """Pids of this process's children, exited ones included (Linux ``/proc``)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The shm transport starts multiprocessing's resource tracker, which
    would otherwise outlive the benchmark (it ends only when it sees its
    pipe close) and be left unreaped; any other child still here is
    terminated, and killed if it has not ended within ``CHILD_GRACE_S``.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # closes its pipe, then waits for it
    pids = child_pids() if os.path.isdir("/proc") else []
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + CHILD_GRACE_S
    for pid in pids:
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:
            pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Put ``src`` on the path for this process and its children."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    tmp = ROOT / ".fixdbench_tmp"
    tmp.mkdir(exist_ok=True)
    if len(str(tmp)) <= MAX_SOCKET_DIR:
        # net-backend sockets and any other temp files stay in the checkout
        os.environ["TMPDIR"] = str(tmp)


def quantile(values, q: float) -> float:
    """The ``q`` quantile (inclusive method); the value itself for one sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


class Bench:
    """Set-up, warm-up and timed segments of one workload in this process."""

    def __init__(self, workload_name: str, seed: int) -> None:
        self.workload_name = workload_name
        self.seed = seed
        self.out_dir = str(ROOT / ".fixdbench_out")
        self.attempted = 0
        self.failed_runs = 0
        self.failures = []
        self.first_pass = []
        self.reference = {}
        self.fault_samples = []

    # ------------------------------------------------------------------
    def setup(self):
        """Import, inputs and the first job, cold and unchecked.

        Returns ``(scaled, raw)`` set-up seconds.  The first job runs
        before any oracle work (``prepare``), so every process that
        measures set-up measures the same thing.
        """
        gc.collect()
        machine_probe()  # the first call in a process runs cold
        probes = [machine_probe() for _ in range(SETUP_PROBE_CALLS)]
        started = time.perf_counter()
        import workloads  # imports repro.api and repro.fuzz

        self.workloads = workloads
        from tracing import untraced_fault_timer

        untraced_fault_timer(self.fault_samples)
        self.tmp_root = workloads.make_tmp_root(str(ROOT))
        self.workload = workloads.WORKLOADS[self.workload_name](self.seed, self.tmp_root)
        inputs_s = time.perf_counter() - started
        first = self.run_job(0, check=False)
        collect_s, _ = collect_garbage()
        probes += [machine_probe() for _ in range(SETUP_PROBE_CALLS)]
        raw = inputs_s + first.wall_s + collect_s
        scale = probe_scale(probes) if self.workload.scaled else 1.0
        return raw * scale, raw

    def close(self) -> None:
        if hasattr(self, "tmp_root"):
            shutil.rmtree(self.tmp_root, ignore_errors=True)

    def run_job(self, index: int, recorder=None, check: bool = True):
        """Run one job; an unchecked run is neither counted nor compared."""
        job = self.workload.jobs[index]
        meter = self.workloads.Meter(recorder)
        label = f"{job.key}#{self.attempted}"
        if recorder is not None:
            mark = len(recorder.spans)
            recorder.run = label
        try:
            result = job.run(meter, check)
        except Exception as error:  # a raising run is a failed run
            result = self.workloads.JobResult(failures=[f"{job.key}: {type(error).__name__}: {error}"])
        result.run_label = label
        result.wall_s = meter.wall_s
        result.cpu_s = meter.cpu_s
        result.children_cpu_s = meter.children_cpu_s
        if recorder is not None:
            run_spans = [span for span in recorder.spans[mark:] if span[1] == "dsim.run"]
            result.run_wall_s = sum(span[3] - span[2] for span in run_spans)
            result.run_cpu_s = sum(span[6] for span in run_spans)
            result.checkpoint_stats = [
                (tm.store.total_checkpoints(), tm.store.total_bytes(), tm.cow_store.serialized_bytes_total)
                for tm in recorder.time_machines
            ]
            recorder.time_machines.clear()
        if not check:
            return result
        reference = self.reference.setdefault(job.key, result.digest)
        if result.digest != reference:
            result.failures.append(f"{job.key}: output digest differs from its first run")
        self.attempted += 1
        if result.failures:
            self.failed_runs += 1
            self.failures.extend(result.failures)
        return result

    def warm_up(self) -> None:
        """The untimed oracle work, then one checked pass.

        The pass warms caches and lazy imports and fixes the reference
        digests the timed runs are compared with.
        """
        self.workload.prepare()
        self.first_pass = [self.run_job(index) for index in range(len(self.workload.jobs))]

    def segment(self, seconds: float, whole_passes: bool, recorder=None):
        """Run batches (or whole passes) until ``seconds`` of loop time have passed.

        Every ``probe_every`` jobs the garbage those jobs left is
        collected and charged to them in equal shares, and then the
        machine probe runs; every result is scaled by the segment's mean
        probe.  Fault-response samples are those of this segment only.
        """
        jobs = len(self.workload.jobs)
        step = jobs if whole_passes else self.workload.batch
        gc.collect()
        self.fault_samples.clear()
        probes = [machine_probe()] if self.workload.scaled else None
        results, pending, index = [], [], 0
        started = time.perf_counter()
        while not results or time.perf_counter() - started < seconds:
            for offset in range(step):
                pending.append(self.run_job((index + offset) % jobs, recorder))
                if len(pending) == self.workload.probe_every or offset == step - 1:
                    wall, cpu = collect_garbage()
                    for result in pending:
                        result.wall_s += wall / len(pending)
                        result.cpu_s += cpu / len(pending)
                    results.extend(pending)
                    pending = []
                    if probes is not None:
                        probes.append(machine_probe())
            index = (index + step) % jobs
        if probes is not None:
            scale = probe_scale(probes)
            for result in results:
                result.scale = scale
        return results

    # ------------------------------------------------------------------
    def end_to_end(self, results, raw: bool = False) -> dict:
        """The guarded metrics (unscaled with ``raw``).

        Throughput and CPU are medians over batches; a batch of steady,
        durable or procs is one whole pass, so every job (app, flush
        mode, substrate) is in every sample.  ``run_ms_p50`` is, on
        those three, each job's median run time averaged over the jobs,
        so a change to any one of them moves it; on faults, whose ~600
        scenarios all differ, it is the median over runs.
        """
        batch = self.workload.batch
        batches = [results[i : i + batch] for i in range(0, len(results) - batch + 1, batch)]

        def scale(result):
            return 1.0 if raw else result.scale

        rates = [
            sum(r.events for r in chunk) / sum(r.wall_s * scale(r) for r in chunk)
            for chunk in batches
        ]
        cpu = [
            sum(r.cpu_s * scale(r) for r in chunk) / sum(r.events for r in chunk) * 1e6
            for chunk in batches
        ]
        run_ms = {}
        for r in results:
            run_ms.setdefault(r.run_label.split("#")[0], []).append(r.wall_s * scale(r) * 1000.0)
        if batch == len(self.workload.jobs):
            run_p50 = statistics.fmean(statistics.median(walls) for walls in run_ms.values())
        else:
            run_p50 = statistics.median(wall for walls in run_ms.values() for wall in walls)
        return {
            "events_per_s": (statistics.median(rates), "1/s"),
            "run_ms_p50": (run_p50, "ms"),
            "cpu_us_per_event": (statistics.median(cpu), "us"),
        }

    def untraced_extras(self, results) -> dict:
        """Measured with tracing off but unguarded: the tail, memory, and
        the latencies that exist on one workload only."""
        scale = statistics.median(r.scale for r in results)
        faults = [s * scale * 1000.0 for s in self.fault_samples]
        resumes = [r.resume_s * r.scale * 1000.0 for r in results if r.resume_s is not None]
        return {
            "machine.probe_scale": (scale, "ratio"),
            "api.run_ms_p90": (quantile([r.wall_s * r.scale * 1000.0 for r in results], 0.9), "ms"),
            "process.peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "core.fault_response_ms_p50": (quantile(faults, 0.5) if faults else 0.0, "ms"),
            "core.fault_response_ms_p90": (quantile(faults, 0.9) if faults else 0.0, "ms"),
            "api.resume_ms_p50": (quantile(resumes, 0.5) if resumes else 0.0, "ms"),
        }

    def pass_counts(self, pass_results) -> dict:
        events = sum(r.events for r in pass_results)
        return {
            "workload.events_per_pass": (events, "count"),
            "workload.runs_per_pass": (len(pass_results), "count"),
            "scroll.entries_per_event": (
                sum(r.scroll_entries for r in pass_results) / events,
                "1/event",
            ),
            "core.reports_per_fault": (
                sum(r.reports for r in pass_results)
                / max(1, sum(r.faults_detected for r in pass_results)),
                "ratio",
            ),
        }

    def pass_digest(self, pass_results) -> str:
        return self.workloads.digest([r.digest for r in pass_results])


def measure_setup_in_fresh_process(args):
    """``(scaled, raw)`` set-up seconds of a fresh process."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--setup-probe",
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
    return tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def emit(metrics: dict, bench: Bench, extra_lines=()) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:58s} {value:14.6g} {unit}")
    for line in extra_lines:
        print(line)
    failed_runs = bench.failed_runs
    print(f"{'failed_frac':58s} {failed_runs / bench.attempted:14.6g} ({failed_runs}/{bench.attempted} runs)")
    for failure in bench.failures[:20]:
        print(f"FAILURE {failure}")
    print(
        json.dumps(
            {
                "correct": failed_runs == 0,
                "attempted": bench.attempted,
                "failed": failed_runs,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


def main(argv=None) -> int:
    try:
        return measure(parse_args(argv))
    finally:
        stop_children()


def measure(args) -> int:
    if not (SRC / "repro" / "api" / "__init__.py").is_file():
        print(f"fixdbench: no FixD sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("fixdbench: --seconds must be positive", file=sys.stderr)
        return 2
    prepare_environment()
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    bench = Bench(args.workload, args.seed)
    if args.setup_probe:
        try:
            print(json.dumps({"setup_s": bench.setup()}))
        finally:
            bench.close()
        return 0
    setups = []
    if not args.trace:
        setups = [measure_setup_in_fresh_process(args) for _ in range(SETUP_PROBES)]
    try:
        setups.append(bench.setup())
        bench.warm_up()
        if args.trace:
            from layers import per_layer

            metrics, lines = per_layer(bench, args)
        else:
            results = bench.segment(args.seconds, whole_passes=False)
            metrics = bench.end_to_end(results)
            metrics["setup_s"] = (statistics.median(scaled for scaled, _ in setups), "s")
            raw = {f"raw.{name}": value for name, value in bench.end_to_end(results, raw=True).items()}
            extra = {
                **raw,
                "raw.setup_s": (statistics.median(raw_s for _, raw_s in setups), "s"),
                **bench.untraced_extras(results),
                **bench.pass_counts(bench.first_pass),
            }
            lines = [f"{name:58s} {value:14.6g} {unit}" for name, (value, unit) in extra.items()]
            lines.append(f"{'workload.pass_digest':58s} {bench.pass_digest(bench.first_pass)}")
    finally:
        bench.close()
    emit(metrics, bench, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
