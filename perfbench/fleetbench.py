"""Fleet benchmark: workloads, set-up, timed phases and correctness gates.

Every workload screens the same kind of device population: a
:class:`~repro.sim.FleetPopulation` of 96 devices over the DVFS app
sets with 8% malware and 5% zero-day devices, watched by one trusted
HMD — a float64, scaler-only (no PCA) :class:`~repro.uncertainty.TrustedHMD`
over a 100-member random forest fitted on the quarter-scale DVFS dataset,
the scale the fleet gates under ``benchmarks/`` also use.  A full-scale
fit would make every set-up several times longer, and a run's set-ups
then stretch it over minutes in which a shared host changes speed.
The model is fixed by :data:`DATA_SEED`; the workload seed chooses the
traffic (which app each device runs, which windows it sends, the
simulated traces), so the program only ever sees generated inputs.

The benchmark is a client of the package: it calls public functions
only, runs with ``repro.obs`` telemetry off, and for the traced run
wraps public methods from this directory (:mod:`spans`).
"""

from __future__ import annotations

import inspect
import json
import math
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"repro must come from {SRC}; found {repro.__file__}.")

from repro.data import build_dvfs_dataset, clear_dataset_cache  # noqa: E402
from repro.fleet import (  # noqa: E402
    BackpressurePolicy,
    FleetMonitor,
    FleetQueue,
    FleetWindowSampler,
    ShardQueue,
    WorkerShardedFleetMonitor,
    account_windows,
)
from repro.fleet.shm import ShmBlockRing  # noqa: E402
from repro.hmd.apps import (  # noqa: E402
    DVFS_KNOWN_BENIGN,
    DVFS_KNOWN_MALWARE,
    DVFS_UNKNOWN,
)
from repro.hmd.features import DvfsFeatureExtractor  # noqa: E402
from repro.ml import RandomForestClassifier  # noqa: E402
from repro.sim import (  # noqa: E402
    ActivityBatch,
    FleetPopulation,
    SocSimulator,
    WorkloadGenerator,
)
from repro.uncertainty import TrustedHMD  # noqa: E402
from repro.uncertainty.entropy import (  # noqa: E402
    shannon_entropy,
    votes_to_distribution,
)

from spans import SpanRecorder  # noqa: E402

#: ``drain`` (the ``worker_drain`` traffic, in process) was dropped: its
#: rate follows a shared host's memory contention, and on a 2-vCPU VM
#: its spread over ten seeds reached a third of its median.
WORKLOADS = ("trace_ingest", "worker_drain")

#: Seed of the training data and the forest: the deployed model.
DATA_SEED = 7
WINDOW_STEPS = 240
BATCH_SIZE = 256
#: Round width of ``worker_drain``.  Every round crosses the process
#: boundary twice, and the cost of those hand-offs follows the shared
#: host's load more than compute does: in interleaved runs the spread of
#: ``windows_per_s`` over ten seeds was 0.34 of its median at 256 rows
#: and 0.12 at 1024.
WORKER_BATCH_SIZE = 1024
THRESHOLD = 0.40
#: Traced top-level spans must cover at least this share of the timed
#: wall time; the rest is the benchmark's own loop overhead.
COVERAGE_FLOOR = 0.95

#: Worker shards of ``worker_drain``.  One child leaves the second core
#: of a 2-core host to the parent; with two children the three processes
#: share two cores and, interleaved on one host, the spread of
#: ``windows_per_s`` over seeds rose from 0.23 to 0.38 of its median.
N_SHARDS = 1
#: Rounds one ``drain()`` call may finish on ``worker_drain``: the client
#: receives verdicts in chunks of this many pipelined rounds.
WORKER_ROUNDS_PER_CALL = 4

#: Metric names and units, as declared for the runner.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Size:
    """Shape of one benchmark run (the tests use a tiny one)."""

    dataset_scale: float = 0.25
    n_estimators: int = 100
    n_devices: int = 96
    drain_windows: int = 100        # per device per worker_drain trial
    ingest_windows: int = 40        # windows in each device's raw trace
    setup_repeats: int = 3
    oracle_sample: int = 2000


FULL = Size()
TINY = Size(
    dataset_scale=0.1,
    n_estimators=8,
    n_devices=12,
    drain_windows=48,
    ingest_windows=24,
    setup_repeats=2,
    oracle_sample=24,
)


# -- set-up ------------------------------------------------------------


def import_seconds() -> float:
    """Time ``import repro.fleet`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import repro.fleet; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Ready:
    """Everything one set-up leaves ready for the timed phase."""

    workload: str
    hmd: TrustedHMD
    device_ids: np.ndarray          # sorted; a device's index is its key prefix
    monitor: object
    inputs: list                    # per device: feature block or raw trace
    layers: dict[str, float]        # per-layer set-up seconds
    setup_s: float
    next_seq: np.ndarray            # per device: the seq its next window gets


def _policy(n_windows: int) -> BackpressurePolicy:
    # Sized above the workload's window count: nothing may be shed.
    return BackpressurePolicy(max_pending=n_windows + 1)


def _raw_traces(devices, seed: int, size: Size, layers: dict) -> list:
    """One multi-window DVFS trace per device (seeded, batched simulator)."""
    n_steps = size.ingest_windows * WINDOW_STEPS
    seeds = np.random.SeedSequence([seed, 1]).generate_state(len(devices))
    activity = ActivityBatch.from_traces(
        WorkloadGenerator(dt=0.05, random_state=int(s)).generate(d.spec, n_steps)
        for s, d in zip(seeds, devices)
    )
    soc = SocSimulator(random_state=seed)
    t0 = time.perf_counter()
    dvfs = soc.run_batch(activity)
    layers["sim.run_batch.s"] = time.perf_counter() - t0
    layers["sim.windows"] = len(devices) * size.ingest_windows
    return [dvfs.window(i) for i in range(len(devices))]


def setup(workload: str, seed: int, size: Size) -> Ready:
    """One full set-up: import, data, fit, compile, inputs, monitor."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected {WORKLOADS}.")
    layers = {"import.s": import_seconds()}
    t_start = time.perf_counter()
    clear_dataset_cache()
    t0 = time.perf_counter()
    dataset = build_dvfs_dataset(seed=DATA_SEED, scale=size.dataset_scale)
    t1 = time.perf_counter()
    hmd = TrustedHMD(
        RandomForestClassifier(
            n_estimators=size.n_estimators, random_state=DATA_SEED
        ),
        threshold=THRESHOLD,
    ).fit(dataset.train.X, dataset.train.y)
    t2 = time.perf_counter()
    hmd.compile()
    t3 = time.perf_counter()
    layers["data.build.s"] = t1 - t0
    layers["ml.fit.s"] = t2 - t1
    layers["uncertainty.compile.s"] = t3 - t2

    devices = FleetPopulation(
        DVFS_KNOWN_BENIGN,
        DVFS_KNOWN_MALWARE,
        DVFS_UNKNOWN,
        malware_fraction=0.08,
        zero_day_fraction=0.05,
        random_state=seed,
    ).sample(size.n_devices)
    sampler = FleetWindowSampler(dataset, devices, random_state=seed + 1)
    if workload == "trace_ingest":
        inputs = _raw_traces(devices, seed, size, layers)
        cap = size.n_devices * size.ingest_windows
    else:
        inputs = [sampler.windows(d.device_id, size.drain_windows) for d in devices]
        cap = size.n_devices * size.drain_windows

    if workload == "worker_drain":
        t0 = time.perf_counter()
        monitor = WorkerShardedFleetMonitor(
            hmd,
            n_shards=N_SHARDS,
            batch_size=WORKER_BATCH_SIZE,
            policy=_policy(cap),
        )
        monitor.register_fleet(devices)
        monitor.heartbeat()
        layers["workers.spawn_ready.s"] = time.perf_counter() - t0
    else:
        monitor = FleetMonitor(hmd, batch_size=BATCH_SIZE, policy=_policy(cap))
        monitor.register_fleet(devices)
    setup_s = layers["import.s"] + time.perf_counter() - t_start

    device_ids = np.array([d.device_id for d in devices])
    if not np.all(device_ids[:-1] < device_ids[1:]):
        raise AssertionError("FleetPopulation ids are expected in sorted order.")
    return Ready(
        workload=workload,
        hmd=hmd,
        device_ids=device_ids,
        monitor=monitor,
        inputs=inputs,
        layers=layers,
        setup_s=setup_s,
        next_seq=np.zeros(len(devices), dtype=np.int64),
    )


def close_monitor(ready: Ready) -> float | None:
    """Stop a worker monitor's processes; returns the close() seconds."""
    if isinstance(ready.monitor, WorkerShardedFleetMonitor):
        t0 = time.perf_counter()
        ready.monitor.close()
        return time.perf_counter() - t0
    return None


def stop_helpers() -> None:
    """Wait for every child process and stop the shared-memory tracker.

    Creating a shared-memory segment starts ``multiprocessing``'s
    resource-tracker process, which otherwise outlives this one for a
    moment after it exits.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


# -- correctness -------------------------------------------------------

KEY_SHIFT = np.int64(1) << np.int64(32)


def oracle_verdicts(hmd: TrustedHMD, X: np.ndarray):
    """Reference verdicts: the legacy per-member vote loop + entropy threshold."""
    Z = hmd.scaler_.transform(np.asarray(X, dtype=float))
    votes = hmd.ensemble_.decisions(Z)
    distribution = votes_to_distribution(votes, hmd.classes_)
    labels = hmd.classes_[np.argmax(distribution, axis=1)]
    entropy = shannon_entropy(distribution, base=hmd.estimator_.base)
    return labels, entropy, entropy <= hmd.threshold


@dataclass(frozen=True)
class VerdictLog:
    """The verdict columns of one trial, keyed ``device_index << 32 | seq``."""

    keys: np.ndarray
    predictions: np.ndarray
    entropy: np.ndarray
    accepted: np.ndarray

    @classmethod
    def from_columns(cls, ids, seqs, predictions, entropy, accepted, device_ids):
        """Concatenate per-round verdict columns (lists of arrays)."""
        if not ids:
            empty = np.empty(0)
            return cls(empty.astype(np.int64), empty, empty, empty.astype(bool))
        index = np.searchsorted(device_ids, np.concatenate(ids))
        return cls(
            keys=index.astype(np.int64) * KEY_SHIFT
            + np.concatenate(seqs).astype(np.int64),
            predictions=np.concatenate(predictions),
            entropy=np.concatenate(entropy),
            accepted=np.concatenate(accepted).astype(bool),
        )

    @classmethod
    def from_batches(cls, batches, device_ids: np.ndarray) -> "VerdictLog":
        return cls.from_columns(
            [b.device_ids for b in batches],
            [b.seqs for b in batches],
            [b.predictions for b in batches],
            [b.entropy for b in batches],
            [b.accepted for b in batches],
            device_ids,
        )


@dataclass(frozen=True)
class Sample:
    """Seeded sample of windows with their reference verdicts."""

    device: np.ndarray      # device index per sampled window
    position: np.ndarray    # window position within the device's trial input
    predictions: np.ndarray
    entropy: np.ndarray
    accepted: np.ndarray
    features: dict | None = None   # trace_ingest: reference features by device

    def feature_failures(self, features: list) -> int:
        """Rows of the timed extraction that differ from the reference."""
        failed = 0
        for d, reference in (self.features or {}).items():
            batched = features[d]
            if batched.shape != reference.shape:
                failed += len(reference)
            else:
                failed += int(
                    (batched.view(np.int64) != reference.view(np.int64))
                    .any(axis=1)
                    .sum()
                )
        return failed


def expected_keys(starts: np.ndarray, counts) -> np.ndarray:
    """Keys of every window one trial submits."""
    return np.concatenate(
        [
            d * KEY_SHIFT + np.arange(s, s + c, dtype=np.int64)
            for d, (s, c) in enumerate(zip(starts, counts))
        ]
    )


def audit(log: VerdictLog, expected: np.ndarray, sample: Sample, starts) -> dict:
    """Exactly-once accounting plus the bitwise oracle comparison.

    Every submitted window must end in exactly one verdict: lost (shed,
    quarantined or dropped), duplicated and unexpected keys are
    failures, and so is every sampled window whose verdict differs from
    the reference bit for bit.
    """
    unique = np.unique(log.keys)
    lost = account_windows(set(expected.tolist()), set(unique.tolist()), ())
    duplicates = len(log.keys) - len(unique)
    unexpected = int(np.setdiff1d(unique, expected).size)

    sample_keys = sample.device.astype(np.int64) * KEY_SHIFT + (
        np.asarray(starts, dtype=np.int64)[sample.device] + sample.position
    )
    order = np.argsort(log.keys, kind="stable")
    pos = np.searchsorted(log.keys[order], sample_keys)
    pos = np.minimum(pos, max(len(order) - 1, 0))
    found = (
        log.keys[order][pos] == sample_keys if len(order) else np.zeros(0, bool)
    )
    rows = order[pos[found]]
    entropy = np.asarray(log.entropy[rows])
    same_entropy = (
        entropy.view(np.int64) == np.asarray(sample.entropy[found]).view(np.int64)
        if entropy.dtype == np.float64
        else np.zeros(len(rows), bool)
    )
    mismatched = int(
        (
            (log.predictions[rows] != sample.predictions[found])
            | ~same_entropy
            | (log.accepted[rows] != sample.accepted[found])
        ).sum()
    )
    return {
        "lost": len(lost),
        "duplicates": int(duplicates),
        "unexpected": unexpected,
        "mismatched": mismatched,
        "failed": len(lost) + int(duplicates) + unexpected + mismatched,
    }


def build_sample(ready: Ready, seed: int, size: Size) -> Sample:
    """Seeded ≥ ``oracle_sample`` windows and their reference verdicts.

    Runs outside every timed region.  On ``trace_ingest`` the sample is
    whole devices and the reference is the per-window extractor
    (``extract_windows_reference``) feeding the legacy vote loop; the
    features the timed extraction produced are compared with it too.
    """
    rng = np.random.default_rng([seed, 3])
    n_devices = len(ready.device_ids)
    reference_features = None
    if ready.workload == "trace_ingest":
        per_device = size.ingest_windows
        n_pick = min(n_devices, math.ceil(size.oracle_sample / per_device))
        picked = np.sort(rng.choice(n_devices, n_pick, replace=False))
        extractor = DvfsFeatureExtractor()
        reference_features = {
            int(d): extractor.extract_windows_reference(ready.inputs[d], WINDOW_STEPS)
            for d in picked
        }
        device = np.repeat(picked, per_device)
        position = np.tile(np.arange(per_device), n_pick)
        X = np.concatenate(list(reference_features.values()))
    else:
        per_device = len(ready.inputs[0])
        total = n_devices * per_device
        flat = np.sort(rng.choice(total, min(size.oracle_sample, total), replace=False))
        device, position = np.divmod(flat, per_device)
        X = np.stack([ready.inputs[d][k] for d, k in zip(device, position)])
    predictions, entropy, accepted = oracle_verdicts(ready.hmd, X)
    return Sample(
        device=device,
        position=position,
        predictions=predictions,
        entropy=entropy,
        accepted=accepted,
        features=reference_features,
    )


def total_shed(monitor) -> int:
    if isinstance(monitor, FleetMonitor):
        return monitor.queue.total_shed
    return sum(shard.queue.total_shed for shard in monitor.shards)


# -- timed phases ------------------------------------------------------


@dataclass
class Phase:
    """What one timed phase measured.

    Each vCPU of a shared host switches between a fast and a slow state
    (about 1.5x apart) for seconds to minutes at a time, and such noise
    only ever adds time.  Each timing is therefore the best trial's: the
    highest rate, and the lowest value of each percentile of per-window
    time to verdict.  Neither the best nor the median trial stays steady
    across a set of runs during which the host changes state.
    """

    intervals: list = field(default_factory=list)   # (t0, t1) per trial
    drained: list = field(default_factory=list)     # windows verdicted per trial
    latencies: list = field(default_factory=list)   # (p50, p99) ms per trial
    attempted: int = 0
    failed: int = 0
    audits: list = field(default_factory=list)
    shed: int = 0
    feature_failures: int = 0                        # trace_ingest
    errors: list = field(default_factory=list)

    @property
    def rates(self) -> list[float]:
        return [n / (t1 - t0) for n, (t0, t1) in zip(self.drained, self.intervals)]

    @property
    def windows_per_s(self) -> float:
        return max(self.rates, default=0.0)

    @property
    def latency_ms(self) -> tuple[float, float]:
        """Best trial's (p50, p99) time to verdict."""
        return tuple(np.min(self.latencies, axis=0)) if self.latencies else (0.0, 0.0)

    def extend(self, other: "Phase") -> None:
        """Fold a later chunk of the same phase into this one."""
        self.intervals += other.intervals
        self.drained += other.drained
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.audits += other.audits
        self.shed += other.shed
        self.feature_failures += other.feature_failures
        self.errors += other.errors


def _receive(monitor) -> list:
    """One client call for verdicts; an empty list once the queue is drained.

    In process, that call is ``process_batch()``: one round per call.
    The worker monitor pipelines rounds inside ``drain()``, so its
    client asks for a few rounds at a time.
    """
    if isinstance(monitor, FleetMonitor):
        batch = monitor.process_batch()
        return [] if batch is None else [batch]
    return monitor.drain(max_batches=WORKER_ROUNDS_PER_CALL)


def _closed_loop_trial(ready: Ready, keep_features: list | None):
    """Submit one backlog and take its verdicts; windows are due at ``t0``.

    Returns the trial interval, the verdict batches and the (p50, p99)
    milliseconds from ``t0`` to the return of the call that handed each
    window's verdict to the client.
    """
    monitor = ready.monitor
    extractor = DvfsFeatureExtractor()
    t0 = time.perf_counter()
    for device_id, block in zip(ready.device_ids.tolist(), ready.inputs):
        if ready.workload == "trace_ingest":
            block = extractor.extract_windows(block, WINDOW_STEPS)
            if keep_features is not None:
                keep_features.append(block)
        monitor.submit_many(device_id, block)
    batches, ends, rows = [], [], []
    while got := _receive(monitor):
        ends.append(time.perf_counter())
        rows.append(sum(map(len, got)))
        batches += got
    t1 = time.perf_counter()
    monitor.report()
    waits = np.repeat(np.asarray(ends) - t0, rows) * 1e3
    latency = tuple(np.percentile(waits, [50, 99])) if len(waits) else (0.0, 0.0)
    return t0, t1, batches, latency


def _trial_counts(ready: Ready) -> list[int]:
    if ready.workload == "trace_ingest":
        return [t.n_steps // WINDOW_STEPS for t in ready.inputs]
    return [len(X) for X in ready.inputs]


def run_phase(ready: Ready, seconds: float, sample: Sample) -> Phase:
    """Repeat backlog drains until trials have run for ``seconds``.

    After each drain the client reads ``report()``, as a dashboard
    would, outside the timed interval.
    """
    phase = Phase()
    counts = _trial_counts(ready)
    n_trial = int(sum(counts))
    timed = 0.0
    while timed < seconds:
        starts = ready.next_seq.copy()
        shed_before = total_shed(ready.monitor)
        keep = [] if sample.features is not None and not phase.intervals else None
        phase.attempted += n_trial
        try:
            t0, t1, batches, latency = _closed_loop_trial(ready, keep)
        except Exception:  # a raised trial loses every window it held
            phase.errors.append(traceback.format_exc())
            phase.failed += n_trial
            break
        finally:
            ready.next_seq += np.asarray(counts, dtype=np.int64)
        timed += t1 - t0
        if keep is not None:
            phase.feature_failures = sample.feature_failures(keep)
            phase.failed += phase.feature_failures
        log = VerdictLog.from_batches(batches, ready.device_ids)
        result = audit(log, expected_keys(starts, counts), sample, starts)
        phase.audits.append(result)
        phase.failed += result["failed"]
        phase.shed += total_shed(ready.monitor) - shed_before
        phase.intervals.append((t0, t1))
        phase.drained.append(len(log.keys))
        phase.latencies.append(latency)
    return phase


# -- traced run ----------------------------------------------------------


def _n(args, result):
    return len(result)


TRACE_TARGETS = [
    (FleetMonitor, "submit_many", "fleet.submit", lambda args, result: result),
    (WorkerShardedFleetMonitor, "submit_many", "fleet.submit",
     lambda args, result: result),
    (FleetMonitor, "process_batch", "engine.round",
     lambda args, result: 0 if result is None else len(result)),
    (FleetMonitor, "report", "fleet.report", None),
    (FleetQueue, "take", "queueing.take", _n),
    (TrustedHMD, "analyze", "uncertainty.analyze",
     lambda args, result: len(result.predictions)),
    (DvfsFeatureExtractor, "extract_windows", "hmd.extract", _n),
    (WorkerShardedFleetMonitor, "drain", "workers.drain",
     lambda args, result: sum(map(len, result))),
    (WorkerShardedFleetMonitor, "report", "fleet.report", None),
    (ShardQueue, "take", "sharding.take", _n),
    (ShmBlockRing, "write_block", "shm.write_block", lambda args, result: result),
    (ShmBlockRing, "read_results", "shm.read_results",
     lambda args, result: len(result[0])),
]


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Timed-phase per-layer metrics from the recorded spans."""
    totals = recorder.totals()

    def get(name, attr):
        entry = totals.get(name)
        return getattr(entry, attr) if entry is not None else 0

    take_calls = get("queueing.take", "calls")
    return {
        "hmd.extract.s": get("hmd.extract", "seconds"),
        "hmd.extract.windows": get("hmd.extract", "rows"),
        "fleet.submit.s": get("fleet.submit", "seconds"),
        "fleet.submit.calls": get("fleet.submit", "calls"),
        "fleet.submit.rows": get("fleet.submit", "rows"),
        "queueing.take.s": get("queueing.take", "seconds"),
        "queueing.take.calls": take_calls,
        "queueing.rows_per_take": (
            get("queueing.take", "rows") / take_calls if take_calls else 0.0
        ),
        "uncertainty.analyze.s": get("uncertainty.analyze", "seconds"),
        "uncertainty.analyze.calls": get("uncertainty.analyze", "calls"),
        "uncertainty.analyze.rows": get("uncertainty.analyze", "rows"),
        "engine.round_self.s": get("engine.round", "self_seconds"),
        "engine.rounds": get("engine.round", "busy_calls"),
        "report.s": get("fleet.report", "seconds"),
        "report.calls": get("fleet.report", "calls"),
        "workers.wait.s": get("workers.drain", "self_seconds"),
        "shm.write_block.s": get("shm.write_block", "seconds"),
        "shm.write_block.calls": get("shm.write_block", "calls"),
        "shm.read_results.s": get("shm.read_results", "seconds"),
        "sharding.take.s": get("sharding.take", "seconds"),
    }


# -- one benchmark run -------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its worker children."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                kib += int(line.split()[1])
    return kib / 1024.0


def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def host_fingerprint() -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    start_method = (
        inspect.signature(WorkerShardedFleetMonitor).parameters["mp_context"].default
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "worker_start_method": start_method,
    }


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool, size: Size = FULL
) -> dict:
    """Set up ``setup_repeats`` times, measuring one chunk after each.

    Every set-up is timed from scratch and then serves an equal share of
    the ``seconds`` of timed work, so the measurement is spread over the
    whole run: neighbours that slow the host for a few seconds disturb
    one chunk rather than all of it.  With ``trace`` each chunk runs
    untraced, then traced.
    """
    n_chunks = size.setup_repeats
    chunk_seconds = seconds / n_chunks / (2 if trace else 1)
    untraced, traced = Phase(), Phase()
    recorder = SpanRecorder() if trace else None
    layers_by_rep, setup_times, closes = [], [], []
    rss, restarts = 0.0, 0
    sample = None
    for _ in range(n_chunks):
        ready = setup(workload, seed, size)
        layers_by_rep.append(ready.layers)
        setup_times.append(ready.setup_s)
        try:
            if sample is None:
                # Every set-up builds the same model and inputs from the
                # same seeds, so one reference sample serves them all.
                sample = build_sample(ready, seed, size)
            untraced.extend(run_phase(ready, chunk_seconds, sample))
            if trace and not untraced.errors:
                with recorder.patched(TRACE_TARGETS):
                    traced.extend(run_phase(ready, chunk_seconds, sample))
            rss = max(rss, peak_rss_mb())
            if isinstance(ready.monitor, WorkerShardedFleetMonitor):
                restarts += sum(h.total_restarts for h in ready.monitor.shard_health())
        finally:
            close_s = close_monitor(ready)
            if close_s is not None:
                closes.append(close_s)
        ready = None  # free this set-up before the next one builds
        if untraced.errors or traced.errors:
            break
    setup_s = float(np.median(setup_times))
    phases = [untraced, traced] if trace else [untraced]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    checks = {
        "exactly_once": all(
            a["lost"] == a["duplicates"] == a["unexpected"] == 0
            for p in phases for a in p.audits
        ),
        "shed_zero": all(p.shed == 0 for p in phases),
        "oracle_match": all(
            p.feature_failures == 0 and all(a["mismatched"] == 0 for a in p.audits)
            for p in phases
        ),
        "no_errors": not any(p.errors for p in phases),
    }

    base = phases[0]
    p50, p99 = base.latency_ms
    end_to_end = {
        "windows_per_s": base.windows_per_s,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    per_layer = None
    if trace and traced.intervals:
        per_layer = {
            name: float(np.median([rep.get(name, 0.0) for rep in layers_by_rep]))
            for name in (
                "import.s",
                "data.build.s",
                "ml.fit.s",
                "uncertainty.compile.s",
                "sim.run_batch.s",
                "sim.windows",
                "workers.spawn_ready.s",
            )
        }
        per_layer.update(layer_metrics(recorder))
        per_layer["workers.close.s"] = float(np.median(closes)) if closes else 0.0
        per_layer["workers.restarts"] = restarts
        per_layer["trace.overhead_frac"] = 1.0 - traced.windows_per_s / base.windows_per_s
        coverage = recorder.coverage(traced.intervals)
        per_layer["trace.coverage_frac"] = coverage
        checks["trace_reconciles"] = COVERAGE_FLOOR <= coverage <= 1.0 + 1e-9
    elif trace:
        checks["trace_reconciles"] = False

    correct = failed == 0 and all(checks.values())
    declared = SPEC["per_layer" if trace else "end_to_end"]
    if trace:
        values = per_layer or {m["name"]: 0.0 for m in declared}
    else:
        values = end_to_end
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
        "details": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": bool(trace),
            "host": host_fingerprint(),
            "window_fail_frac": failed / attempted if attempted else 1.0,
            "end_to_end": end_to_end,
            "checks": checks,
            "trials": [len(p.intervals) for p in phases],
            "trial_rates": base.rates,
            "trial_latencies_ms": base.latencies,
            "audits": [p.audits for p in phases],
            "errors": [e for p in phases for e in p.errors],
            "spans": recorder.as_records() if trace else None,
        },
    }
