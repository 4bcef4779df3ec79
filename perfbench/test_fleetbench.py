"""Tests of the fleet benchmark itself (tiny sizes).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fleetbench  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", fleetbench.WORKLOADS)
def test_smoke_run_reports_declared_metrics(workload, trace):
    result = fleetbench.run_benchmark(
        workload, seed=3, seconds=0.6, trace=bool(trace), size=fleetbench.TINY
    )
    assert result["details"]["errors"] == []
    assert result["correct"], result["details"]["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        # Worker children run unwrapped code: their verdicts show as shm traffic.
        live = "shm.write_block.calls" if workload == "worker_drain" else (
            "uncertainty.analyze.rows"
        )
        assert result["metrics"][live]["value"] > 0
        assert result["metrics"]["fleet.submit.rows"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        p50, p99 = (result["metrics"][f"latency_p{q}_ms"]["value"] for q in (50, 99))
        # In process every round hands its verdicts over as it ends.
        assert p50 < p99 if workload == "trace_ingest" else p50 <= p99


def _drained_trial():
    ready = fleetbench.setup("trace_ingest", 3, fleetbench.TINY)
    sample = fleetbench.build_sample(ready, 3, fleetbench.TINY)
    starts = ready.next_seq.copy()
    _, _, batches, _ = fleetbench._closed_loop_trial(ready, None)
    expected = fleetbench.expected_keys(starts, fleetbench._trial_counts(ready))
    return ready, sample, starts, batches, expected


def test_gate_fails_on_one_perturbed_verdict():
    ready, sample, starts, batches, expected = _drained_trial()
    log = fleetbench.VerdictLog.from_batches(batches, ready.device_ids)
    assert fleetbench.audit(log, expected, sample, starts)["failed"] == 0

    # Nudge one sampled window's entropy by one ulp.
    key = sample.device[0] * fleetbench.KEY_SHIFT + starts[sample.device[0]] + (
        sample.position[0]
    )
    row = int(np.flatnonzero(log.keys == key)[0])
    entropy = log.entropy.copy()
    entropy[row] = np.nextafter(entropy[row], np.inf)
    perturbed = dataclasses.replace(log, entropy=entropy)
    result = fleetbench.audit(perturbed, expected, sample, starts)
    assert result["mismatched"] == 1 and result["failed"] == 1


def test_gate_counts_a_lost_window():
    ready, sample, starts, batches, expected = _drained_trial()
    log = fleetbench.VerdictLog.from_batches(batches, ready.device_ids)
    keep = np.arange(len(log.keys)) != len(log.keys) - 1
    dropped = fleetbench.VerdictLog(
        log.keys[keep], log.predictions[keep], log.entropy[keep], log.accepted[keep]
    )
    result = fleetbench.audit(dropped, expected, sample, starts)
    assert result["lost"] == 1 and result["failed"] == 1
