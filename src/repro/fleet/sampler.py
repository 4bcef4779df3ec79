"""Feature-level fleet traffic source for tests and benchmarks.

The full physical path for fleet traffic is
:class:`repro.sim.workloads.FleetTraceGenerator` → substrate simulator →
feature extractor, which is faithful but expensive.  For benchmarks and
tests that exercise the *engine* (batching, backpressure, routing) the
:class:`FleetWindowSampler` shortcuts that chain: it pairs each device
with the already-extracted signature windows of its assigned
application inside an :class:`~repro.data.dataset.HmdDataset`, and
replays them as the device's stream.  Benign and malware devices draw
from the known (test) split; zero-day devices draw from the unknown
split — exactly the traffic mix the trusted HMD is supposed to face.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..ml.validation import check_random_state

if TYPE_CHECKING:
    from ..sim.workloads import FleetDevice

__all__ = ["FleetWindowSampler"]


class FleetWindowSampler:
    """Replay dataset signature windows as per-device streams.

    Parameters
    ----------
    dataset:
        An :class:`~repro.data.dataset.HmdDataset` (its ``test`` split
        feeds benign/malware devices, ``unknown`` feeds zero-day ones).
    devices:
        The fleet, e.g. from :meth:`FleetPopulation.sample`.  Each
        device's pool is restricted to its app's windows when the app
        exists in the corresponding split, else to its cohort's label.
    random_state:
        Seed / generator for reproducible streams.
    """

    def __init__(
        self,
        dataset,
        devices,
        *,
        random_state: int | np.random.Generator | None = None,
    ):
        self.devices = tuple(devices)
        if not self.devices:
            raise ValueError("At least one device is required.")
        self.rng = check_random_state(random_state)
        self._pools: dict[str, np.ndarray] = {}
        for device in self.devices:
            self._pools[device.device_id] = self._pool_for(dataset, device)

    @staticmethod
    def _pool_for(dataset, device: FleetDevice) -> np.ndarray:
        split = dataset.unknown if device.cohort == "zero_day" else dataset.test
        mask = split.apps == device.spec.name
        if not mask.any():
            # App not in this split — fall back to the cohort's label.
            label = device.spec.label
            mask = split.y == label
        if not mask.any():
            raise ValueError(
                f"No windows available for device {device.device_id!r} "
                f"(app {device.spec.name!r}, cohort {device.cohort!r})."
            )
        return split.X[mask]

    def windows(self, device_id: str, n_windows: int) -> np.ndarray:
        """Draw ``n_windows`` signature windows for one device."""
        if n_windows < 1:
            raise ValueError(f"n_windows must be >= 1; got {n_windows}.")
        pool = self._pools[device_id]
        idx = self.rng.integers(len(pool), size=n_windows)
        return pool[idx]

    def rounds(self, n_rounds: int):
        """Yield per-round ``(device_id, window)`` arrival events.

        Every round visits each device once — the round-robin arrival
        pattern the fleet monitor multiplexes into batches.
        """
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1; got {n_rounds}.")
        for _ in range(n_rounds):
            for device in self.devices:
                pool = self._pools[device.device_id]
                window = pool[int(self.rng.integers(len(pool)))]
                yield device.device_id, window
