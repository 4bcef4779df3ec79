"""Feature extraction (S9): sensor traces → classifier feature vectors.

This is the "Feature Extraction" box of the paper's HMD pipeline
(Figs. 1-2):

* :class:`DvfsFeatureExtractor` — one feature vector per *window* of the
  DVFS state time-series: per-channel state residency histograms,
  transition statistics and temperature telemetry.  Matches the style of
  Chawla et al., where a signature summarises several seconds of DVFS
  activity.
* :class:`HpcFeatureExtractor` — one feature vector per *sampling
  interval*: derived per-instruction/per-cycle rates (IPC, MPKI, ...)
  plus log-scaled raw counts.  Matches Zhou et al., where every counter
  sample is a data point (hence the much larger HPC dataset in Table I).

DVFS extraction has two paths: the **per-window reference**
(:meth:`DvfsFeatureExtractor.extract`, ``extract_windows_reference``),
the readable specification of every feature, and the **channel-fused
batched path** (:meth:`DvfsFeatureExtractor.extract_windows`).  The
latter copies the trace once into ``(n_channels, n_windows,
window_steps)``, so every (channel, window) *line* is contiguous, and
runs each feature group once over all lines: one offset ``bincount``
(each line in its own bin block), one flat ``diff``/run-start pass, one
``rfft``, one reduction per statistic.

It is **bitwise identical** to the reference because both run the same
float operations in the same order:

* float sums reduce a contiguous last axis, where numpy applies the
  same pairwise summation per line as to a 1-D array; dot products are
  multiply-then-sum on both paths (BLAS ``ddot`` sums in another order);
* state fractions, transition and up rates, mean jump and mean dwell
  are an exact integer (histogram count, run count, integer sum) over
  ``window_steps`` or ``window_steps - 1``: the reference's float sums
  of 0/1 or small integers are exact, so both divide the same numbers;
* ``std`` is ``sqrt(sum(c * c) / n)`` of the centred signal ``c``, as
  ``np.std`` runs it, sharing the autocorrelation's sum of squares;
  normalised states come from one per-state division done the same way.

``tests/hmd/test_features_batched.py`` pins the equivalence bitwise.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from ..sim.trace import DvfsTrace, HpcTrace

__all__ = ["DvfsFeatureExtractor", "HpcFeatureExtractor"]


class DvfsFeatureExtractor:
    """Summarise a DVFS window into a fixed-length feature vector.

    Features per channel: state-residency histogram, normalised
    frequency statistics, transition dynamics (rates, jump sizes, dwell
    lengths), temporal structure (lag-1 autocorrelation, spectral band
    energies) — the kind of time-series summary Chawla et al. derive
    from DVFS state sequences.  Cross-channel correlations and
    temperature telemetry complete the signature.
    """

    #: Number of spectral bands of the normalised frequency signal.
    N_SPECTRAL_BANDS = 4

    _CHANNEL_STATS = (
        "mean_norm_freq",
        "std_norm_freq",
        "transition_rate",
        "up_transition_rate",
        "mean_abs_jump",
        "max_jump",
        "frac_max_state",
        "frac_min_state",
        "frac_low_half",
        "mean_dwell",
        "max_dwell_frac",
        "lag1_autocorr",
    )

    def feature_names(self, trace: DvfsTrace) -> list[str]:
        """Names matching :meth:`extract` output order."""
        names: list[str] = []
        for c, channel in enumerate(trace.channel_names):
            for s in range(trace.n_states(c)):
                names.append(f"{channel}_residency_{s}")
            names.extend(f"{channel}_{stat}" for stat in self._CHANNEL_STATS)
            names.extend(
                f"{channel}_spectral_band_{b}" for b in range(self.N_SPECTRAL_BANDS)
            )
        for a in range(trace.n_channels):
            for b in range(a + 1, trace.n_channels):
                names.append(
                    f"xcorr_{trace.channel_names[a]}_{trace.channel_names[b]}"
                )
        names.extend(["temp_mean", "temp_std", "temp_slope"])
        return names

    # -- per-window reference path -------------------------------------

    @staticmethod
    def _dwell_stats(states: np.ndarray) -> tuple[float, float]:
        """Mean run length and longest-run fraction of the state series."""
        change_points = np.flatnonzero(np.diff(states) != 0)
        boundaries = np.concatenate([[-1], change_points, [len(states) - 1]])
        run_lengths = np.diff(boundaries).astype(float)
        return float(run_lengths.mean()), float(run_lengths.max() / len(states))

    def _spectral_bands(self, norm: np.ndarray) -> list[float]:
        """Energy in N equal-width frequency bands of the signal."""
        spectrum = np.abs(np.fft.rfft(norm - norm.mean())) ** 2
        if len(spectrum) <= 1:
            return [0.0] * self.N_SPECTRAL_BANDS
        spectrum = spectrum[1:]  # drop DC
        total = spectrum.sum()
        if total <= 0:
            return [0.0] * self.N_SPECTRAL_BANDS
        bands = np.array_split(spectrum, self.N_SPECTRAL_BANDS)
        return [float(band.sum() / total) for band in bands]

    def extract(self, trace: DvfsTrace) -> np.ndarray:
        """Feature vector for one DVFS window (reference path)."""
        feats: list[float] = []
        norms = []
        for c in range(trace.n_channels):
            states = trace.states[:, c]
            n_states = trace.n_states(c)
            hist = np.bincount(states, minlength=n_states).astype(float)
            hist /= len(states)
            feats.extend(hist.tolist())

            norm = states / max(n_states - 1, 1)
            norms.append(norm)
            diffs = np.diff(states)
            transition_rate = float(np.mean(diffs != 0)) if len(diffs) else 0.0
            up_rate = float(np.mean(diffs > 0)) if len(diffs) else 0.0
            mean_jump = float(np.mean(np.abs(diffs))) if len(diffs) else 0.0
            max_jump = float(np.max(np.abs(diffs))) if len(diffs) else 0.0
            mean_dwell, max_dwell_frac = self._dwell_stats(states)
            centered = norm - norm.mean()
            # Multiply-then-sum, not ``centered @ centered``: the batched
            # path must reproduce this bitwise, and BLAS ddot accumulates
            # in a different order than numpy's pairwise reduction.
            var = float((centered * centered).sum())
            if var > 1e-12 and len(norm) > 1:
                autocorr = float((centered[:-1] * centered[1:]).sum()) / var
            else:
                autocorr = 0.0
            feats.extend(
                [
                    float(norm.mean()),
                    float(norm.std()),
                    transition_rate,
                    up_rate,
                    mean_jump,
                    max_jump,
                    float(np.mean(states == n_states - 1)),
                    float(np.mean(states == 0)),
                    float(np.mean(norm < 0.5)),
                    mean_dwell,
                    max_dwell_frac,
                    autocorr,
                ]
            )
            feats.extend(self._spectral_bands(norm))

        for a in range(trace.n_channels):
            for b in range(a + 1, trace.n_channels):
                sa, sb = norms[a], norms[b]
                if sa.std() > 1e-9 and sb.std() > 1e-9:
                    ca = sa - sa.mean()
                    cb = sb - sb.mean()
                    denom = np.sqrt((ca * ca).sum() * (cb * cb).sum())
                    corr = float(np.clip((ca * cb).sum() / denom, -1.0, 1.0))
                    feats.append(corr)
                else:
                    feats.append(0.0)

        temp = trace.temperature_c
        slope = float((temp[-1] - temp[0]) / max(len(temp) - 1, 1))
        feats.extend([float(temp.mean()), float(temp.std()), slope])
        return np.asarray(feats)

    def _check_windowing(self, trace: DvfsTrace, window_steps: int) -> int:
        if window_steps < 2:
            raise ValueError("window_steps must be >= 2.")
        n_windows = trace.n_steps // window_steps
        if n_windows == 0:
            raise ValueError(
                f"Trace of {trace.n_steps} steps shorter than one window "
                f"({window_steps})."
            )
        return n_windows

    def extract_windows_reference(
        self, trace: DvfsTrace, window_steps: int
    ) -> np.ndarray:
        """Per-window loop over :meth:`extract` (reference path).

        Kept as the readable specification the batched
        :meth:`extract_windows` is tested bitwise against, and as the
        baseline the ingest benchmark measures the speedup over.
        """
        n_windows = self._check_windowing(trace, window_steps)
        rows = []
        for w in range(n_windows):
            sub = DvfsTrace(
                states=trace.states[w * window_steps : (w + 1) * window_steps],
                frequencies_mhz=trace.frequencies_mhz,
                channel_names=trace.channel_names,
                temperature_c=trace.temperature_c[w * window_steps : (w + 1) * window_steps],
                dt=trace.dt,
                name=trace.name,
            )
            rows.append(self.extract(sub))
        return np.stack(rows)

    # -- batched path --------------------------------------------------

    def extract_windows(self, trace: DvfsTrace, window_steps: int) -> np.ndarray:
        """Split a long trace into windows and extract all of them at once.

        Trailing steps that do not fill a whole window are dropped.
        Returns the ``(n_windows, n_features)`` matrix of
        :meth:`extract_windows_reference`, bitwise, from the
        channel-fused pass described in the module docstring.
        """
        n_windows = self._check_windowing(trace, window_steps)
        n_channels, steps = trace.n_channels, window_steps
        n_states = tuple(trace.n_states(c) for c in range(n_channels))
        layout = _fused_layout(n_windows, steps, n_states, self.N_SPECTRAL_BANDS)
        # Row c * n_windows + w of ``lines`` is window w of channel c.
        S = trace.states[: n_windows * steps].T.copy()
        lines, flat = S.reshape(-1, steps), S.ravel()
        low, high = S.min(axis=1), S.max(axis=1)
        bad = (low < 0) | (high >= layout.n_states)
        if bad.any():
            # The bincount would file it in another line's bin block.
            c = int(np.argmax(bad))
            state = int(low[c] if low[c] < 0 else high[c])
            raise ValueError(
                f"channel {trace.channel_names[c]!r} contains state {state} "
                f"but only {layout.n_states[c]} frequency states are defined."
            )
        # Per line: the _CHANNEL_STATS, then the spectral bands.
        stats = np.zeros((len(lines), len(self._CHANNEL_STATS) + self.N_SPECTRAL_BANDS))

        # Transitions and dwell runs.  Elementwise ops run over the flat
        # tensor; the one slot per line that spans a line boundary is
        # left out of every reduction by the ``[:, :-1]`` views.
        jumps = np.empty_like(lines)
        np.subtract(flat[1:], flat[:-1], out=jumps.ravel()[:-1])
        # Run starts: each line's first step, every change and an end
        # sentinel.  Runs never span lines; one flat pass finds them all.
        starts = np.empty(flat.size + 1, dtype=bool)
        np.not_equal(jumps.ravel()[:-1], 0, out=starts[1:-1])
        starts[layout.line_bounds] = True
        run_starts = np.flatnonzero(starts)
        bounds = np.searchsorted(run_starts, layout.line_bounds)
        n_runs = bounds[1:] - bounds[:-1]
        max_run = np.maximum.reduceat(run_starts[1:] - run_starts[:-1], bounds[:-1])
        # Ups + downs is the change count; ups - downs the sum of signs.
        n_up = (n_runs - 1 + np.sign(jumps)[:, :-1].sum(axis=-1)) // 2
        np.abs(jumps, out=jumps)
        n_jumps = [n_runs - 1, n_up, jumps[:, :-1].sum(axis=-1)]  # rates, mean jump
        stats[:, 2:5] = np.column_stack(n_jumps) / (steps - 1)
        stats[:, 5] = jumps[:, :-1].max(axis=-1)  # max_jump
        stats[:, 9] = steps / n_runs  # mean_dwell
        stats[:, 10] = max_run / steps  # max_dwell_frac
        del jumps, starts

        # Residency: ONE bincount over lines shifted into their own bin
        # blocks; the top/bottom/low-half state counts are masked sums.
        bins = S.reshape(n_channels, n_windows, steps) + layout.bin_offsets
        counts = np.bincount(bins.ravel(), minlength=layout.norm_of_bin.size)
        counts = counts.reshape(n_windows, -1)
        hist = counts / steps
        # frac_max_state, frac_min_state, frac_low_half
        state_counts = (counts @ layout.state_masks).reshape(n_windows, n_channels, 3)
        stats[:, 6:9] = state_counts.transpose(1, 0, 2).reshape(-1, 3) / steps

        # The centred normalised signal, shared by the moments,
        # autocorrelation, spectrum and cross-correlation; ``work``
        # holds each product in turn.
        centered = np.take(layout.norm_of_bin, bins).reshape(lines.shape)
        del S, lines, flat, bins
        mean = centered.mean(axis=-1)
        centered -= mean[:, None]
        work = np.empty_like(centered)
        sumsq = np.multiply(centered, centered, out=work).sum(axis=-1)
        std = np.sqrt(sumsq / steps)
        stats[:, 0], stats[:, 1] = mean, std
        np.multiply(centered.ravel()[:-1], centered.ravel()[1:], out=work.ravel()[:-1])
        lag1 = work[:, :-1].sum(axis=-1)
        np.divide(lag1, sumsq, out=stats[:, 11], where=sumsq > 1e-12)  # autocorr

        spectrum = np.abs(np.fft.rfft(centered, axis=-1))
        spectrum *= spectrum
        total = spectrum[:, 1:].sum(axis=-1)[:, None]
        bands = [spectrum[:, lo:hi].sum(axis=-1) for lo, hi in layout.band_bounds]
        np.divide(np.column_stack(bands), total, out=stats[:, 12:], where=total > 0)

        # xcorr pairs (a, b > a): channel a times all later ones, in ``work``.
        a, b = layout.pairs
        blocks = centered.reshape(n_channels, n_windows, steps)
        products = work.reshape(blocks.shape)
        numer = np.empty((len(a), n_windows))
        for c in range(n_channels - 1):
            np.multiply(blocks[c], blocks[c + 1 :], out=products[c + 1 :])
            numer[a == c] = products[c + 1 :].sum(axis=-1)
        sumsq, std = sumsq.reshape(n_channels, -1).T, std.reshape(n_channels, -1).T
        denom = np.sqrt(sumsq[:, a] * sumsq[:, b])
        valid = (std[:, a] > 1e-9) & (std[:, b] > 1e-9)
        xcorr = np.divide(numer.T, denom, out=np.zeros_like(denom), where=valid)

        temp = trace.temperature_c[: n_windows * steps].reshape(n_windows, steps)
        temp_mean = temp.mean(axis=-1)
        temp_std = np.sqrt(np.square(temp - temp_mean[:, None]).sum(axis=-1) / steps)
        slope = (temp[:, -1] - temp[:, 0]) / (steps - 1)
        per_channel = stats.reshape(n_channels, n_windows, -1).transpose(1, 0, 2)
        grouped = np.column_stack(
            [hist, per_channel.reshape(n_windows, -1), np.clip(xcorr, -1.0, 1.0)]
            + [temp_mean, temp_std, slope]
        )
        return grouped[:, layout.order]


class _FusedLayout(NamedTuple):
    """Constants of the fused pass that depend only on the trace shape."""

    n_states: np.ndarray      # per channel
    bin_offsets: np.ndarray   # (n_channels, n_windows, 1): each line's bin block
    norm_of_bin: np.ndarray   # normalised frequency of each bin's state
    state_masks: np.ndarray   # (bins per window, 3 * n_channels) 0/1 columns
    line_bounds: np.ndarray   # flat start of each line, then the end
    band_bounds: tuple        # (lo, hi) rfft bins of each spectral band
    pairs: tuple              # channel indices (a, b) of each xcorr pair
    order: np.ndarray         # output column -> column of the grouped blocks


@functools.lru_cache(maxsize=64)
def _fused_layout(
    n_windows: int, window_steps: int, n_states: tuple, n_bands: int
) -> _FusedLayout:
    n_channels = len(n_states)
    k = np.array(n_states)
    n_bins = int(k.sum())
    first_bin = np.cumsum(k) - k
    channel_of_bin = np.repeat(np.arange(n_channels), k)
    # The reference's ``states / max(n_states - 1, 1)``, once per state.
    state = np.arange(n_bins) - first_bin[channel_of_bin]
    norm = state / np.maximum(k - 1, 1)[channel_of_bin]
    # Per channel: its highest state, state 0, the states below 0.5.
    masks = np.zeros((n_bins, n_channels, 3), dtype=np.int64)
    masks[np.arange(n_bins), channel_of_bin] = np.column_stack(
        [state == k[channel_of_bin] - 1, state == 0, norm < 0.5]
    )
    # rfft bins past DC, split like np.array_split in the reference.
    sizes = [len(p) for p in np.array_split(np.arange(window_steps // 2), n_bands)]
    bounds = (1 + np.cumsum([0] + sizes)).tolist()
    # Grouped blocks: all residency bins, per-channel stats, then xcorr
    # pairs and temperature; the output interleaves the first two.
    n_stats = len(DvfsFeatureExtractor._CHANNEL_STATS) + n_bands
    tail = n_bins + n_channels * n_stats
    n_pairs = n_channels * (n_channels - 1) // 2
    order = np.concatenate(
        [
            np.r_[first_bin[c] : first_bin[c] + k[c], start : start + n_stats]
            for c, start in enumerate(range(n_bins, tail, n_stats))
        ]
        + [np.arange(tail, tail + n_pairs + 3)]
    )
    layout = _FusedLayout(
        n_states=k,
        bin_offsets=(first_bin[:, None] + np.arange(n_windows) * n_bins)[..., None],
        norm_of_bin=np.tile(norm, n_windows),
        state_masks=masks.reshape(n_bins, -1),
        line_bounds=np.arange(n_windows * n_channels + 1) * window_steps,
        band_bounds=tuple(zip(bounds[:-1], bounds[1:])),
        pairs=np.triu_indices(n_channels, k=1),
        order=order,
    )
    for field in (*layout, *layout.pairs):
        if isinstance(field, np.ndarray):
            field.flags.writeable = False
    return layout


class HpcFeatureExtractor:
    """Convert HPC counter intervals into per-sample feature vectors.

    Every sampling interval becomes one sample (matching the HPC
    dataset's per-interval granularity).  Features combine derived
    architecture-independent rates with log-scaled raw counts.
    """

    #: Derived-rate feature names (computed from counter ratios).
    RATE_FEATURES = (
        "ipc",
        "branch_miss_per_kinst",
        "l1d_mpki",
        "l2_mpki",
        "llc_mpki",
        "dtlb_mpki",
        "itlb_mpki",
        "branch_frac",
        "load_frac",
        "store_frac",
        "frontend_stall_frac",
        "backend_stall_frac",
        "page_fault_rate",
        "context_switch_rate",
    )

    def feature_names(self, trace: HpcTrace) -> list[str]:
        """Names matching :meth:`extract` output order."""
        return list(self.RATE_FEATURES) + [
            f"log_{name}" for name in trace.counter_names
        ]

    @staticmethod
    def _features(counters: np.ndarray, counter_names, dt) -> np.ndarray:
        """Shared feature kernel over a counter matrix.

        ``dt`` is a scalar (one trace) or a per-row vector (bulk path);
        every op is elementwise per row, so stacking traces first and
        extracting once is bitwise identical to extracting per trace.
        """
        idx = {name: i for i, name in enumerate(counter_names)}

        def col(name: str) -> np.ndarray:
            return counters[:, idx[name]]

        instructions = np.maximum(col("instructions"), 1.0)
        cycles = np.maximum(col("cycles"), 1.0)
        kinst = instructions / 1e3

        rates = np.column_stack(
            [
                instructions / cycles,
                col("branch_misses") / kinst,
                col("l1d_misses") / kinst,
                col("l2_misses") / kinst,
                col("llc_misses") / kinst,
                col("dtlb_misses") / kinst,
                col("itlb_misses") / kinst,
                col("branch_instructions") / instructions,
                col("loads") / instructions,
                col("stores") / instructions,
                col("stalled_cycles_frontend") / cycles,
                col("stalled_cycles_backend") / cycles,
                col("page_faults") / dt,
                col("context_switches") / dt,
            ]
        )
        logs = np.log1p(counters)
        return np.hstack([rates, logs])

    def extract(self, trace: HpcTrace) -> np.ndarray:
        """Feature matrix ``(n_intervals, n_features)`` for the trace."""
        return self._features(trace.counters, trace.counter_names, trace.dt)

    def extract_many(self, traces: list[HpcTrace]) -> np.ndarray:
        """Feature matrix for several traces in one whole-tensor pass.

        Counter matrices are stacked once and the feature kernel runs a
        single time over all intervals of all traces — bitwise identical
        to ``np.vstack([self.extract(t) for t in traces])`` because every
        HPC feature is elementwise per interval.  Per-trace sampling
        periods are honoured via a per-row ``dt`` vector.
        """
        if not traces:
            raise ValueError("At least one trace is required.")
        counter_names = traces[0].counter_names
        for trace in traces[1:]:
            if trace.counter_names != counter_names:
                raise ValueError(
                    "All traces must share the same counter layout; got "
                    f"{trace.counter_names} vs {counter_names}."
                )
        counters = (
            traces[0].counters
            if len(traces) == 1
            else np.vstack([t.counters for t in traces])
        )
        dts = np.repeat(
            np.array([t.dt for t in traces]),
            np.array([t.n_intervals for t in traces]),
        )
        return self._features(counters, counter_names, dts)
