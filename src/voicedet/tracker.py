"""NCCF-based voicing (and auxiliary F0) tracker with dynamic programming.

Single-pass NCCF at the full sample rate over a 20 ms correlation window,
frames at the same 10 ms hop as the STFT so tracker frames align 1:1 with
model/label frames. Candidate peaks are pruned by threshold and count and a
minimum-cost path through the candidate lattice yields per-frame voicing.

Frames are processed as arrays over blocks of `_BLOCK` frames, which bounds
the temporaries of a long recording. The cross terms of a block are one
`np.matmul` of two strided views, a 1 x win row by a win x 1 column per
frame and lag, for which numpy calls the same BLAS dot routine that
`np.correlate` calls once per lag: the exact dot products, and with them the
exact bits. (A numpy built without BLAS sums those products differently,
and the per-frame oracle in the tests would show it.) Energies,
denominators, peak masks and candidate ordering are block-wide array
operations. The candidate lattice is flat arrays (per-frame offsets, lags
and scores), built by array scatters without a Python object per
candidate; the DP runs over lists made once from those arrays, with
transition costs looked up in a per-lag table.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dsp import FrameConfig, InvalidArgument, Waveform, check_field_types

_ENERGY_FLOOR = 1e-20
_BLOCK = 256  # frames per array block


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker parameters; defaults tuned on the synthetic corpus."""

    f0_min: float = 50.0
    f0_max: float = 500.0
    max_candidates_per_frame: int = 20
    voicing_bias: float = 0.45
    switch_cost: float = 0.3
    octave_jump_weight: float = 0.2
    nccf_threshold: float = 0.3
    corr_window_ms: float = 20.0
    # additive NCCF energy floor as a fraction of the utterance peak (RAPT's
    # a_fact); suppresses spurious periodicity in near-silent frames while
    # keeping phi invariant to overall amplitude scaling
    energy_floor: float = 0.01

    def __post_init__(self):
        check_field_types(self)
        if not (0 < self.f0_min < self.f0_max):
            raise InvalidArgument(f"need 0 < f0_min < f0_max, got {self.f0_min}, {self.f0_max}")
        if self.max_candidates_per_frame < 1:
            raise InvalidArgument(f"max_candidates_per_frame must be >= 1, got {self.max_candidates_per_frame}")
        for name in ("switch_cost", "octave_jump_weight", "energy_floor"):
            if getattr(self, name) < 0:
                raise InvalidArgument(f"{name} must be >= 0")
        if self.corr_window_ms <= 0:
            raise InvalidArgument("corr_window_ms must be > 0")

    def lag_range(self, sample_rate: int) -> tuple[int, int]:
        """Inclusive (min_lag, max_lag) in samples for the F0 search band."""
        if self.f0_max >= sample_rate / 2:
            raise InvalidArgument(f"f0_max {self.f0_max} >= Nyquist of {sample_rate}")
        return math.ceil(sample_rate / self.f0_max), math.floor(sample_rate / self.f0_min)


@dataclass(frozen=True)
class NccfFrames:
    """Normalized cross-correlation values of every frame over the candidate lags.

    values[t, i] belongs to frame t and lag lags[i]; short[t] marks a frame
    whose span ran past the signal end (all-zero, unvoiced-only).
    """

    lags: np.ndarray  # [L]
    values: np.ndarray  # [T, L]
    short: np.ndarray  # [T] bool

    def __len__(self) -> int:
        return self.values.shape[0]


class PitchCandidate(NamedTuple):
    """One lag hypothesis; lag 0 is the unvoiced hypothesis."""

    lag: int
    score: float

    @property
    def voiced(self) -> bool:
        return self.lag > 0


@dataclass(frozen=True, eq=False)
class CandidateLattice:
    """Every frame's candidates as flat arrays.

    Frame t holds entries offsets[t] .. offsets[t+1]-1 of `lags` and
    `scores`, in candidate order. A frame read by index, slice or
    iteration is a list of PitchCandidate.
    """

    offsets: np.ndarray  # [T + 1] int64, offsets[0] == 0
    lags: np.ndarray  # [N] int64
    scores: np.ndarray  # [N] float64

    @classmethod
    def from_frames(cls, frames: Sequence[Sequence[PitchCandidate]]) -> CandidateLattice:
        """The lattice of per-frame candidate lists."""
        sizes = [len(f) for f in frames]
        if 0 in sizes:
            raise InvalidArgument("every frame needs at least one candidate")
        flat = [c for f in frames for c in f]
        lags = np.array([c.lag for c in flat], dtype=np.int64)
        if lags.size and lags.min() < 0:
            raise InvalidArgument("candidate lags must be >= 0")
        scores = np.array([c.score for c in flat], dtype=np.float64)
        return cls(_offsets(sizes), lags, scores)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            return list(self)[key]
        t = range(len(self))[key]
        a, b = self.offsets[t], self.offsets[t + 1]
        return _pitch_candidates(self.lags[a:b], self.scores[a:b])

    def __iter__(self) -> Iterator[list[PitchCandidate]]:
        flat = _pitch_candidates(self.lags, self.scores)
        bounds = self.offsets.tolist()
        return (flat[a:b] for a, b in zip(bounds, bounds[1:]))


def _pitch_candidates(lags: np.ndarray, scores: np.ndarray) -> list[PitchCandidate]:
    # tuple.__new__ builds the namedtuples in C, without PitchCandidate's Python __new__
    return list(map(tuple.__new__, repeat(PitchCandidate), zip(lags.tolist(), scores.tolist())))


def _offsets(sizes) -> np.ndarray:
    """Frame boundaries [0, cumsum(sizes)] of a lattice with these frame sizes."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, dtype=np.int64, out=out[1:])
    return out


Lattice = CandidateLattice | Sequence[Sequence[PitchCandidate]]


def _as_lattice(candidates: Lattice) -> CandidateLattice:
    if isinstance(candidates, CandidateLattice):
        return candidates
    return CandidateLattice.from_frames(candidates)


@dataclass(frozen=True)
class VoicingLabels:
    """Per-frame binary voicing at a 10 ms hop, optionally with per-frame F0.

    `valid` optionally masks frames excluded from comparisons (e.g. an
    "uncertain" third class in provided reference labels).
    """

    labels: np.ndarray
    hop_ms: float = 10.0
    f0: np.ndarray | None = None
    valid: np.ndarray | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int8)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1:
            raise InvalidArgument("labels must be 1-D")
        if labels.size and not np.all((labels == 0) | (labels == 1)):
            raise InvalidArgument("labels must be binary")
        if self.f0 is not None:
            f0 = np.asarray(self.f0, dtype=np.float64)
            object.__setattr__(self, "f0", f0)
            if f0.shape != labels.shape:
                raise InvalidArgument("f0 length must match labels")
            if not np.array_equal(f0 > 0, labels == 1):
                raise InvalidArgument("f0 > 0 must hold exactly on voiced frames")
        if self.valid is not None:
            valid = np.asarray(self.valid, dtype=bool)
            object.__setattr__(self, "valid", valid)
            if valid.shape != labels.shape:
                raise InvalidArgument("valid mask length must match labels")

    def __len__(self) -> int:
        return self.labels.size

    @property
    def valid_mask(self) -> np.ndarray:
        if self.valid is None:
            return np.ones(self.labels.size, dtype=bool)
        return self.valid


def _hop_view(a: np.ndarray, start: int, hop: int, shape: tuple, strides: tuple) -> np.ndarray:
    """Read-only view of `a` from a[start] whose first axis steps `hop`
    elements; the other axes step `strides` elements."""
    step = a.strides[0]
    return as_strided(a[start:], shape, tuple(k * step for k in (hop, *strides)), writeable=False)


def nccf(wave: Waveform, cfg: TrackerConfig, frame_cfg: FrameConfig) -> NccfFrames:
    """Normalized cross-correlation per frame over the configured lag band.

    phi(t, k) = sum_i s(i) s(i+k) / sqrt((e(m) + A)(e(m+k) + A)) with a
    correlation window of cfg.corr_window_ms and an additive denominator
    floor A = (energy_floor * peak)^2 * window, RAPT's a_fact scaled to the
    utterance peak so phi stays amplitude-invariant. The analysis span
    (window + max lag) is centered on the frame's 10 ms slot so label smear
    at voicing transitions is symmetric. Frames whose span would run past
    either end of the signal are returned short and all-zero.

    The cross terms of each block of frames are one strided dot-product
    call, with the dot routine of `np.correlate`, so they are its bits.
    """
    x = wave.samples
    sr = wave.sample_rate
    min_lag, max_lag = cfg.lag_range(sr)
    win = int(round(cfg.corr_window_ms * sr / 1000.0))
    if win < 1:
        raise InvalidArgument(
            f"corr_window_ms {cfg.corr_window_ms} is under one sample at {sr} Hz"
        )
    hop = frame_cfg.hop
    n_frames = frame_cfg.n_frames(x.size) if x.size else 0
    lags = np.arange(min_lag, max_lag + 1)
    span = win + max_lag
    # span start of each frame, centered on the frame slot
    starts = np.arange(n_frames) * hop + (hop // 2 - span // 2)
    short = (starts < 0) | (starts + span > x.size)
    values = np.zeros((n_frames, lags.size))

    peak = np.max(np.abs(x)) if x.size else 0.0
    floor = (cfg.energy_floor * peak) ** 2 * win
    # energy of every correlation window, e[i] = sum of x[i : i + win]^2, from prefix sums
    sq = np.concatenate([[0.0], np.cumsum(x * x)])
    energy = sq[win:] - sq[:-win]
    del sq  # one signal-length array, not two, beside the blocks' temporaries

    e0 = np.zeros(n_frames)
    inside = np.flatnonzero(~short)
    e0[inside] = energy[starts[inside]]
    live = np.flatnonzero(e0 > _ENERGY_FLOOR)  # short frames keep e0 = 0
    for lo in range(0, n_frames, _BLOCK):
        rows = live[np.searchsorted(live, lo) : np.searchsorted(live, lo + _BLOCK)]
        if not rows.size:
            continue
        # frames rows[0] .. rows[-1] are all inside the signal; the live ones are gathered
        m0, n, at = starts[rows[0]], rows[-1] - rows[0] + 1, rows - rows[0]
        # cross terms c[k] = sum_i x[m+i] * x[m+k+i]: per frame and lag, a 1 x win
        # window row times the win x 1 frame column (np.correlate's dot routine)
        windows = _hop_view(x, m0 + min_lag, hop, (n, lags.size, 1, win), (1, 0, 1))
        columns = _hop_view(x, m0, hop, (n, 1, win, 1), (0, 1, 0))
        cross = np.matmul(windows, columns)[at, :, 0, 0]
        energies = _hop_view(energy, m0 + min_lag, hop, (n, lags.size), (1,))[at]
        denom = np.sqrt((e0[rows, None] + floor) * (energies + floor))
        values[rows] = np.where(
            denom > _ENERGY_FLOOR, cross / np.maximum(denom, _ENERGY_FLOOR), 0.0
        )
    return NccfFrames(lags, values, short)


def pick_candidates(frames: NccfFrames, cfg: TrackerConfig) -> CandidateLattice:
    """Per frame: local NCCF maxima above threshold, capped by count, plus the
    unvoiced hypothesis.

    The unvoiced candidate (lag 0, score = voicing_bias) is always first, so
    downstream tie-breaks prefer unvoiced. Peaks follow by descending score,
    equal scores by ascending lag. Plateaus keep their earliest lag.
    """
    cap = cfg.max_candidates_per_frame
    sizes = np.ones(len(frames), dtype=np.int64)  # the unvoiced candidate, then the peaks
    peak_lags, peak_scores = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]  # non-empty to concatenate
    for lo in range(0, len(frames), _BLOCK):
        v = frames.values[lo : lo + _BLOCK]
        # > left and >= right keeps the earliest sample of a plateau
        peak = v > cfg.nccf_threshold
        peak[:, 1:] &= v[:, 1:] > v[:, :-1]
        peak[:, :-1] &= v[:, :-1] >= v[:, 1:]
        peak[frames.short[lo : lo + _BLOCK]] = False
        rows, cols = np.nonzero(peak)  # by row, then by lag
        scores = v[rows, cols]
        # a stable sort: equal scores of a row keep their ascending lags
        order = np.lexsort((-scores, rows))
        rows, cols, scores = rows[order], cols[order], scores[order]
        counts = np.bincount(rows, minlength=v.shape[0])
        rank = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        keep = rank < cap
        sizes[lo : lo + _BLOCK] += np.minimum(counts, cap)
        peak_lags.append(frames.lags[cols[keep]])
        peak_scores.append(scores[keep])
    offsets = _offsets(sizes)
    voiced = np.ones(offsets[-1], dtype=bool)
    voiced[offsets[:-1]] = False
    lags = np.zeros(offsets[-1], dtype=np.int64)
    lags[voiced] = np.concatenate(peak_lags)
    scores = np.full(offsets[-1], cfg.voicing_bias, dtype=np.float64)  # an int bias too
    scores[voiced] = np.concatenate(peak_scores)
    return CandidateLattice(offsets, lags, scores)


def _transition_cost(prev: PitchCandidate, cur: PitchCandidate, cfg: TrackerConfig) -> float:
    if prev.voiced and cur.voiced:
        return cfg.octave_jump_weight * abs(math.log2(cur.lag / prev.lag))
    if prev.voiced != cur.voiced:
        return cfg.switch_cost
    return 0.0


@functools.lru_cache(maxsize=16)
def _transition_table(
    octave_jump_weight: float, switch_cost: float, size: int
) -> tuple[tuple[float, ...], ...]:
    """table[cur_lag][prev_lag]: `_transition_cost` over lags 0..size-1.

    Lag ratios and products round in numpy exactly as in Python (IEEE
    division and multiplication); the logarithm goes through math.log2
    because np.log2 rounds some ratios differently.
    """
    lags = np.arange(1, size)
    ratios = (lags[:, None] / lags).ravel().tolist()
    logs = np.fromiter(map(math.log2, ratios), np.float64, len(ratios))
    table = np.full((size, size), float(switch_cost))
    table[0, 0] = 0.0
    table[1:, 1:] = octave_jump_weight * np.abs(logs.reshape(size - 1, size - 1))
    return tuple(map(tuple, table.tolist()))  # shared by every caller: immutable


def viterbi_path(candidates: Lattice, cfg: TrackerConfig) -> tuple[list[int], float]:
    """Minimum-cost candidate-index path and its total cost.

    Local cost is 1 - score (the unvoiced hypothesis carries score =
    voicing_bias); transitions cost switch_cost across V/U boundaries and
    octave_jump_weight * |log2(lag ratio)| within voiced runs. Ties resolve
    to the lowest candidate index, i.e. unvoiced first, then shorter lags.
    """
    lattice = _as_lattice(candidates)
    if not len(lattice):
        raise InvalidArgument("need at least one frame")
    size = max(256, 1 << int(lattice.lags.max()).bit_length())
    table = _transition_table(cfg.octave_jump_weight, cfg.switch_cost, size)

    bounds = lattice.offsets.tolist()
    lags = lattice.lags.tolist()
    local = (1.0 - lattice.scores).tolist()  # IEEE-equal to 1.0 - score per candidate
    costs = local[: bounds[1]]
    prev_lags = lags[: bounds[1]]
    backptr = [0] * bounds[1]  # per entry: index of its best predecessor in the previous frame
    for a, b in zip(bounds[1:-1], bounds[2:]):
        new_costs = []
        for lag, loc in zip(lags[a:b], local[a:b]):
            row = table[lag]
            totals = [c + row[p] for c, p in zip(costs, prev_lags)]
            best = min(totals)  # the first minimum, as a strict < scan keeps
            backptr.append(totals.index(best))
            new_costs.append(best + loc)
        costs = new_costs
        prev_lags = lags[a:b]

    total_cost = min(costs)
    path = [costs.index(total_cost)]
    for a in reversed(bounds[1:-1]):
        path.append(backptr[a + path[-1]])
    path.reverse()
    return path, total_cost


def viterbi_track(
    candidates: Lattice,
    cfg: TrackerConfig,
    sample_rate: int = 8000,
) -> VoicingLabels:
    """Voicing labels and F0 read off the minimum-cost lattice path."""
    lattice = _as_lattice(candidates)
    path, _ = viterbi_path(lattice, cfg)
    lags = lattice.lags[lattice.offsets[:-1] + path]
    voiced = lags > 0
    f0 = np.zeros(lags.size, dtype=np.float64)
    f0[voiced] = sample_rate / lags[voiced]
    return VoicingLabels(labels=voiced.astype(np.int8), f0=f0)


def path_cost(candidates: Lattice, path: list[int], cfg: TrackerConfig) -> float:
    """Total cost of an explicit candidate-index path (used by oracles/tests).

    Accumulates transition then local cost per step, the same association as
    the DP recursion, so costs compare exactly.
    """
    frames = list(_as_lattice(candidates))
    total = 1.0 - frames[0][path[0]].score
    for t in range(1, len(frames)):
        prev = frames[t - 1][path[t - 1]]
        cur = frames[t][path[t]]
        total = total + _transition_cost(prev, cur, cfg)
        total = total + (1.0 - cur.score)
    return total


def track_voicing(
    wave: Waveform, cfg: TrackerConfig, frame_cfg: FrameConfig | None = None
) -> VoicingLabels:
    """nccf -> pick_candidates -> viterbi_track; one label per 10 ms STFT frame."""
    if frame_cfg is None:
        frame_cfg = FrameConfig.for_rate(wave.sample_rate)
    frames = nccf(wave, cfg, frame_cfg)
    candidates = pick_candidates(frames, cfg)
    labels = viterbi_track(candidates, cfg, wave.sample_rate)
    return replace(labels, hop_ms=1000.0 * frame_cfg.hop / wave.sample_rate)
