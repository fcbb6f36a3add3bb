"""NCCF-based voicing (and auxiliary F0) tracker with dynamic programming.

Single-pass NCCF at the full sample rate over a 20 ms correlation window,
frames at the same 10 ms hop as the STFT so tracker frames align 1:1 with
model/label frames. Candidate peaks are pruned by threshold and count and a
minimum-cost path through the candidate lattice yields per-frame voicing.

Memory is bounded by blocks of `_BLOCK` frames, not by the recording's
length. `nccf` only sets up; each block's NCCF values are made when
`pick_candidates` asks for them and dropped once the block's peaks are
picked, so one block of values exists at a time. Window energies come from
a prefix sum of x^2 carried from block to block: `np.cumsum` adds in order,
so each block's sums have the bits of one whole-signal cumsum. The cross
terms of a block are one `np.matmul` of two strided views, a 1 x win row by
a win x 1 column per frame and lag, for which numpy calls the same BLAS dot
routine that `np.correlate` calls once per lag: the exact dot products, and
with them the exact bits. (A numpy built without BLAS sums those products
differently, and the per-frame oracle in the tests would show it.)
Denominators, peak masks and candidate ordering are block-wide array
operations. The candidate lattice is flat arrays (per-frame offsets, lags
and scores), built by array scatters without a Python object per
candidate, and is the only per-frame output. The DP runs over lists made
from one block of the lattice at a time, with transition costs looked up in
a per-lag table and back-pointers kept in a byte array.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dsp import FrameConfig, InvalidArgument, Waveform

# The tracker's fixed recipe, tuned on the synthetic corpus: the F0 search
# band in Hz, the cap on voiced candidates per frame, the unvoiced
# hypothesis' score, the V/U switch cost, the weight of |log2(lag ratio)|
# within voiced runs, the NCCF peak threshold and the correlation window.
F0_MIN = 50.0
F0_MAX = 500.0
MAX_CANDIDATES = 20
VOICING_BIAS = 0.45
SWITCH_COST = 0.3
OCTAVE_JUMP_WEIGHT = 0.2
NCCF_THRESHOLD = 0.3
CORR_WINDOW_MS = 20.0
# additive NCCF energy floor as a fraction of the utterance peak (RAPT's
# a_fact); suppresses spurious periodicity in near-silent frames while
# keeping phi invariant to overall amplitude scaling
ENERGY_FLOOR = 0.01

_TINY = 1e-20  # energies and denominators at or below it count as zero
_BLOCK = 256  # frames per array block


def lag_range(sample_rate: int) -> tuple[int, int]:
    """Inclusive (min_lag, max_lag) in samples for the F0 search band."""
    if F0_MAX >= sample_rate / 2:
        raise InvalidArgument(f"F0_MAX {F0_MAX} >= Nyquist of {sample_rate}")
    return math.ceil(sample_rate / F0_MAX), math.floor(sample_rate / F0_MIN)


@dataclass(frozen=True, eq=False)
class NccfFrames:
    """Normalized cross-correlation values of every frame over the candidate
    lags, made one block of frames at a time.

    blocks() yields the [n, L] values of frames lo .. lo+n-1 for lo = 0,
    _BLOCK, 2 * _BLOCK, ...; row t - lo, column i belongs to frame t and lag
    lags[i]. short[t] marks a frame whose span ran past the signal end
    (all-zero, unvoiced-only).
    """

    lags: np.ndarray  # [L]
    short: np.ndarray  # [T] bool
    blocks: Callable[[], Iterator[np.ndarray]]

    @classmethod
    def from_values(cls, lags, values, short) -> NccfFrames:
        """Frames whose blocks are the rows of a given [T, L] matrix."""
        values = np.asarray(values, dtype=np.float64)
        return cls(np.asarray(lags), np.asarray(short, dtype=bool),
                   lambda: (values[lo : lo + _BLOCK] for lo in range(0, len(values), _BLOCK)))

    def __len__(self) -> int:
        return self.short.size

    @property
    def values(self) -> np.ndarray:
        """The whole [T, L] matrix, for the oracles: the tracker reads blocks."""
        return np.concatenate([np.zeros((0, self.lags.size)), *self.blocks()])


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


def _window_energies(x: np.ndarray, starts: np.ndarray, span: int,
                     win: int) -> Iterator[tuple[int, np.ndarray]]:
    """Per block of _BLOCK frames: (a, e) with e[i - a] = sum of x[i : i + win]^2
    for every window that the block's frames inside the signal read.

    The prefix sums S[i] = sum of x[:i]^2 are carried from block to block:
    each block's sums start from its first S, taken from the previous
    block's, so they have the bits of one whole-signal `np.cumsum`.
    """
    a, sums = 0, np.zeros(1)  # sums[j] = S[a + j]
    for lo in range(0, starts.size, _BLOCK):
        block = starts[lo : lo + _BLOCK]
        first = min(max(block[0], 0), a + sums.size - 1)  # a start the previous sums reach
        last = min(max(block[-1] + span, first), x.size)
        seg = x[first:last]
        sums = np.cumsum(np.concatenate([sums[first - a : first - a + 1], seg * seg]))
        a = first
        yield a, sums[win:] - sums[:-win]


def _nccf_blocks(x, starts, short, lags, win, hop, floor) -> Iterator[np.ndarray]:
    """The [n, L] NCCF values of each block of _BLOCK frames (see `nccf`)."""
    min_lag, span = lags[0], win + lags[-1]
    for lo, (a, energy) in zip(range(0, starts.size, _BLOCK), _window_energies(x, starts, span, win)):
        block = starts[lo : lo + _BLOCK]
        values = np.zeros((block.size, lags.size))
        e0 = np.zeros(block.size)
        inside = np.flatnonzero(~short[lo : lo + _BLOCK])
        e0[inside] = energy[block[inside] - a]
        rows = np.flatnonzero(e0 > _TINY)  # short frames keep e0 = 0
        if rows.size:
            # frames rows[0] .. rows[-1] are all inside the signal; the live ones are gathered
            m0, n, at = block[rows[0]], rows[-1] - rows[0] + 1, rows - rows[0]
            # cross terms c[k] = sum_i x[m+i] * x[m+k+i]: per frame and lag, a 1 x win
            # window row times the win x 1 frame column (np.correlate's dot routine)
            windows = _hop_view(x, m0 + min_lag, hop, (n, lags.size, 1, win), (1, 0, 1))
            columns = _hop_view(x, m0, hop, (n, 1, win, 1), (0, 1, 0))
            cross = np.matmul(windows, columns)[at, :, 0, 0]
            energies = _hop_view(energy, m0 - a + min_lag, hop, (n, lags.size), (1,))[at]
            denom = np.sqrt((e0[rows, None] + floor) * (energies + floor))
            values[rows] = np.where(denom > _TINY, cross / np.maximum(denom, _TINY), 0.0)
        yield values


def nccf(wave: Waveform, frame_cfg: FrameConfig) -> NccfFrames:
    """Normalized cross-correlation per frame over the lag band.

    phi(t, k) = sum_i s(i) s(i+k) / sqrt((e(m) + A)(e(m+k) + A)) with a
    correlation window of CORR_WINDOW_MS and an additive denominator
    floor A = (ENERGY_FLOOR * peak)^2 * window, RAPT's a_fact scaled to the
    utterance peak so phi stays amplitude-invariant. The analysis span
    (window + max lag) is centered on the frame's 10 ms slot, with the
    correlation window at the span's start. (ROADMAP item 12 measured the
    resulting labels against synthetic truth: voicing offsets come about
    1.25 frames late and onsets 0.27 frames early.) Frames whose span would
    run past either end of the signal are returned short and all-zero.

    Only the frame layout and the floor are computed here; the values are
    made block by block as the returned frames' blocks are read. The cross
    terms of each block are one strided dot-product call, with the dot
    routine of `np.correlate`, so they are its bits.
    """
    x = wave.samples
    sr = wave.sample_rate
    min_lag, max_lag = lag_range(sr)
    win = int(round(CORR_WINDOW_MS * sr / 1000.0))
    hop = frame_cfg.hop
    n_frames = frame_cfg.n_frames(x.size) if x.size else 0
    lags = np.arange(min_lag, max_lag + 1)
    span = win + max_lag
    # span start of each frame, centered on the frame slot
    starts = np.arange(n_frames) * hop + (hop // 2 - span // 2)
    short = (starts < 0) | (starts + span > x.size)
    peak = max(x.max(), -x.min()) if x.size else 0.0  # max |x| without an |x| array
    floor = (ENERGY_FLOOR * peak) ** 2 * win
    return NccfFrames(lags, short, functools.partial(_nccf_blocks, x, starts, short, lags, win, hop, floor))


def pick_candidates(frames: NccfFrames) -> CandidateLattice:
    """Per frame: local NCCF maxima above threshold, capped by count, plus the
    unvoiced hypothesis.

    The unvoiced candidate (lag 0, score = VOICING_BIAS) is always first, so
    downstream tie-breaks prefer unvoiced. Peaks follow by descending score,
    equal scores by ascending lag. Plateaus keep their earliest lag.
    """
    sizes = np.ones(len(frames), dtype=np.int64)  # the unvoiced candidate, then the peaks
    lag_blocks, score_blocks = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]  # non-empty to concatenate
    for lo, v in zip(range(0, len(frames), _BLOCK), frames.blocks()):
        # > left and >= right keeps the earliest sample of a plateau
        peak = v > NCCF_THRESHOLD
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
        keep = rank < MAX_CANDIDATES
        block_sizes = sizes[lo : lo + _BLOCK]
        block_sizes += np.minimum(counts, MAX_CANDIDATES)
        # the block's part of the lattice: each frame's unvoiced entry, then its kept peaks
        voiced = np.ones(block_sizes.sum(), dtype=bool)
        voiced[_offsets(block_sizes)[:-1]] = False
        lag_blocks.append(np.zeros(voiced.size, dtype=np.int64))
        lag_blocks[-1][voiced] = frames.lags[cols[keep]]
        score_blocks.append(np.full(voiced.size, VOICING_BIAS, dtype=np.float64))
        score_blocks[-1][voiced] = scores[keep]
    lags = np.concatenate(lag_blocks)
    lag_blocks.clear()  # so that two lattice-sized arrays exist at a time, not three
    return CandidateLattice(_offsets(sizes), lags, np.concatenate(score_blocks))


def _transition_cost(prev: PitchCandidate, cur: PitchCandidate) -> float:
    if prev.voiced and cur.voiced:
        return OCTAVE_JUMP_WEIGHT * abs(math.log2(cur.lag / prev.lag))
    if prev.voiced != cur.voiced:
        return SWITCH_COST
    return 0.0


@functools.lru_cache(maxsize=16)
def _transition_table(size: int) -> tuple[tuple[float, ...], ...]:
    """table[cur_lag][prev_lag]: `_transition_cost` over lags 0..size-1.

    Lag ratios and products round in numpy exactly as in Python (IEEE
    division and multiplication); the logarithm goes through math.log2
    because np.log2 rounds some ratios differently.
    """
    lags = np.arange(1, size)
    ratios = (lags[:, None] / lags).ravel().tolist()
    logs = np.fromiter(map(math.log2, ratios), np.float64, len(ratios))
    table = np.full((size, size), SWITCH_COST)
    table[0, 0] = 0.0
    table[1:, 1:] = OCTAVE_JUMP_WEIGHT * np.abs(logs.reshape(size - 1, size - 1))
    return tuple(map(tuple, table.tolist()))  # shared by every caller: immutable


def viterbi_path(candidates: Lattice) -> tuple[list[int], float]:
    """Minimum-cost candidate-index path and its total cost.

    Local cost is 1 - score (the unvoiced hypothesis carries score =
    VOICING_BIAS); transitions cost SWITCH_COST across V/U boundaries and
    OCTAVE_JUMP_WEIGHT * |log2(lag ratio)| within voiced runs. Ties resolve
    to the lowest candidate index, i.e. unvoiced first, then shorter lags.
    """
    lattice = _as_lattice(candidates)
    n_frames = len(lattice)
    if not n_frames:
        raise InvalidArgument("need at least one frame")
    size = max(256, 1 << int(lattice.lags.max()).bit_length())
    table = _transition_table(size)

    offsets = lattice.offsets
    costs = (1.0 - lattice.scores[: offsets[1]]).tolist()  # IEEE-equal to 1.0 - score per candidate
    prev_lags = lattice.lags[: offsets[1]].tolist()
    # per entry: index of its best predecessor in the previous frame; a picked
    # frame holds at most MAX_CANDIDATES + 1 entries, so the index fits a byte
    backptr = np.zeros(offsets[-1], dtype=np.min_scalar_type(int(np.diff(offsets).max()) - 1))
    blocks = [(lo, min(lo + _BLOCK, n_frames)) for lo in range(1, n_frames, _BLOCK)]
    for lo, hi in blocks:  # frames 1.., one block of lists at a time
        a, b = offsets[lo], offsets[hi]
        bounds = (offsets[lo : hi + 1] - a).tolist()
        lags = lattice.lags[a:b].tolist()
        local = (1.0 - lattice.scores[a:b]).tolist()
        pointers = []
        for i, j in zip(bounds, bounds[1:]):
            new_costs = []
            for lag, loc in zip(lags[i:j], local[i:j]):
                row = table[lag]
                totals = [c + row[p] for c, p in zip(costs, prev_lags)]
                best = min(totals)  # the first minimum, as a strict < scan keeps
                pointers.append(totals.index(best))
                new_costs.append(best + loc)
            costs = new_costs
            prev_lags = lags[i:j]
        backptr[a:b] = pointers

    total_cost = min(costs)
    path = [costs.index(total_cost)]
    for lo, hi in reversed(blocks):
        a = offsets[lo]
        pointers = backptr[a : offsets[hi]].tolist()
        for i in reversed((offsets[lo:hi] - a).tolist()):
            path.append(pointers[i + path[-1]])
    path.reverse()
    return path, total_cost


def viterbi_track(candidates: Lattice, sample_rate: int) -> VoicingLabels:
    """Voicing labels and F0 read off the minimum-cost lattice path."""
    lattice = _as_lattice(candidates)
    path, _ = viterbi_path(lattice)
    lags = lattice.lags[lattice.offsets[:-1] + path]
    voiced = lags > 0
    f0 = np.zeros(lags.size, dtype=np.float64)
    f0[voiced] = sample_rate / lags[voiced]
    return VoicingLabels(labels=voiced.astype(np.int8), f0=f0)


def path_cost(candidates: Lattice, path: list[int]) -> float:
    """Total cost of an explicit candidate-index path (used by oracles/tests).

    Accumulates transition then local cost per step, the same association as
    the DP recursion, so costs compare exactly.
    """
    frames = list(_as_lattice(candidates))
    total = 1.0 - frames[0][path[0]].score
    for t in range(1, len(frames)):
        prev = frames[t - 1][path[t - 1]]
        cur = frames[t][path[t]]
        total = total + _transition_cost(prev, cur)
        total = total + (1.0 - cur.score)
    return total


def track_voicing(wave: Waveform) -> VoicingLabels:
    """nccf -> pick_candidates -> viterbi_track; one label per 10 ms STFT frame."""
    frame_cfg = FrameConfig.for_rate(wave.sample_rate)
    frames = nccf(wave, frame_cfg)
    candidates = pick_candidates(frames)
    labels = viterbi_track(candidates, wave.sample_rate)
    return replace(labels, hop_ms=1000.0 * frame_cfg.hop / wave.sample_rate)
